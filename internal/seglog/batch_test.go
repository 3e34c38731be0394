package seglog

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"blobcr/internal/chunkstore"
)

// batchOf builds n keys with bodies of every encoding: raw, zero-elided,
// compressible, empty.
func batchOf(n int) ([]chunkstore.Key, [][]byte) {
	keys := make([]chunkstore.Key, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
		switch i % 4 {
		case 0:
			bodies[i] = randBytes(i+1, 4096+i)
		case 1:
			bodies[i] = make([]byte, 4096)
		case 2:
			bodies[i] = bytes.Repeat([]byte("checkpoint"), 300+i)
		case 3:
			bodies[i] = randBytes(i+1, i-3) // the first of them is the empty body
		}
	}
	return keys, bodies
}

func statDelta(s *Store, before chunkstore.EngineStats, field string) uint64 {
	return s.EngineStats().Field(field) - before.Field(field)
}

// TestPutBatchIsOneAppendOneSync: a batch of N records boards the log as one
// unit — one append, one fdatasync, N puts — is readable, and survives a
// reopen whole.
func TestPutBatchIsOneAppendOneSync(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{DisableAutoCompact: true})
	const n = 37
	keys, bodies := batchOf(n)
	before := s.EngineStats()
	if err := s.PutBatch(keys, bodies); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if a, f, p := statDelta(s, before, "appends"), statDelta(s, before, "fsyncs"), statDelta(s, before, "puts"); a != 1 || f != 1 || p != n {
		t.Fatalf("batch of %d cost %d appends, %d fsyncs, %d puts; want 1, 1, %d", n, a, f, p, n)
	}
	check := func(s *Store) {
		t.Helper()
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		for i, k := range keys {
			got, err := s.Get(k)
			if err != nil || !bytes.Equal(got, bodies[i]) {
				t.Fatalf("record %d: %d bytes, err %v; want %d bytes", i, len(got), err, len(bodies[i]))
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{DisableAutoCompact: true})
	defer s.Close()
	check(s)
}

// TestPutBatchTornMidBatch: a crash that tears a batch in the middle loses
// exactly the records from the tear on — the CRC-valid prefix of the batch
// is recovered, one torn tail is counted — and the log is writable again.
func TestPutBatchTornMidBatch(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	const n, tornAt = 16, 8 // a raw record: the tear lands in its payload
	keys, bodies := batchOf(n)
	if err := s.PutBatch(keys, bodies); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	s.mu.RLock()
	e := s.index[keys[tornAt]]
	segPath := s.active.path
	s.mu.RUnlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, e.off+e.size/2); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	for i, k := range keys {
		got, err := s.Get(k)
		switch {
		case i < tornAt && (err != nil || !bytes.Equal(got, bodies[i])):
			t.Fatalf("record %d before the tear lost: %v", i, err)
		case i >= tornAt && !errors.Is(err, chunkstore.ErrNotFound):
			t.Fatalf("record %d from the tear on survived: %v", i, err)
		}
	}
	if got := s.EngineStats().Field("torn_truncations"); got != 1 {
		t.Fatalf("torn_truncations = %d, want 1", got)
	}
	if fi, err := os.Stat(segPath); err != nil || fi.Size() != e.off {
		t.Fatalf("torn tail not dropped at the last good record: size %d, want %d (err %v)", fi.Size(), e.off, err)
	}
	if err := s.PutBatch(keys[tornAt:], bodies[tornAt:]); err != nil {
		t.Fatalf("re-put of the lost records: %v", err)
	}
}

// TestPutBatchRePutSemantics: inside a batch a stored key behaves as it does
// for Put — identical content is a no-op, different content is ErrExists for
// that record while the rest of the batch is stored — and so does a key the
// batch itself names twice.
func TestPutBatchRePutSemantics(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	a, b := randBytes(1, 2000), randBytes(2, 2000)
	if err := s.Put(key(0), a); err != nil {
		t.Fatal(err)
	}
	before := s.EngineStats()
	if err := s.PutBatch([]chunkstore.Key{key(0)}, [][]byte{a}); err != nil {
		t.Fatalf("identical re-put: %v", err)
	}
	if f := statDelta(s, before, "fsyncs"); f != 0 {
		t.Fatalf("a batch with nothing new cost %d fsyncs", f)
	}
	if err := s.PutBatch([]chunkstore.Key{key(0), key(1)}, [][]byte{a, b}); err != nil {
		t.Fatalf("identical re-put beside a new record: %v", err)
	}
	err := s.PutBatch([]chunkstore.Key{key(2), key(0), key(3)}, [][]byte{a, b, b})
	if !errors.Is(err, chunkstore.ErrExists) {
		t.Fatalf("different content under a stored key: %v, want ErrExists", err)
	}
	for i, want := range [][]byte{a, b, a, b} {
		if got, err := s.Get(key(i)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d after the refused record: err %v", i, err)
		}
	}
	// One key twice in one batch: the second copy is dead bytes, or refused.
	if err := s.PutBatch([]chunkstore.Key{key(4), key(4)}, [][]byte{a, a}); err != nil {
		t.Fatalf("same key, same content twice: %v", err)
	}
	if err := s.PutBatch([]chunkstore.Key{key(5), key(5)}, [][]byte{a, b}); !errors.Is(err, chunkstore.ErrExists) {
		t.Fatalf("same key, different content: %v, want ErrExists", err)
	}
	if got, _ := s.Get(key(5)); !bytes.Equal(got, a) {
		t.Fatal("the first record of a conflicting pair must win")
	}
}

// TestDeleteBatchIsOneTombstoneBatch: N deletes cost one append and one
// fdatasync, absent keys are skipped, and the tombstones hold across a
// reopen. Delete of an absent key is still ErrNotFound.
func TestDeleteBatchIsOneTombstoneBatch(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{DisableAutoCompact: true})
	const n = 20
	keys, bodies := batchOf(n)
	if err := s.PutBatch(keys, bodies); err != nil {
		t.Fatal(err)
	}
	before := s.EngineStats()
	doomed := append([]chunkstore.Key{key(1000)}, keys[:n/2]...)
	if err := s.DeleteBatch(doomed); err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	if a, f := statDelta(s, before, "appends"), statDelta(s, before, "fsyncs"); a != 1 || f != 1 {
		t.Fatalf("%d deletes cost %d appends, %d fsyncs; want 1, 1", n/2, a, f)
	}
	if err := s.Delete(key(1000)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("Delete of an absent key: %v, want ErrNotFound", err)
	}
	if err := s.DeleteBatch([]chunkstore.Key{key(1000), key(1001)}); err != nil {
		t.Fatalf("DeleteBatch of absent keys only: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{DisableAutoCompact: true})
	defer s.Close()
	for i, k := range keys {
		if got := s.Has(k); got != (i >= n/2) {
			t.Fatalf("key %d after reopen: stored = %v", i, got)
		}
	}
}
