package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
)

func openTest(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func key(i int) chunkstore.Key {
	return chunkstore.Key{Blob: 1, ID: uint64(i)}
}

// randBytes is deterministic xorshift junk: incompressible, so the flate
// path stays out of tests that reason about raw sizes.
func randBytes(seed, n int) []byte {
	x := uint64(seed)*2654435761 + 1
	out := make([]byte, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	bodies := map[int][]byte{
		0: randBytes(0, 4096),                      // raw
		1: make([]byte, 4096),                      // zero-elided
		2: bytes.Repeat([]byte("checkpoint"), 500), // compressible
		3: {},                                      // empty chunk
		4: randBytes(4, 17),                        // tiny
	}
	for i, b := range bodies {
		if err := s.Put(key(i), b); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i, want := range bodies {
		got, err := s.Get(key(i))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if s.Len() != len(bodies) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(bodies))
	}
	var want int64
	for _, b := range bodies {
		want += int64(len(b))
	}
	if got := s.UsedBytes(); got != want {
		t.Fatalf("UsedBytes = %d, want %d (logical bytes)", got, want)
	}
}

func TestGetMissing(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	if _, err := s.Get(key(99)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("Get missing: %v, want ErrNotFound", err)
	}
}

func TestImmutability(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	body := randBytes(1, 1024)
	if err := s.Put(key(1), body); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), append([]byte(nil), body...)); err != nil {
		t.Fatalf("identical re-put: %v, want nil", err)
	}
	if err := s.Put(key(1), randBytes(2, 1024)); !errors.Is(err, chunkstore.ErrExists) {
		t.Fatalf("different re-put: %v, want ErrExists", err)
	}
}

func TestDelete(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	if err := s.Put(key(1), randBytes(1, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key(1)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(key(1)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
	if err := s.Delete(key(1)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if s.Has(key(1)) {
		t.Fatal("Has after delete")
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("UsedBytes after delete = %d", s.UsedBytes())
	}
}

func TestPutAfterDelete(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	if err := s.Put(key(1), randBytes(1, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key(1)); err != nil {
		t.Fatal(err)
	}
	next := randBytes(2, 64)
	if err := s.Put(key(1), next); err != nil {
		t.Fatalf("re-put after delete: %v", err)
	}
	got, err := s.Get(key(1))
	if err != nil || !bytes.Equal(got, next) {
		t.Fatalf("Get after re-put: %v", err)
	}
}

func TestZeroPageElision(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTest(t, t.TempDir(), Options{Registry: reg, DisableAutoCompact: true})
	defer s.Close()
	const chunk = 64 * 1024
	if err := s.Put(key(1), make([]byte, chunk)); err != nil {
		t.Fatal(err)
	}
	es := s.EngineStats()
	if es.Field("zero_chunks") != 1 {
		t.Fatalf("zero_chunks = %d, want 1", es.Field("zero_chunks"))
	}
	if disk := es.Field("disk_bytes"); disk >= chunk {
		t.Fatalf("disk_bytes = %d for an elided 64 KiB zero page", disk)
	}
	if es.Field("logical_bytes") != chunk {
		t.Fatalf("logical_bytes = %d, want %d", es.Field("logical_bytes"), chunk)
	}
	got, err := s.Get(key(1))
	if err != nil || len(got) != chunk || !chunkstore.IsZero(got) {
		t.Fatalf("zero page roundtrip failed: %v", err)
	}
}

func TestFlateCompression(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	compressible := bytes.Repeat([]byte("BlobCR stores VM images "), 2048)
	if err := s.Put(key(1), compressible); err != nil {
		t.Fatal(err)
	}
	incompressible := randBytes(7, 4096)
	if err := s.Put(key(2), incompressible); err != nil {
		t.Fatal(err)
	}
	es := s.EngineStats()
	if es.Field("flate_chunks") != 1 || es.Field("raw_chunks") != 1 {
		t.Fatalf("flate=%d raw=%d, want 1 and 1", es.Field("flate_chunks"), es.Field("raw_chunks"))
	}
	if disk, logical := es.Field("disk_bytes"), es.Field("logical_bytes"); disk >= logical {
		t.Fatalf("disk_bytes %d >= logical_bytes %d despite compressible data", disk, logical)
	}
	for i, want := range [][]byte{compressible, incompressible} {
		got, err := s.Get(key(i + 1))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("roundtrip %d: %v", i+1, err)
		}
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	const (
		workers = 32
		perW    = 16
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := chunkstore.Key{Blob: uint64(w), ID: uint64(i)}
				if err := s.Put(k, randBytes(w*perW+i, 2048)); err != nil {
					errs <- fmt.Errorf("put %v: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	es := s.EngineStats()
	puts, fsyncs := es.Field("puts"), es.Field("fsyncs")
	if puts != workers*perW {
		t.Fatalf("puts = %d, want %d", puts, workers*perW)
	}
	if fsyncs >= puts {
		t.Fatalf("fsyncs = %d not below puts = %d: group commit never batched", fsyncs, puts)
	}
	t.Logf("group commit: %d puts in %d fsyncs", puts, fsyncs)
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			k := chunkstore.Key{Blob: uint64(w), ID: uint64(i)}
			got, err := s.Get(k)
			if err != nil || !bytes.Equal(got, randBytes(w*perW+i, 2048)) {
				t.Fatalf("readback %v: %v", k, err)
			}
		}
	}
}

func TestConcurrentSameKeyPut(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	body := randBytes(3, 1024)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(key(1), body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent identical put %d: %v", i, err)
		}
	}
	got, err := s.Get(key(1))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readback: %v", err)
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	bodies := make(map[int][]byte)
	s := openTest(t, dir, Options{SegmentBytes: 16 * 1024, DisableAutoCompact: true, NoCompress: true})
	for i := 0; i < 40; i++ {
		bodies[i] = randBytes(i, 2048)
		if err := s.Put(key(i), bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.EngineStats().Field("segments"); n < 3 {
		t.Fatalf("segments = %d, want several at a 16 KiB roll size", n)
	}
	if err := s.Delete(key(7)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, Options{SegmentBytes: 16 * 1024, DisableAutoCompact: true, NoCompress: true})
	defer r.Close()
	for i, want := range bodies {
		got, err := r.Get(key(i))
		if i == 7 {
			if !errors.Is(err, chunkstore.ErrNotFound) {
				t.Fatalf("deleted chunk resurrected across reopen: %v", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reopen Get %d: %v", i, err)
		}
	}
	if r.Len() != len(bodies)-1 {
		t.Fatalf("reopen Len = %d, want %d", r.Len(), len(bodies)-1)
	}
}

func TestKeysMatchesIndex(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	want := map[chunkstore.Key]bool{}
	for i := 0; i < 20; i++ {
		if err := s.Put(key(i), randBytes(i, 100)); err != nil {
			t.Fatal(err)
		}
		want[key(i)] = true
	}
	for i := 0; i < 20; i += 3 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(want, key(i))
	}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys returned %d, want %d", len(got), len(want))
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("Keys returned dead key %v", k)
		}
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put(key(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put(key(2), []byte("y")); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if _, err := s.Get(key(1)); err == nil {
		t.Fatal("Get on closed store succeeded")
	}
}

func TestPutGetManySizes(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		n := rng.Intn(8192)
		body := randBytes(i, n)
		if err := s.Put(key(i), body); err != nil {
			t.Fatalf("put %d (%d bytes): %v", i, n, err)
		}
		got, err := s.Get(key(i))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("roundtrip %d (%d bytes): %v", i, n, err)
		}
	}
}
