package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"blobcr/internal/chunkstore"
)

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestCompactReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 8 * 1024, DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	bodies := make(map[int][]byte)
	for i := 0; i < 32; i++ {
		bodies[i] = randBytes(i, 1024)
		if err := s.Put(key(i), bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := len(segFiles(t, dir))
	if before < 4 {
		t.Fatalf("only %d segments before compaction", before)
	}
	// Kill most chunks: every sealed segment drops below the live ratio.
	for i := 0; i < 32; i++ {
		if i%4 != 0 {
			if err := s.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
			delete(bodies, i)
		}
	}
	res, err := s.CompactNow()
	if err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if res.Segments == 0 {
		t.Fatal("compaction removed no segments")
	}
	if res.ReclaimedBytes == 0 {
		t.Fatal("compaction reclaimed no bytes")
	}
	after := len(segFiles(t, dir))
	if after >= before {
		t.Fatalf("segment count %d -> %d: nothing reclaimed on disk", before, after)
	}
	// Survivors intact, victims still dead.
	for i := 0; i < 32; i++ {
		got, err := s.Get(key(i))
		if body, live := bodies[i]; live {
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("surviving chunk %d after compaction: %v", i, err)
			}
		} else if !errors.Is(err, chunkstore.ErrNotFound) {
			t.Fatalf("deleted chunk %d resurrected by compaction: %v", i, err)
		}
	}
	// And the same holds across a reopen: relocated records are durable and
	// no stale copy in a removed segment wins.
	s.Close()
	r := openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	defer r.Close()
	for i := 0; i < 32; i++ {
		got, err := r.Get(key(i))
		if body, live := bodies[i]; live {
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("reopen chunk %d: %v", i, err)
			}
		} else if !errors.Is(err, chunkstore.ErrNotFound) {
			t.Fatalf("reopen resurrected deleted chunk %d: %v", i, err)
		}
	}
}

func TestCompactFullyDeadSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 * 1024, DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A victim with nothing live is unlinked without a read: overwrite
	// every sealed segment with junk behind the store's back, so any read
	// of one fails its CRC.
	s.mu.RLock()
	for _, seg := range s.segs {
		if seg != s.active {
			if err := os.WriteFile(seg.path, randBytes(int(seg.seq), int(seg.size)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.mu.RUnlock()
	res, err := s.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments == 0 {
		t.Fatal("no segments compacted")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}
	// Tombstones whose puts died with their victims are not carried forward
	// forever: once no older segment can hold the key, they drop.
	s.Close()
	r := openTest(t, dir, Options{DisableAutoCompact: true})
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("reopen Len = %d, want 0", r.Len())
	}
}

// TestCompactCarriesTombstoneOverOlderSegment is the resurrection trap: the
// put lives in segment A, the tombstone in segment B, and compaction removes
// B first. The tombstone must be carried forward or the reopen resurrects
// the chunk out of A.
func TestCompactCarriesTombstoneOverOlderSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 * 1024, DisableAutoCompact: true, NoCompress: true})
	// Segment 1: the victim-to-survive, holding key 0 and friends.
	for i := 0; i < 4; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// Later segments: filler plus the tombstone for key 0.
	for i := 4; i < 12; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	// Delete the filler sharing the tombstone's segment region so those
	// segments (not segment 1) become the compaction victims.
	for i := 4; i < 12; i++ {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(0)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("deleted chunk visible after compaction: %v", err)
	}
	s.Close()
	r := openTest(t, dir, Options{DisableAutoCompact: true})
	defer r.Close()
	if _, err := r.Get(key(0)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("compaction of the tombstone's segment resurrected chunk 0: %v", err)
	}
	for i := 1; i < 4; i++ {
		if _, err := r.Get(key(i)); err != nil {
			t.Fatalf("chunk %d lost: %v", i, err)
		}
	}
}

// sealedWith returns a sealed segment holding at least one of the keys.
func sealedWith(t *testing.T, s *Store, keys []chunkstore.Key) *segment {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, k := range keys {
		if e, ok := s.index[k]; ok && s.segs[e.seg] != s.active {
			return s.segs[e.seg]
		}
	}
	t.Fatal("no sealed segment holds the keys")
	return nil
}

// liveIn returns the keys whose live record sits in seg, in offset order.
func liveIn(s *Store, seg *segment) []chunkstore.Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []chunkstore.Key
	for k, e := range s.index {
		if e.seg == seg.seq {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return s.index[keys[i]].off < s.index[keys[j]].off })
	return keys
}

// rot flips the last payload byte of k's record behind the store's back.
func rot(t *testing.T, s *Store, k chunkstore.Key) {
	t.Helper()
	s.mu.RLock()
	e := s.index[k]
	path := s.segs[e.seg].path
	s.mu.RUnlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], e.off+e.size-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], e.off+e.size-1); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSkipsCorruptSegment: a live record that fails its CRC keeps
// its segment in place — relocating it would launder the rot — marked
// noCompact, with an error naming the segment, and later passes do not spin
// on it.
func TestCompactSkipsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 * 1024, DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	keys := make([]chunkstore.Key, 8)
	for i := range keys {
		keys[i] = key(i)
		if err := s.Put(keys[i], randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// Rot the victim's last record, keep its key live and delete every
	// other key, so the segment becomes a victim whose one live record is
	// the rotted one.
	victim := sealedWith(t, s, keys)
	in := liveIn(s, victim)
	rotted := in[len(in)-1]
	rot(t, s, rotted)
	for _, k := range keys {
		if k != rotted {
			s.Delete(k) //nolint:errcheck
		}
	}
	_, err := s.CompactNow()
	if err == nil {
		t.Fatal("CompactNow succeeded over bit rot in a live record")
	}
	if !strings.Contains(err.Error(), filepath.Base(victim.path)) {
		t.Fatalf("error does not name the segment: %v", err)
	}
	if !victim.noCompact {
		t.Fatal("corrupt segment not marked noCompact")
	}
	if _, err := os.Stat(victim.path); err != nil {
		t.Fatalf("corrupt segment was removed: %v", err)
	}
	// A later pass must not spin on the same victim.
	if _, err := s.CompactNow(); err != nil && strings.Contains(err.Error(), filepath.Base(victim.path)) {
		t.Fatalf("second pass retried the corrupt segment: %v", err)
	}
}

// TestCompactReclaimsRotInDeadRecords: compaction reads only live records,
// so rot in the payloads of deleted ones no longer pins their segment —
// it is reclaimed, and every live key reads back, before and after a
// reopen.
func TestCompactReclaimsRotInDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 8 * 1024, DisableAutoCompact: true, NoCompress: true})
	bodies := make(map[chunkstore.Key][]byte)
	var keys []chunkstore.Key
	for i := 0; i < 24; i++ {
		k := key(i)
		bodies[k] = randBytes(i, 1024)
		keys = append(keys, k)
		if err := s.Put(k, bodies[k]); err != nil {
			t.Fatal(err)
		}
	}
	victim := sealedWith(t, s, keys)
	in := liveIn(s, victim)
	if len(in) < 3 {
		t.Fatalf("victim holds %d records, want at least 3", len(in))
	}
	// Keep the first record of the victim live; rot and delete the rest.
	for _, k := range in[1:] {
		rot(t, s, k)
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(bodies, k)
	}
	if _, err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow over rot in dead records: %v", err)
	}
	if _, err := os.Stat(victim.path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("victim with rotted dead records not reclaimed: %v", err)
	}
	check := func(st *Store, phase string) {
		t.Helper()
		for _, k := range keys {
			got, err := st.Get(k)
			if body, live := bodies[k]; live {
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("%s: live chunk %v: %v", phase, k, err)
				}
			} else if !errors.Is(err, chunkstore.ErrNotFound) {
				t.Fatalf("%s: deleted chunk %v resurrected: %v", phase, k, err)
			}
		}
	}
	check(s, "after compaction")
	s.Close()
	r := openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	defer r.Close()
	check(r, "reopen")
}

// copySegments snapshots the segment files of src into a fresh directory:
// what a crash at this instant would leave on disk, since every batch the
// store acknowledged or installed is fsynced.
func copySegments(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range segFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompactCrashAfterEveryGroup stops compaction of a multi-group victim
// after the k-th group is durable, for every k, and reopens the log as a
// crash there would leave it: every live key reads its last body, and every
// deleted key stays deleted — including keys whose bytes live in an older
// segment and whose tombstone compaction carries out of the victim.
func TestCompactCrashAfterEveryGroup(t *testing.T) {
	const recBytes = 64 << 10
	opts := Options{SegmentBytes: 10 << 20, CompactRatio: 0.95, DisableAutoCompact: true, NoCompress: true}
	base := t.TempDir()
	s := openTest(t, base, opts)
	want := make(map[chunkstore.Key][]byte) // nil body: deleted
	put := func(i, gen int) {
		t.Helper()
		k, body := key(i), randBytes(i*7+gen, recBytes)
		if err := s.Put(k, body); err != nil {
			t.Fatal(err)
		}
		want[k] = body
	}
	del := func(i int) {
		t.Helper()
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		want[key(i)] = nil
	}
	seq := func() uint32 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.active.seq
	}
	// Segment A: the older segment, which stays above the ratio.
	next := 0
	for first := seq(); seq() == first; next++ {
		put(next, 0)
	}
	// Segment B, the victim: tombstones of two keys whose bytes stay in A,
	// deletes and re-puts of its own keys, and live records to fill it.
	victimSeq := seq()
	del(0)
	del(1)
	bFirst := next
	for seq() == victimSeq {
		put(next, 0)
		next++
		if n := next - bFirst; n%10 == 0 {
			del(next - 5)
			if n%20 == 0 {
				put(next-5, 1) // a re-put: the last body wins
			}
		}
	}
	s.mu.RLock()
	victim := s.segs[victimSeq]
	groups := int((victim.live + compactBatchBytes - 1) / compactBatchBytes)
	ratio := float64(victim.live) / float64(victim.size)
	s.mu.RUnlock()
	if groups < 3 || ratio >= opts.CompactRatio {
		t.Fatalf("victim holds %d live bytes (%d groups) at live ratio %.2f; want >= 3 groups below %.2f", victim.live, groups, ratio, opts.CompactRatio)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(dir, phase string) {
		t.Helper()
		r := openTest(t, dir, opts)
		defer r.Close()
		for k, body := range want {
			got, err := r.Get(k)
			if body == nil {
				if !errors.Is(err, chunkstore.ErrNotFound) {
					t.Fatalf("%s: deleted chunk %v resurrected: %v", phase, k, err)
				}
			} else if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%s: chunk %v does not read its last body: %v", phase, k, err)
			}
		}
	}
	errCrash := errors.New("crash")
	for k := 0; k <= groups; k++ {
		work := copySegments(t, base)
		c := openTest(t, work, opts)
		crashed := ""
		c.compactHook = func(group int) error {
			if group != k {
				return nil
			}
			crashed = copySegments(t, work)
			return errCrash
		}
		_, err := c.CompactNow()
		c.Close()
		if k == groups {
			// Past the last group: compaction ran to the end.
			if err != nil || crashed != "" {
				t.Fatalf("full compaction: err %v, stopped after %q", err, crashed)
			}
			if _, err := os.Stat(filepath.Join(work, filepath.Base(victim.path))); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("victim survived a full compaction: %v", err)
			}
			check(work, "after a full compaction")
			continue
		}
		if !errors.Is(err, errCrash) {
			t.Fatalf("group %d: compaction did not stop there: %v", k, err)
		}
		check(crashed, fmt.Sprintf("crash after group %d", k))
		// The recovered log compacts to the same state.
		r := openTest(t, crashed, opts)
		if _, err := r.CompactNow(); err != nil {
			t.Fatalf("compaction after the crash at group %d: %v", k, err)
		}
		r.Close()
		check(crashed, fmt.Sprintf("compacted after the crash at group %d", k))
	}
}

func TestAutoCompactionTriggersOnDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 * 1024, NoCompress: true})
	defer s.Close()
	for i := 0; i < 16; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The background compactor runs asynchronously; CompactNow serializes
	// behind it and finishes the job, so afterwards the log must be compact.
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n > 1 {
		t.Fatalf("%d segments remain after full delete + compaction", n)
	}
}
