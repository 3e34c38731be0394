package seglog

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
)

// tortureLog builds a single-segment log of nChunks acked puts and returns
// the expected contents, the byte range [lastStart, lastEnd) of the final
// record inside the segment file, and that file's path. The store is closed
// on return; the caller mutates the file and reopens.
func tortureLog(t testing.TB, dir string, nChunks int) (want map[chunkstore.Key][]byte, lastKey chunkstore.Key, lastStart, lastEnd int64, segPath string) {
	t.Helper()
	s := openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	want = make(map[chunkstore.Key][]byte)
	for i := 0; i < nChunks-1; i++ {
		body := randBytes(i+1, 64+i*17)
		if err := s.Put(key(i), body); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		want[key(i)] = body
	}
	s.mu.RLock()
	lastStart = s.active.size
	segPath = s.active.path
	s.mu.RUnlock()
	lastKey = key(nChunks - 1)
	lastBody := randBytes(nChunks, 96)
	if err := s.Put(lastKey, lastBody); err != nil {
		t.Fatalf("Put last: %v", err)
	}
	want[lastKey] = lastBody
	s.mu.RLock()
	lastEnd = s.active.size
	s.mu.RUnlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want, lastKey, lastStart, lastEnd, segPath
}

// checkRecovered opens the damaged log and asserts: every chunk whose record
// was fully durable before the damage point survives intact, the torn tail
// is gone (file truncated back to the last good record), and the store is
// writable again.
func checkRecovered(t *testing.T, dir string, want map[chunkstore.Key][]byte, lastKey chunkstore.Key, lastStart int64, segPath string, wantTorn bool) {
	t.Helper()
	s := openTest(t, dir, Options{DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	for k, body := range want {
		if k == lastKey {
			if _, err := s.Get(k); !errors.Is(err, chunkstore.ErrNotFound) {
				t.Fatalf("damaged last chunk %v not dropped: %v", k, err)
			}
			continue
		}
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("acked chunk %v lost after crash recovery: %v", k, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("acked chunk %v corrupted after crash recovery", k)
		}
	}
	if s.Len() != len(want)-1 {
		t.Fatalf("Len after recovery = %d, want %d", s.Len(), len(want)-1)
	}
	if got := s.tornTruncs.Load(); (got != 0) != wantTorn {
		t.Fatalf("torn truncations = %d, wantTorn = %v", got, wantTorn)
	}
	if fi, err := os.Stat(segPath); err != nil || fi.Size() != lastStart {
		t.Fatalf("torn tail not dropped cleanly: size %d, want %d (err %v)", fi.Size(), lastStart, err)
	}
	// The log is live again: the dropped chunk can be re-put and read back.
	if err := s.Put(lastKey, want[lastKey]); err != nil {
		t.Fatalf("re-put after recovery: %v", err)
	}
	got, err := s.Get(lastKey)
	if err != nil || !bytes.Equal(got, want[lastKey]) {
		t.Fatalf("readback after recovery re-put: %v", err)
	}
}

// TestRecoveryTruncatedTailEveryBoundary simulates a crash mid-append at
// every byte boundary of the last record: for each cut point the segment is
// truncated there, reopened, and every previously acked chunk must be intact
// with the partial record dropped.
func TestRecoveryTruncatedTailEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	want, lastKey, lastStart, lastEnd, segPath := tortureLog(t, dir, 10)
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(orig)) != lastEnd {
		t.Fatalf("segment size %d, want %d", len(orig), lastEnd)
	}
	for cut := lastStart; cut < lastEnd; cut++ {
		if err := os.WriteFile(segPath, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// cut == lastStart is a clean EOF, not a torn record.
		checkRecovered(t, dir, want, lastKey, lastStart, segPath, cut != lastStart)
	}
}

// TestRecoveryCorruptTailEveryByte flips each byte of the last record in
// place (torn write / media error on the unsealed tail), reopens, and
// asserts the damaged record is truncated away with everything before it
// intact.
func TestRecoveryCorruptTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	want, lastKey, lastStart, lastEnd, segPath := tortureLog(t, dir, 10)
	orig, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for pos := lastStart; pos < lastEnd; pos++ {
		damaged := append([]byte(nil), orig...)
		damaged[pos] ^= 0xFF
		if err := os.WriteFile(segPath, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, dir, want, lastKey, lastStart, segPath, true)
	}
}

// TestRecoveryMidLogCorruptionFailsOpen: damage in a sealed (non-last)
// segment is not a crash artifact — every record there was fsynced — so Open
// must refuse rather than silently drop acked data.
func TestRecoveryMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 8 * 1024, DisableAutoCompact: true, NoCompress: true})
	for i := 0; i < 30; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	var sealed string
	for _, seg := range s.segs {
		if seg != s.active {
			sealed = seg.path
			break
		}
	}
	s.mu.RUnlock()
	s.Close()
	if sealed == "" {
		t.Fatal("no sealed segment produced")
	}
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{DisableAutoCompact: true, Registry: obs.NewRegistry()}); err == nil {
		t.Fatal("Open succeeded over mid-log corruption")
	}
}

// TestRecoveryTombstoneInTail: a crash right after a durable tombstone must
// keep the delete across reopen even when the put it kills lives in an
// earlier segment.
func TestRecoveryTombstoneInTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 4 * 1024, DisableAutoCompact: true, NoCompress: true})
	for i := 0; i < 8; i++ {
		if err := s.Put(key(i), randBytes(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTest(t, dir, Options{DisableAutoCompact: true})
	defer r.Close()
	if _, err := r.Get(key(0)); !errors.Is(err, chunkstore.ErrNotFound) {
		t.Fatalf("tombstoned chunk resurrected: %v", err)
	}
	for i := 1; i < 8; i++ {
		if _, err := r.Get(key(i)); err != nil {
			t.Fatalf("chunk %d lost: %v", i, err)
		}
	}
}

// TestRecoveryEmptyDirAndReopenLoop: repeated open/close cycles of an empty
// then growing log stay consistent.
func TestRecoveryReopenLoop(t *testing.T) {
	dir := t.TempDir()
	want := make(map[chunkstore.Key][]byte)
	for round := 0; round < 5; round++ {
		s := openTest(t, dir, Options{DisableAutoCompact: true})
		for k, body := range want {
			got, err := s.Get(k)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("round %d: chunk %v: %v", round, k, err)
			}
		}
		body := randBytes(round+100, 512)
		if err := s.Put(key(round), body); err != nil {
			t.Fatalf("round %d put: %v", round, err)
		}
		want[key(round)] = body
		s.Close()
	}
}
