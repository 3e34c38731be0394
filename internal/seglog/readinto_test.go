package seglog

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"blobcr/internal/chunkstore"
)

// TestReadIntoMatchesGet: for every encoding — raw, zero-elided, DEFLATE,
// empty — ReadInto places exactly Get's bytes in the memory the caller
// names, asking for it once and by the right length, even when that memory
// arrives dirty; an absent chunk asks for nothing.
func TestReadIntoMatchesGet(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	bodies := [][]byte{
		randBytes(0, 64<<10),                    // raw
		make([]byte, 4096),                      // zero-elided
		bytes.Repeat([]byte("checkpoint"), 500), // compressible
		{},                                      // empty chunk
		randBytes(4, 17),                        // tiny, raw
		bytes.Repeat([]byte{0, 0, 0, 0, 0, 1}, 99), // nearly zero, compressible
	}
	for i, b := range bodies {
		if err := s.Put(key(i), b); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i, want := range bodies {
		var dst []byte
		calls := 0
		err := s.ReadInto(key(i), func(n int) []byte {
			calls++
			dst = bytes.Repeat([]byte{0xEE}, n) // dirty memory: ReadInto must overwrite all of it
			return dst
		})
		if err != nil || calls != 1 || !bytes.Equal(dst, want) {
			t.Errorf("chunk %d: err %v, alloc called %d times, %d bytes read, want %d", i, err, calls, len(dst), len(want))
		}
		if got, err := s.Get(key(i)); err != nil || !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Errorf("chunk %d: Get: err %v, %d bytes (cap %d), want %d in a buffer of its own size", i, err, len(got), cap(got), len(want))
		}
	}
	err := s.ReadInto(key(99), func(int) []byte {
		t.Error("alloc called for an absent chunk")
		return nil
	})
	if !errors.Is(err, chunkstore.ErrNotFound) {
		t.Errorf("absent chunk: %v, want ErrNotFound", err)
	}
}

// TestReadIntoVerifiesCRC: bit rot in a raw payload — the one read straight
// into the caller's memory — and in a compressed one fails the read instead
// of delivering the bytes.
func TestReadIntoVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	defer s.Close()
	raw, packed := randBytes(1, 8192), bytes.Repeat([]byte("checkpoint"), 800)
	for i, b := range [][]byte{raw, packed} {
		if err := s.Put(key(i), b); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	path := s.active.path
	offs := []int64{s.index[key(0)].off + hdrSize + 100, s.index[key(1)].off + hdrSize + 10}
	s.mu.RUnlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, off := range offs {
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	for i := range offs {
		err := s.ReadInto(key(i), func(n int) []byte { return make([]byte, n) })
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Errorf("chunk %d: read over bit rot returned %v, want a CRC error", i, err)
		}
		if _, err := s.Get(key(i)); err == nil {
			t.Errorf("chunk %d: Get over bit rot succeeded", i)
		}
	}
}
