package seglog

import (
	"bytes"
	"os"
	"testing"

	"blobcr/internal/chunkstore"
)

// FuzzSegmentScan drives recovery's record scan over arbitrary segment
// bytes. It must never panic, must cover no more than the file (and all of
// it unless it stops at a torn record), and every record it yields must be
// exactly the bytes at its offset: encoding its header and payload again
// reproduces them, CRC included. Seeded with a log of every record kind and
// with the torn and bit-flipped tails of the recovery tests.
func FuzzSegmentScan(f *testing.F) {
	dir := f.TempDir()
	s := openTest(f, dir, Options{DisableAutoCompact: true})
	// Small records of every kind keep the fuzzer's minimization quick.
	keys := []chunkstore.Key{key(0), key(1), key(2), key(3)}
	bodies := [][]byte{randBytes(1, 100), make([]byte, 64), bytes.Repeat([]byte("checkpoint"), 30), {}}
	if err := s.PutBatch(keys, bodies); err != nil {
		f.Fatal(err)
	}
	if err := s.Delete(keys[0]); err != nil { // and a tombstone
		f.Fatal(err)
	}
	path := s.active.path
	s.Close()
	kinds, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(kinds)
	f.Add([]byte{})
	_, _, lastStart, lastEnd, segPath := tortureLog(f, f.TempDir(), 4)
	orig, err := os.ReadFile(segPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	for cut := lastStart; cut < lastEnd; cut += 11 {
		f.Add(orig[:cut])
	}
	for pos := lastStart; pos < lastEnd; pos += 13 {
		flipped := bytes.Clone(orig)
		flipped[pos] ^= 0xFF
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		next := int64(0)
		valid, torn, err := scanSegment(bytes.NewReader(data), size, func(off int64, h header, payload []byte) error {
			end := off + hdrSize + int64(len(payload))
			if off != next || end > size {
				t.Fatalf("record at %d (%d bytes) does not follow the previous one at %d inside %d bytes", off, end-off, next, size)
			}
			var e encodedRec
			e.encode(h, payload)
			if !bytes.Equal(e.hdr[:], data[off:off+hdrSize]) || !bytes.Equal(payload, data[off+hdrSize:end]) {
				t.Fatalf("record at %d does not re-encode to its bytes", off)
			}
			next = end
			return nil
		})
		if err != nil {
			t.Fatalf("scan of in-memory bytes failed: %v", err)
		}
		if valid != next || valid > size || (!torn && valid != size) {
			t.Fatalf("scan covered %d of %d bytes (records end at %d, torn %v)", valid, size, next, torn)
		}
	})
}
