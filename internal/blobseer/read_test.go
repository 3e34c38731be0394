package blobseer

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

// TestReadChunksDeliversEachIndexOnce: every asked index is delivered exactly
// once — nil for a hole and for an index past the end, the stored bytes
// otherwise (short for the tail chunk) — and a delivered body is a window
// cut to its own length: appending to it reallocates instead of running
// into the neighbour that shares its frame.
func TestReadChunksDeliversEachIndexOnce(t *testing.T) {
	const chunk = 1024
	_, c := deploy(t, 2, 1) // one provider: all bodies arrive in one frame
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	writes := make(map[uint64][]byte)
	for _, idx := range []uint64{0, 1, 2, 5, 9} {
		writes[idx] = bytes.Repeat([]byte{byte(0x10 + idx)}, chunk)
	}
	writes[9] = writes[9][:300] // the tail chunk
	size := uint64(9*chunk + 300)
	info, err := c.WriteVersion(ctx, blob, writes, size)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Open(ctx, SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size() != size || snap.ChunkSize() != chunk {
		t.Fatalf("snapshot pinned size %d chunk %d, want %d and %d", snap.Size(), snap.ChunkSize(), size, chunk)
	}
	indices := []uint64{0, 1, 2, 3, 5, 8, 9, 10, 4000}
	var mu sync.Mutex
	got := make(map[uint64][]byte)
	stats, err := snap.ReadChunks(ctx, indices, func(idx uint64, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[idx]; dup {
			t.Errorf("chunk %d delivered twice", idx)
		}
		got[idx] = body
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks != 5 || len(got) != len(indices) {
		t.Fatalf("read %d chunks and delivered %d indices, want 5 and %d", stats.Chunks, len(got), len(indices))
	}
	for _, idx := range indices {
		body, want := got[idx], writes[idx]
		if (body == nil) != (want == nil) || !bytes.Equal(body, want) {
			t.Errorf("chunk %d: delivered %d bytes (nil %v), want %d (hole %v)", idx, len(body), body == nil, len(want), want == nil)
		}
		if cap(body) != len(body) {
			t.Errorf("chunk %d: capacity %d runs past its %d bytes into the shared frame", idx, cap(body), len(body))
		}
	}
	_ = append(got[0], 0xFF, 0xFF, 0xFF)
	for _, idx := range []uint64{1, 2, 5, 9} {
		if !bytes.Equal(got[idx], writes[idx]) {
			t.Errorf("appending to chunk 0 wrote into chunk %d", idx)
		}
	}
}

// TestReadVersionClampsHugeSize: a size so large that offset+size wraps
// past 2^64 still reads the blob's remaining bytes, as any size past the end
// does, instead of asking for a buffer of that size.
func TestReadVersionClampsHugeSize(t *testing.T) {
	_, c := deploy(t, 1, 1)
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("blobcr"), testChunkSize)
	info, err := c.WriteAt(ctx, blob, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	ref := SnapshotRef{Blob: blob, Version: info.Version}
	for _, offset := range []uint64{0, 1, uint64(len(data)) - 1} {
		got, err := c.ReadVersion(ctx, ref, offset, math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[offset:]) {
			t.Errorf("offset %d: read %d bytes, want the %d remaining", offset, len(got), len(data)-int(offset))
		}
	}
}
