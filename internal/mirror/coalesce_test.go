package mirror

import (
	"bytes"
	"math/rand"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// TestRestartSharedBodiesAreIndependent: restarting an image in which chunks
// 0, 2 and 5 name one body and chunk 3 is all zeros fetches that body once
// and chunk 3 not at all. The chunks that shared a fetch are independent
// buffers in the mirror — a partial write into one leaves the others as
// they were — the zero chunk takes no memory until written, and the next
// commit publishes every leaf under its body's SHA-256.
func TestRestartSharedBodiesAreIndependent(t *testing.T) {
	d, err := blobseer.Deploy(transport.NewInProc(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Obs = obs.NewRegistry()
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 7
	shadow := make([]byte, (chunks-1)*cs+40) // chunk 6 is a short tail
	rand.New(rand.NewSource(33)).Read(shadow)
	shared := bytes.Repeat([]byte{0x5A}, cs)
	for _, idx := range []int{0, 2, 5} {
		copy(shadow[idx*cs:], shared)
	}
	clear(shadow[3*cs : 4*cs])
	info, err := c.WriteAt(ctx, base, 0, shadow)
	if err != nil {
		t.Fatal(err)
	}

	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return c.Registry().Counter(name).Value() }
	coalesced, zero := counter("blobseer_read_coalesced_chunks_total"), counter("blobseer_read_zero_chunks_total")
	all := make([]uint64, chunks)
	for i := range all {
		all[i] = uint64(i)
	}
	if err := m.Prefetch(ctx, all); err != nil {
		t.Fatal(err)
	}
	if got := counter("blobseer_read_coalesced_chunks_total") - coalesced; got != 2 {
		t.Errorf("restart coalesced %d chunks, want 2 (chunks 2 and 5 ride on chunk 0's fetch)", got)
	}
	if got := counter("blobseer_read_zero_chunks_total") - zero; got != 1 {
		t.Errorf("restart served %d zero chunks, want 1", got)
	}
	m.mu.Lock()
	zeroChunk := m.local[3]
	m.mu.Unlock()
	if zeroChunk != nil {
		t.Error("the zero chunk holds a buffer before the guest wrote it")
	}
	wantDevice(t, m, shadow)

	write(t, m, shadow, []byte{0xFF, 0xFE, 0xFD}, 2*cs+7)
	write(t, m, shadow, []byte{0x01}, 3*cs+100)
	wantDevice(t, m, shadow)
	if !bytes.Equal(shadow[:cs], shared) || !bytes.Equal(shadow[5*cs:6*cs], shared) {
		t.Fatal("test bug: the shadow's untouched shared chunks changed")
	}

	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	next, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := c.VersionLeaves(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if !l.Present {
			continue
		}
		off := int(l.Index) * cs
		body := shadow[off:min(off+cs, len(shadow))]
		if l.Leaf.Key != cas.Sum(body).Key() {
			t.Errorf("chunk %d published under %v, its body's SHA-256 is %v", l.Index, l.Leaf.Key, cas.Sum(body).Key())
		}
	}
	ckpt, _ := m.CheckpointImage()
	wantSnapshot(t, c, blobseer.SnapshotRef{Blob: ckpt, Version: next.Version}, shadow, "commit after writes into coalesced chunks")
}
