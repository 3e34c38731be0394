package mirror

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
)

// TestMemoCommitPublishesTrueFingerprints: the module's fingerprint memo
// answers only bodies byte-equal to ones its previous commit hashed. A
// captured chunk the guest changes in part and then restores, another
// index rewritten with a body committed elsewhere, and the device's short
// tail rewritten unchanged are answered by it; a chunk changed only between
// the memo's sampled windows is not. Every published leaf must carry its
// body's SHA-256, and a restart must read the device back byte-identical.
func TestMemoCommitPublishesTrueFingerprints(t *testing.T) {
	_, c, m, shadow := handoffSetup(t)
	rng := rand.New(rand.NewSource(7))
	tail := 8 * cs
	for i := 0; i < 6; i++ {
		body := make([]byte, cs)
		rng.Read(body)
		write(t, m, shadow, body, i*cs)
	}
	tailBody := make([]byte, len(shadow)-tail)
	rng.Read(tailBody)
	write(t, m, shadow, tailBody, tail)
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	before := m.CommitStats()

	// Chunk 1: a partial write to the captured chunk, then its old bytes back.
	old := bytes.Clone(shadow[cs+10 : cs+20])
	write(t, m, shadow, bytes.Repeat([]byte{0xFF}, 10), cs+10)
	write(t, m, shadow, old, cs+10)
	// Chunk 2: one byte changed between the middle and tail windows, so the
	// sampled key matches the committed body's but the content does not.
	write(t, m, shadow, []byte{^shadow[2*cs+170]}, 2*cs+170)
	// Chunk 3: chunk 0's committed body at another index.
	write(t, m, shadow, bytes.Clone(shadow[:cs]), 3*cs)
	// The tail: its committed bytes again.
	write(t, m, shadow, bytes.Clone(tailBody), tail)
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := m.CommitStats()
	if got, want := after.HashMemoChunks-before.HashMemoChunks, 3; got != want {
		t.Errorf("memo answered %d bodies, want %d (restored chunk, recurring body, tail)", got, want)
	}
	if got, want := after.HashMemoBytes-before.HashMemoBytes, uint64(2*cs+len(tailBody)); got != want {
		t.Errorf("memo answered %d bytes, want %d", got, want)
	}

	leaves, err := c.VersionLeaves(ctx, info)
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
	ref := blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}
	wantSnapshot(t, c, ref, shadow, "commit with memo answers")
	restarted, err := Attach(ctx, c, ref)
	if err != nil {
		t.Fatal(err)
	}
	wantDevice(t, restarted, shadow)
}

// TestMemoPinsOneGeneration: the memo holds the bodies of the module's last
// commit and no older ones — a generation's buffers are garbage once the
// next commit has hashed — and Halt lets go of the last one too.
func TestMemoPinsOneGeneration(t *testing.T) {
	_, _, m, shadow := handoffSetup(t)
	const chunks = 4
	for i := 0; i < chunks; i++ {
		write(t, m, shadow, bytes.Repeat([]byte{byte(0xA0 + i)}, cs), i*cs)
	}
	collected := make(chan struct{}, chunks)
	for i := uint64(0); i < chunks; i++ {
		runtime.SetFinalizer(&m.local[i][0], func(*byte) { collected <- struct{}{} })
	}
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rewrite := func() {
		for i := 0; i < chunks; i++ {
			write(t, m, shadow, bytes.Repeat([]byte{byte(0xB0 + i)}, cs), i*cs)
		}
	}
	rewrite()
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < chunks; n++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d first-generation buffers still reachable after the next commit", chunks-n, chunks)
		}
	}

	// The second generation is what the memo holds: committing it again is
	// answered from the memo in full.
	before := m.CommitStats()
	rewrite()
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.CommitStats().HashMemoChunks - before.HashMemoChunks; got != chunks {
		t.Errorf("memo answered %d of %d recommitted bodies", got, chunks)
	}
	m.Halt()
	if _, hit := m.memo.Sum(bytes.Repeat([]byte{0xB0}, cs)); hit {
		t.Error("Halt left the memo holding bodies")
	}
}
