package mirror

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
)

// The capture hands the module's dirty buffers to the PendingCommit instead
// of copying them. These tests pin the invariant that makes that safe — a
// buffer reachable from any PendingCommit is immutable for the rest of its
// life — on every path that can re-dirty or re-home a capture.

// handoffSetup is asyncSetup over a device whose last chunk is short (the
// capture trims it), with a private registry for the hand-off counters.
func handoffSetup(t *testing.T) (*gateNet, *blobseer.Client, *Module, []byte) {
	t.Helper()
	const size = 8*cs + 77
	g := newGateNet()
	d, err := blobseer.Deploy(g, 2, 3)
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
	shadow := bytes.Repeat([]byte{0x11}, size)
	info, err := c.WriteAt(ctx, base, 0, shadow)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	return g, c, m, shadow
}

// write applies one guest write to the device and to its shadow.
func write(t *testing.T, m *Module, shadow, p []byte, off int) {
	t.Helper()
	if _, err := m.WriteAt(p, int64(off)); err != nil {
		t.Fatal(err)
	}
	copy(shadow[off:], p)
}

func wantSnapshot(t *testing.T, c *blobseer.Client, ref blobseer.SnapshotRef, want []byte, what string) {
	t.Helper()
	got, err := c.ReadVersion(ctx, ref, 0, uint64(len(want)))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: snapshot %s is not the device's content at its capture", what, ref)
	}
}

func wantDevice(t *testing.T, m *Module, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("device content diverged from the shadow")
	}
}

// TestTornCapture: a capture waits in the pipeline, unread, while the guest
// overwrites every kind of chunk it holds — whole, partial head, partial
// tail, and the trimmed device tail. The snapshot must publish the bytes of
// the capture, the device must read the bytes of the writes, and the next
// commit must publish exactly the rewritten chunks.
func TestTornCapture(t *testing.T) {
	g, c, m, shadow := handoffSetup(t)
	reg := c.Registry()

	// Keep the worker busy with an earlier commit held mid-upload, so the
	// capture under test has not been hashed or framed when the guest writes.
	write(t, m, shadow, bytes.Repeat([]byte{0x70}, cs), 7*cs)
	release := g.hold()
	pc0, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked

	write(t, m, shadow, bytes.Repeat([]byte{0xA0}, 4*cs), 0)
	write(t, m, shadow, bytes.Repeat([]byte{0xA8}, 77), 8*cs) // the short tail chunk
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mirror_capture_chunks_total").Value(); got != 1+5 {
		t.Errorf("mirror_capture_chunks_total = %d, want 6", got)
	}
	atCapture := append([]byte(nil), shadow...)

	write(t, m, shadow, bytes.Repeat([]byte{0xB0}, cs), 0)        // chunk 0: whole
	write(t, m, shadow, bytes.Repeat([]byte{0xB1}, 10), cs)       // chunk 1: head
	write(t, m, shadow, bytes.Repeat([]byte{0xB2}, 10), 3*cs-10)  // chunk 2: tail
	write(t, m, shadow, bytes.Repeat([]byte{0xB8}, 5), 8*cs+77-5) // chunk 8: end of the device
	if got := reg.Counter("mirror_cow_copies_total").Value(); got != 3 {
		t.Errorf("mirror_cow_copies_total = %d, want 3 (a whole-chunk overwrite keeps nothing)", got)
	}
	if got := reg.Counter("mirror_cow_bytes_total").Value(); got != 3*cs {
		t.Errorf("mirror_cow_bytes_total = %d, want %d", got, 3*cs)
	}
	// A second write to a chunk already moved off its captured buffer is in
	// place: one copy per chunk per interval, not one per write.
	write(t, m, shadow, bytes.Repeat([]byte{0xB3}, 10), cs+20)
	if got := reg.Counter("mirror_cow_copies_total").Value(); got != 3 {
		t.Errorf("mirror_cow_copies_total = %d after a second write to chunk 1, want 3", got)
	}

	release()
	if _, err := pc0.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, c, ref, atCapture, "held capture")
	wantDevice(t, m, shadow)

	before := m.CommitStats()
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CommitStats().Chunks - before.Chunks; got != 4 {
		t.Errorf("the next commit published %d chunks, want the 4 rewritten ones", got)
	}
	ckpt, _ := m.CheckpointImage()
	wantSnapshot(t, c, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, shadow, "next commit")
}

// TestFailedCommitFoldSharesFrozenBuffers: commit A fails while B is queued
// behind it, and the guest rewrites chunks of A in between — one before B's
// capture, one after. B must publish the device's content at B's capture,
// each write exactly once: the folded chunk is A's buffer as A captured it.
func TestFailedCommitFoldSharesFrozenBuffers(t *testing.T) {
	g, c, m, shadow := handoffSetup(t)
	warm := m.CommitStats()

	write(t, m, shadow, bytes.Repeat([]byte{0xA1}, 2*cs), 0) // A: chunks 0, 1
	g.arm(0)
	actx, cancelA := context.WithCancel(context.Background())
	pcA, err := m.CommitAsync(actx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked

	write(t, m, shadow, bytes.Repeat([]byte{0xB1}, 10), 5)    // chunk 0 again, in B
	write(t, m, shadow, bytes.Repeat([]byte{0xB2}, cs), 2*cs) // chunk 2, in B
	pcB, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	atB := append([]byte(nil), shadow...)
	write(t, m, shadow, bytes.Repeat([]byte{0xC1}, 10), cs+5) // chunk 1 again, after B

	cancelA()
	<-pcA.Done()
	if pcA.Err() == nil {
		t.Fatal("wedged commit A did not fail")
	}
	refB, err := pcB.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, c, refB, atB, "B with A folded in")
	if n := m.DirtyChunks(); n != 1 {
		t.Errorf("DirtyChunks = %d after the fold, want 1 (chunk 1, rewritten after B)", n)
	}
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()
	wantSnapshot(t, c, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, shadow, "commit after the fold")
	// B: chunks 0 and 2 of its own and chunk 1 folded; then chunk 1 once more.
	if got := m.CommitStats().Chunks - warm.Chunks; got != 4 {
		t.Errorf("CommitStats.Chunks delta = %d, want 4", got)
	}
}

// failFirstPut is a stage store whose first put fails, as a full disk would.
// It hides the wrapped store's batch interface, so a one-chunk stage is one
// Put.
type failFirstPut struct {
	chunkstore.Store
	failed atomic.Bool
}

func (s *failFirstPut) Put(k chunkstore.Key, data []byte) error {
	if s.failed.CompareAndSwap(false, true) {
		return errors.New("stage disk full")
	}
	return s.Store.Put(k, data)
}

// TestRemarkedDirtyChunkStaysFrozen: capture 1 fails to stage, falls back to
// the remote path and fails there too, so its chunk is re-marked dirty — while
// capture 2 of the same chunk is still being staged. The guest then writes
// the chunk again. Re-marking must not have unfrozen it: what capture 2
// stages is what it captured.
func TestRemarkedDirtyChunkStaysFrozen(t *testing.T) {
	g, c, m, shadow := handoffSetup(t)
	staging2 := make(chan []blobseer.Chunk)
	proceed := make(chan struct{})
	m.AttachStage(StageConfig{
		Stage: localtier.New(&failFirstPut{Store: chunkstore.NewMem()}, obs.NewRegistry()),
		Owner: "vm-0",
		Replicate: func(_ context.Context, cp *localtier.Capture, chunks []blobseer.Chunk) error {
			if cp.Seq == 2 {
				staging2 <- chunks
				<-proceed
			}
			return nil
		},
	})

	write(t, m, shadow, bytes.Repeat([]byte{0xA1}, cs), 0)
	g.arm(0) // capture 1's remote upload wedges, then fails with its context
	ctx1, cancel1 := context.WithCancel(context.Background())
	pc1, err := m.CommitAsync(ctx1)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked
	write(t, m, shadow, bytes.Repeat([]byte{0xB1}, 10), 5)
	pc2, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at2 := append([]byte(nil), shadow...)
	held := <-staging2 // capture 2 is inside the stage, its buffers in use

	cancel1()
	<-pc1.Done()
	if pc1.Err() == nil {
		t.Fatal("capture 1 did not fail")
	}
	// Nothing in the remote queue could absorb capture 1 (capture 2 is still
	// staging), so chunk 0 is dirty again — and still the buffer capture 2 holds.
	if n := m.DirtyChunks(); n != 1 {
		t.Fatalf("DirtyChunks = %d after capture 1 failed, want 1", n)
	}
	write(t, m, shadow, bytes.Repeat([]byte{0xC1}, 10), 40)
	if held[0].Index != 0 || !bytes.Equal(held[0].Body, at2[:cs]) {
		t.Fatal("the guest's write reached a buffer capture 2 is still staging")
	}
	close(proceed)
	ref2, err := pc2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, c, ref2, at2, "capture 2")
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()
	wantSnapshot(t, c, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, shadow, "commit after both")
}

// TestRollbackDropsFrozenChunks: a rollback drops the chunks captures froze
// together with their marks, and a later write to one pages the rollback
// target in and allocates — it never lands in a captured buffer.
func TestRollbackDropsFrozenChunks(t *testing.T) {
	_, c, m, shadow := handoffSetup(t)
	write(t, m, shadow, bytes.Repeat([]byte{0xA1}, cs), 0)
	info1, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	at1 := append([]byte(nil), shadow...)
	write(t, m, shadow, bytes.Repeat([]byte{0xA2}, 2*cs), 0)
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	captured := [][]byte{m.local[0], m.local[1]}
	want := [][]byte{bytes.Clone(captured[0]), bytes.Clone(captured[1])}

	ckpt, _ := m.CheckpointImage()
	ref1 := blobseer.SnapshotRef{Blob: ckpt, Version: info1.Version}
	if err := m.RollbackTo(ctx, ref1); err != nil {
		t.Fatal(err)
	}
	if len(m.frozen) != 0 {
		t.Errorf("%d chunks still frozen after the rollback", len(m.frozen))
	}
	shadow = at1
	write(t, m, shadow, bytes.Repeat([]byte{0xD1}, 10), 5)
	write(t, m, shadow, bytes.Repeat([]byte{0xD2}, cs), cs)
	for i, buf := range captured {
		if &m.local[uint64(i)][0] == &buf[0] {
			t.Errorf("chunk %d: a write after the rollback resurrected the captured buffer", i)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Errorf("chunk %d: captured buffer changed after the rollback", i)
		}
	}
	wantDevice(t, m, shadow)
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot(t, c, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, shadow, "commit after the rollback")
}

// TestCompletedCommitPinsNothing: once a commit is done and the guest has
// moved its chunks to fresh buffers, the captured ones are garbage — even
// though the handle is still retained, as the proxy retains its last
// maxRetainedHandles.
func TestCompletedCommitPinsNothing(t *testing.T) {
	_, _, m, shadow := handoffSetup(t)
	const chunks = 4
	write(t, m, shadow, bytes.Repeat([]byte{0xA1}, chunks*cs), 0)
	collected := make(chan struct{}, chunks)
	for i := uint64(0); i < chunks; i++ {
		runtime.SetFinalizer(&m.local[i][0], func(*byte) { collected <- struct{}{} })
	}
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	write(t, m, shadow, bytes.Repeat([]byte{0xB1}, chunks*cs), 0)
	for n := 0; n < chunks; n++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d captured buffers still reachable after the commit completed", chunks-n, chunks)
		}
	}
	runtime.KeepAlive(pc)
}

// captureBed is a module over an in-process repository whose first n chunks
// are dirty, for measuring the suspend-side call alone.
func captureBed(tb testing.TB, g *gateNet, chunks, chunk int) *Module {
	tb.Helper()
	d, err := blobseer.Deploy(g, 1, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	c := d.Client()
	c.Obs = obs.NewRegistry()
	blob, err := c.CreateBlob(ctx, uint64(chunk))
	if err != nil {
		tb.Fatal(err)
	}
	info, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, chunk)}, uint64((chunks+1)*chunk))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		tb.Fatal(err)
	}
	return m
}

// dirtyFirst overwrites the first n chunks with bytes stamped by round.
func dirtyFirst(tb testing.TB, m *Module, buf []byte, n, round int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		copy(buf, fmt.Sprintf("round %d chunk %d", round, i))
		if _, err := m.WriteAt(buf, int64(i*len(buf))); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCaptureIsIndexSized is the suspend window's budget as a gate: capturing
// 128 dirty chunks of 256 KiB — 32 MiB — allocates an index, not a copy.
func TestCaptureIsIndexSized(t *testing.T) {
	const chunks, chunk, budget = 128, 256 << 10, 64 << 10
	g := newGateNet()
	m := captureBed(t, g, chunks, chunk)
	buf := make([]byte, chunk)
	// Hold an earlier commit mid-upload: the worker is parked, so what is
	// allocated during the call under test is the capture's alone.
	copy(buf, "held") // not the base image's zeros: a dedup hit uploads no body to hold
	if _, err := m.WriteAt(buf, int64(chunks*chunk)); err != nil {
		t.Fatal(err)
	}
	release := g.hold()
	pc0, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked
	dirtyFirst(t, m, buf, chunks, 0)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pc, err := m.CommitAsync(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("capture of %d x %d KiB allocated %d bytes in %d objects", chunks, chunk>>10, got, after.Mallocs-before.Mallocs)
	if got >= budget {
		t.Errorf("capture of %d MiB allocated %d bytes, budget %d: a copy survived", chunks*chunk>>20, got, budget)
	}
	release()
	for _, p := range []*PendingCommit{pc0, pc} {
		if _, err := p.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkCapture times the suspend-side call alone — CommitAsync, from
// admission to the enqueued capture — over dirty sets of 2, 32 and 64 MiB at
// 256 KiB chunks and 2 MiB at 16 KiB. Dirtying the device and waiting for
// the publish are outside the timer, so fix the iteration count
// (-benchtime 20x). ns/op may grow with the number of chunks, not with
// their bytes.
func BenchmarkCapture(b *testing.B) {
	for _, tc := range []struct{ chunks, chunk int }{{8, 256 << 10}, {128, 256 << 10}, {256, 256 << 10}, {128, 16 << 10}} {
		b.Run(fmt.Sprintf("dirty=%dMiB/chunk=%dKiB", tc.chunks*tc.chunk>>20, tc.chunk>>10), func(b *testing.B) {
			m := captureBed(b, newGateNet(), tc.chunks, tc.chunk)
			buf := make([]byte, tc.chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirtyFirst(b, m, buf, tc.chunks, i)
				b.StartTimer()
				pc, err := m.CommitAsync(ctx)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pc.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
