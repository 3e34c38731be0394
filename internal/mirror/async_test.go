package mirror

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/transport"
)

// gateNet wraps a Network; once armed, the next chunk-body upload (spotted
// by request size) blocks until its context is cancelled, simulating a
// commit caught mid-upload — or, armed with hold, until the returned release
// is called, after which the upload goes through.
type gateNet struct {
	inner transport.Network

	mu      sync.Mutex
	armed   bool
	skip    int           // big calls to let through before tripping
	blocked chan struct{} // closed when an upload is blocked on the gate
	release chan struct{} // closed to let a held upload proceed; nil when armed to fail
}

func newGateNet() *gateNet {
	return &gateNet{inner: transport.NewInProc(), blocked: make(chan struct{})}
}

func (g *gateNet) Listen(addr string, h transport.Handler) (transport.Server, error) {
	return g.inner.Listen(addr, h)
}

// bodyThreshold separates chunk-body uploads from the protocol's small
// control messages.
const bodyThreshold = 200

func (g *gateNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if len(req) >= bodyThreshold {
		g.mu.Lock()
		trip := false
		release := g.release
		if g.armed {
			if g.skip > 0 {
				g.skip--
			} else {
				trip = true
				g.armed = false
				close(g.blocked)
			}
		}
		g.mu.Unlock()
		if trip {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
			}
		}
	}
	return g.inner.Call(ctx, addr, req)
}

// hold trips the gate on the next chunk-body upload and keeps it there until
// the returned function is called.
func (g *gateNet) hold() (release func()) {
	ch := make(chan struct{})
	g.set(0, ch)
	return func() { close(ch) }
}

// arm trips the gate on the (skip+1)th chunk-body upload, which then fails
// with its context.
func (g *gateNet) arm(skip int) { g.set(skip, nil) }

func (g *gateNet) set(skip int, release chan struct{}) {
	g.mu.Lock()
	g.armed = true
	g.skip = skip
	g.blocked = make(chan struct{})
	g.release = release
	g.mu.Unlock()
}

// asyncSetup deploys a dedup-enabled repository over the gate network and
// attaches a cloned module with one committed checkpoint.
func asyncSetup(t *testing.T) (*gateNet, *blobseer.Deployment, *blobseer.Client, *Module) {
	t.Helper()
	g := newGateNet()
	d, err := blobseer.Deploy(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteAt(ctx, base, 0, make([]byte, 16*cs))
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
	for i := 0; i < 4; i++ {
		if _, err := m.WriteAt(bytes.Repeat([]byte{byte(0x10 + i)}, cs), int64(i)*cs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return g, d, c, m
}

func TestCommitAsyncPublishesInBackground(t *testing.T) {
	_, _, c, m := asyncSetup(t)
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xAA}, 2*cs), 0); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The dirty set is captured: the device is immediately clean.
	if m.DirtyChunks() != 0 {
		t.Errorf("DirtyChunks = %d after CommitAsync, want 0", m.DirtyChunks())
	}
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Err() != nil {
		t.Errorf("Err after success = %v", pc.Err())
	}
	if got, ok := pc.Ref(); !ok || got != ref {
		t.Errorf("Ref() = %v/%v, want %v/true", got, ok, ref)
	}
	got, err := c.ReadVersion(ctx, ref, 0, 2*cs)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 2*cs)) {
		t.Fatalf("published snapshot wrong: %v", err)
	}
	if m.PendingCommits() != 0 {
		t.Errorf("PendingCommits = %d after Wait, want 0", m.PendingCommits())
	}
}

func TestCommitAsyncOverlapsKeepVersionOrder(t *testing.T) {
	_, _, c, m := asyncSetup(t)
	var pcs []*PendingCommit
	for round := 0; round < 3; round++ {
		if _, err := m.WriteAt(bytes.Repeat([]byte{byte(0xB0 + round)}, cs), int64(round)*cs); err != nil {
			t.Fatal(err)
		}
		pc, err := m.CommitAsync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pcs = append(pcs, pc)
	}
	var versions []uint64
	for _, pc := range pcs {
		ref, err := pc.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, ref.Version)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[i-1]+1 {
			t.Fatalf("versions out of order: %v", versions)
		}
	}
	// Each overlapped snapshot holds exactly its round's write.
	ckpt, _ := m.CheckpointImage()
	for round, v := range versions {
		got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: v}, uint64(round)*cs, cs)
		if err != nil || got[0] != byte(0xB0+round) {
			t.Fatalf("round %d snapshot wrong: %v", round, err)
		}
	}
}

// TestCancelledAsyncCommitReleasesCASRefs is the acceptance test for commit
// cancellation: a context cancelled mid-upload must return every
// content-addressed reference the commit took, leaving refcounts exactly
// where they were, and the module must be able to commit again.
func TestCancelledAsyncCommitReleasesCASRefs(t *testing.T) {
	g, d, c, m := asyncSetup(t)
	before, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}

	// Six chunks of fresh content, then cancel while the upload is wedged.
	fresh := func(i int) []byte { return bytes.Repeat([]byte{byte(0xC0 + i)}, cs) }
	for i := 0; i < 6; i++ {
		if _, err := m.WriteAt(fresh(i), int64(i)*cs); err != nil {
			t.Fatal(err)
		}
	}
	// Let one body frame land (taking references) before wedging the next
	// large call, so the abort has real references to return. Rendezvous
	// placement decides how many body frames six chunks make; any count puts
	// the second large call before the version-manager commit.
	g.arm(1)
	cctx, cancel := context.WithCancel(context.Background())
	pc, err := m.CommitAsync(cctx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked // an upload is stuck on the gate
	cancel()
	<-pc.Done()
	if err := pc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled commit err = %v, want context.Canceled", err)
	}
	if _, ok := pc.Ref(); ok {
		t.Error("cancelled commit reports a published ref")
	}

	// Every reference the aborted commit took was released: refcounts and
	// body counts are exactly as before.
	after, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if after.Refs != before.Refs {
		t.Errorf("leaked CAS refs: %d before, %d after cancelled commit", before.Refs, after.Refs)
	}
	if after.Chunks != before.Chunks {
		t.Errorf("leaked CAS bodies: %d before, %d after", before.Chunks, after.Chunks)
	}

	// The captured chunks went back to dirty; a retried commit publishes them.
	if m.DirtyChunks() != 6 {
		t.Errorf("DirtyChunks = %d after abort, want 6 (re-marked)", m.DirtyChunks())
	}
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatalf("retry after cancelled commit: %v", err)
	}
	ckpt, _ := m.CheckpointImage()
	for i := 0; i < 6; i++ {
		got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, uint64(i)*cs, cs)
		if err != nil || !bytes.Equal(got, fresh(i)) {
			t.Fatalf("retried snapshot chunk %d wrong: %v", i, err)
		}
	}
}

// TestAsyncCommitRetireRaceStress overlaps async commit pipelines of several
// modules — all drawing chunk content from a small shared pool, so dedup
// refcounts are contended — against concurrent Retire of superseded
// snapshots. Every published snapshot must remain fully readable at the
// moment it is waited on. Run with -race.
func TestAsyncCommitRetireRaceStress(t *testing.T) {
	const (
		writers = 4
		rounds  = 12
		stripes = 3
		pool    = 3
		overlap = 3 // commits kept in flight per module
	)
	d, err := blobseer.Deploy(transport.NewInProc(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	baseInfo, err := c.WriteAt(ctx, base, 0, make([]byte, 8*cs))
	if err != nil {
		t.Fatal(err)
	}
	baseRef := blobseer.SnapshotRef{Blob: base, Version: baseInfo.Version}

	contents := make([][]byte, pool)
	for i := range contents {
		contents[i] = bytes.Repeat([]byte{byte('A' + i)}, cs)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := Attach(ctx, c, baseRef)
			if err != nil {
				errs <- err
				return
			}
			if err := m.Clone(ctx); err != nil {
				errs <- err
				return
			}
			ckpt, _ := m.CheckpointImage()
			var inflight []*PendingCommit
			settle := func(pc *PendingCommit) error {
				ref, err := pc.Wait(ctx)
				if err != nil {
					return fmt.Errorf("writer %d: commit: %w", w, err)
				}
				got, err := c.ReadVersion(ctx, ref, 0, stripes*cs)
				if err != nil {
					return fmt.Errorf("writer %d: read %s: %w", w, ref, err)
				}
				if len(got) != stripes*cs {
					return fmt.Errorf("writer %d: snapshot %s truncated", w, ref)
				}
				// Retire everything below the snapshot just verified; other
				// writers' snapshots share these bodies via dedup and must
				// survive through their own references.
				if _, err := c.RetireStats(ctx, ckpt, ref.Version); err != nil {
					return fmt.Errorf("writer %d: retire: %w", w, err)
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				for s := 0; s < stripes; s++ {
					body := contents[(w+r+s)%pool]
					if _, err := m.WriteAt(body, int64(s)*cs); err != nil {
						errs <- err
						return
					}
				}
				pc, err := m.CommitAsync(ctx)
				if err != nil {
					errs <- err
					return
				}
				inflight = append(inflight, pc)
				if len(inflight) >= overlap {
					if err := settle(inflight[0]); err != nil {
						errs <- err
						return
					}
					inflight = inflight[1:]
				}
			}
			for _, pc := range inflight {
				if err := settle(pc); err != nil {
					errs <- err
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
}

func TestCommitAsyncBoundedPipelineBackpressure(t *testing.T) {
	g, _, _, m := asyncSetup(t)
	// Wedge the pipeline: one commit blocked on the gate, then fill the
	// remaining slots. A further CommitAsync with a cancelled context must
	// fail fast instead of blocking forever.
	g.arm(0)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pcs []*PendingCommit
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xD0}, cs), 0); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(cctx)
	if err != nil {
		t.Fatal(err)
	}
	pcs = append(pcs, pc)
	<-g.blocked
	for i := 1; i < DefaultPipelineDepth; i++ {
		if _, err := m.WriteAt(bytes.Repeat([]byte{byte(0xD0 + i)}, cs), 0); err != nil {
			t.Fatal(err)
		}
		pc, err := m.CommitAsync(cctx)
		if err != nil {
			t.Fatal(err)
		}
		pcs = append(pcs, pc)
	}
	full, cancelFull := context.WithCancel(context.Background())
	cancelFull()
	if _, err := m.CommitAsync(full); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitAsync on full pipeline with cancelled ctx = %v, want context.Canceled", err)
	}
	// Unwedge: cancelling the shared context drains every queued commit.
	cancel()
	for _, pc := range pcs {
		<-pc.Done()
	}
}

// TestCommitAsyncDetachedSurvivesRequestCancel covers the proxy's contract:
// the request context bounds only pipeline admission; cancelling it after
// CommitAsyncDetached returns must not abort the background upload.
func TestCommitAsyncDetachedSurvivesRequestCancel(t *testing.T) {
	_, _, c, m := asyncSetup(t)
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xE1}, 2*cs), 0); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	pc, err := m.CommitAsyncDetached(cctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the CHECKPOINT exchange ends; the upload must keep going
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatalf("detached commit aborted by request cancel: %v", err)
	}
	got, err := c.ReadVersion(ctx, ref, 0, 2*cs)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xE1}, 2*cs)) {
		t.Fatalf("detached snapshot wrong: %v", err)
	}
}

// TestFailedCommitFoldsIntoQueuedCaptures covers the pipeline failure path:
// when a commit fails, captures already queued behind it were taken with
// the dirty set cleared and would publish snapshots missing the failed
// commit's writes — the failure must fold its capture into them so every
// published snapshot is complete.
func TestFailedCommitFoldsIntoQueuedCaptures(t *testing.T) {
	g, _, c, m := asyncSetup(t)

	// Commit A: chunk 0, wedged on its first upload.
	contentA := bytes.Repeat([]byte{0xA1}, cs)
	if _, err := m.WriteAt(contentA, 0); err != nil {
		t.Fatal(err)
	}
	g.arm(0)
	actx, cancelA := context.WithCancel(context.Background())
	pcA, err := m.CommitAsync(actx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked

	// Commit B: chunk 1 only, captured while A is still in flight.
	contentB := bytes.Repeat([]byte{0xB2}, cs)
	if _, err := m.WriteAt(contentB, cs); err != nil {
		t.Fatal(err)
	}
	pcB, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A fails; B must still publish a snapshot containing A's write.
	cancelA()
	<-pcA.Done()
	if pcA.Err() == nil {
		t.Fatal("wedged commit A did not fail")
	}
	refB, err := pcB.Wait(ctx)
	if err != nil {
		t.Fatalf("commit B failed: %v", err)
	}
	gotA, err := c.ReadVersion(ctx, refB, 0, cs)
	if err != nil || !bytes.Equal(gotA, contentA) {
		t.Fatalf("snapshot B lost failed commit A's write: %v", err)
	}
	gotB, err := c.ReadVersion(ctx, refB, cs, cs)
	if err != nil || !bytes.Equal(gotB, contentB) {
		t.Fatalf("snapshot B lost its own write: %v", err)
	}
}

// TestFailedCommitFoldMergesOverlappingCaptures: the fold merges two chunk
// lists that interleave and share an index. Capture A holds chunks 0, 2 and
// 4 and fails; capture B, queued behind it, holds 1, 2 and 5. B's snapshot
// holds A's 0 and 4 and B's own 1, 2 and 5 — chunk 2 is B's newer body —
// and nothing goes back to the dirty set.
func TestFailedCommitFoldMergesOverlappingCaptures(t *testing.T) {
	g, _, c, m := asyncSetup(t)
	want := make(map[int64][]byte)
	put := func(idx int64, fill byte) {
		t.Helper()
		body := bytes.Repeat([]byte{fill}, cs)
		if _, err := m.WriteAt(body, idx*cs); err != nil {
			t.Fatal(err)
		}
		want[idx] = body
	}

	for _, idx := range []int64{0, 2, 4} {
		put(idx, 0xA0+byte(idx))
	}
	g.arm(0)
	actx, cancelA := context.WithCancel(context.Background())
	pcA, err := m.CommitAsync(actx)
	if err != nil {
		t.Fatal(err)
	}
	<-g.blocked

	for _, idx := range []int64{1, 2, 5} {
		put(idx, 0xB0+byte(idx))
	}
	pcB, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cancelA()
	<-pcA.Done()
	if pcA.Err() == nil {
		t.Fatal("wedged commit A did not fail")
	}
	refB, err := pcB.Wait(ctx)
	if err != nil {
		t.Fatalf("commit B failed: %v", err)
	}
	for idx, body := range want {
		got, err := c.ReadVersion(ctx, refB, uint64(idx)*cs, cs)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("chunk %d of snapshot B does not hold its last write (fill %#x): %v", idx, body[0], err)
		}
	}
	if n := m.DirtyChunks(); n != 0 {
		t.Errorf("DirtyChunks = %d after fold, want 0", n)
	}
}
