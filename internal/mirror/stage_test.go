package mirror

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
)

// stageSetup is asyncSetup plus an attached local write-back tier and a
// partner stage receiving the replicas (wired directly, no proxy in between).
func stageSetup(t *testing.T) (*gateNet, *blobseer.Deployment, *blobseer.Client, *Module, *localtier.Stage, *localtier.Stage) {
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
	stage := localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	partner := localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	m.AttachStage(StageConfig{
		Stage: stage,
		Owner: "vm-0",
		Replicate: func(_ context.Context, cp *localtier.Capture, chunks []blobseer.Chunk) error {
			_, err := partner.Put(cp.Owner, cp.Seq, cp.Base, cp.Size, cp.ChunkSize, chunks, true)
			return err
		},
		Release: func(owner string, seq uint64, ref blobseer.SnapshotRef) {
			partner.MarkDrained(owner, seq, ref)
		},
	})
	return g, d, c, m, stage, partner
}

// TestStagedCommitLocallySafeWhileRemoteWedged is the tentpole invariant at
// module scope: with a write-back tier, the checkpoint ack (local safety) and
// pipeline admission are paced by the local stage, not by the remote plane.
func TestStagedCommitLocallySafeWhileRemoteWedged(t *testing.T) {
	g, _, _, m, stage, partner := stageSetup(t)

	// Wedge the first chunk-body upload of the drain; staging is unaffected.
	g.arm(0)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xA1}, 2*cs), 0); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(cctx)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := pc.WaitLocallySafe(wctx); err != nil {
		t.Fatalf("WaitLocallySafe with remote wedged: %v", err)
	}
	if !pc.LocallySafe() {
		t.Error("LocallySafe() = false after WaitLocallySafe")
	}
	<-g.blocked // the drain really is stuck on the remote plane
	select {
	case <-pc.Done():
		t.Fatal("commit reported done while its upload is wedged")
	default:
	}
	if b := stage.OwnerBacklog("vm-0"); b.Checkpoints != 1 || b.Chunks != 2 {
		t.Errorf("stage backlog = %+v, want the wedged capture (1 ckpt / 2 chunks)", b)
	}
	if _, p := partner.Backlog(); p.Checkpoints != 1 {
		t.Errorf("partner holds %d replicas, want 1", p.Checkpoints)
	}

	// Every pipeline slot admits and reaches local safety while the first
	// drain is still wedged: admission is decoupled from remote bandwidth.
	for i := 0; i < DefaultPipelineDepth; i++ {
		if _, err := m.WriteAt(bytes.Repeat([]byte{byte(0xB0 + i)}, cs), 0); err != nil {
			t.Fatal(err)
		}
		pci, err := m.CommitAsync(cctx)
		if err != nil {
			t.Fatalf("CommitAsync %d with remote wedged: %v", i, err)
		}
		if err := pci.WaitLocallySafe(wctx); err != nil {
			t.Fatalf("WaitLocallySafe %d with remote wedged: %v", i, err)
		}
	}
	// Captures for every commit are held in the tier, safe against this
	// node's loss; cancel aborts the wedged uploads (cleanup).
	if b := stage.OwnerBacklog("vm-0"); b.Checkpoints != 1+DefaultPipelineDepth {
		t.Errorf("stage backlog = %d checkpoints, want %d", b.Checkpoints, 1+DefaultPipelineDepth)
	}
}

// TestStageDrainConvergesAndReleasesPartner drives full rounds through the
// write-back pipeline and checks the drain end state: snapshots published in
// capture order, both tiers empty, partner replicas released, drain memo at
// the last published ref, and every stage of the tiered pipeline —
// commit/stage-local included — recorded once per round.
func TestStageDrainConvergesAndReleasesPartner(t *testing.T) {
	_, _, c, m, stage, partner := stageSetup(t)
	reg := obs.NewRegistry()
	c.Obs = reg
	var refs []blobseer.SnapshotRef
	for round := 0; round < 3; round++ {
		if _, err := m.WriteAt(bytes.Repeat([]byte{byte(0xC0 + round)}, cs), int64(round)*cs); err != nil {
			t.Fatal(err)
		}
		pc, err := m.CommitAsync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pc.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	for i := 1; i < len(refs); i++ {
		if refs[i].Version != refs[i-1].Version+1 {
			t.Fatalf("versions out of order: %v", refs)
		}
	}
	// The final snapshot carries every round's write through the chain.
	for round := 0; round < 3; round++ {
		got, err := c.ReadVersion(ctx, refs[2], uint64(round)*cs, cs)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(0xC0 + round)}, cs)) {
			t.Fatalf("round %d write missing from final snapshot: %v", round, err)
		}
	}
	// Drained: both tiers empty, the partner released every replica, and the
	// memo points at the newest published snapshot.
	if own, _ := stage.Backlog(); own.Checkpoints != 0 {
		t.Errorf("stage backlog after drain = %+v, want empty", own)
	}
	if _, p := partner.Backlog(); p.Checkpoints != 0 {
		t.Errorf("partner backlog after release = %+v, want empty", p)
	}
	seq, ref, ok := stage.LastDrained("vm-0")
	if !ok || seq != 3 || ref != refs[2] {
		t.Errorf("LastDrained = %d %v %v, want 3 %v true", seq, ref, ok, refs[2])
	}
	for _, name := range obs.CommitStagesLocalTier {
		if n := reg.Histogram("span_ns", obs.L("span", name)).Count(); n != uint64(len(refs)) {
			t.Errorf("%q spans recorded: %d, want one per round (%d)", name, n, len(refs))
		}
	}
}

// TestStagingFailureFallsBackToRemotePath: when the tier itself fails (here:
// partner replication errors), the capture must not be lost — local safety
// degrades and the commit still publishes to the remote plane.
func TestStagingFailureFallsBackToRemotePath(t *testing.T) {
	_, _, c, m, stage, _ := stageSetup(t)
	m.AttachStage(StageConfig{
		Stage: stage,
		Owner: "vm-0",
		Replicate: func(context.Context, *localtier.Capture, []blobseer.Chunk) error {
			return errors.New("partner down")
		},
	})
	content := bytes.Repeat([]byte{0xD7}, cs)
	if _, err := m.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// WaitLocallySafe degrades to waiting for global durability.
	if err := pc.WaitLocallySafe(ctx); err != nil {
		t.Fatalf("WaitLocallySafe after staging failure: %v", err)
	}
	if pc.LocallySafe() {
		t.Error("LocallySafe() = true although replication failed")
	}
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatalf("fallback commit failed: %v", err)
	}
	got, err := c.ReadVersion(ctx, ref, 0, cs)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("fallback snapshot wrong: %v", err)
	}
}

// TestFailedReplicationLeavesNothingStaged: a capture staged locally whose
// partner replication fails is not locally safe, but it stays linked to its
// staged copy, and its durable publish unstages it: once the commit is
// durable, the stage holds no backlog and its store no chunk.
func TestFailedReplicationLeavesNothingStaged(t *testing.T) {
	_, _, c, m, _, _ := stageSetup(t)
	store := chunkstore.NewMem()
	stage := localtier.New(store, obs.NewRegistry())
	m.AttachStage(StageConfig{
		Stage: stage,
		Owner: "vm-0",
		Replicate: func(context.Context, *localtier.Capture, []blobseer.Chunk) error {
			return errors.New("partner down")
		},
	})
	content := bytes.Repeat([]byte{0xD8}, cs)
	if _, err := m.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pc.LocallySafe() {
		t.Error("LocallySafe() = true although replication failed")
	}
	if err := m.DrainNow(ctx); err != nil {
		t.Fatal(err)
	}
	if own, partner := stage.Backlog(); own != (localtier.Backlog{}) || partner != (localtier.Backlog{}) {
		t.Errorf("stage backlog after the durable commit = %+v / %+v, want empty", own, partner)
	}
	if n := store.Len(); n != 0 {
		t.Errorf("the stage store holds %d chunks after the durable commit, want 0", n)
	}
	got, err := c.ReadVersion(ctx, ref, 0, cs)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("snapshot wrong: %v", err)
	}
}

// TestHaltKeepsStagedCapturesAndBalancesRefs: Halt (node death / preemption
// without grace) aborts in-flight uploads through the repository's abort path
// — CAS refcounts must balance exactly — while the staged captures survive in
// the tier for the partner (or a restart in place) to drain.
func TestHaltKeepsStagedCapturesAndBalancesRefs(t *testing.T) {
	g, d, c, m, stage, _ := stageSetup(t)
	before, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.WriteAt(bytes.Repeat([]byte{0xE3}, 4*cs), 0); err != nil {
		t.Fatal(err)
	}
	g.arm(1) // let one body land so the abort has references to return
	pc, err := m.CommitAsyncDetached(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.WaitLocallySafe(ctx); err != nil {
		t.Fatal(err)
	}
	<-g.blocked
	m.Halt()
	<-pc.Done()
	if pc.Err() == nil {
		t.Fatal("halted commit reported success")
	}
	if _, err := m.CommitAsync(ctx); !errors.Is(err, ErrHalted) {
		t.Fatalf("CommitAsync after Halt = %v, want ErrHalted", err)
	}

	// The aborted upload returned every reference it took.
	after, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if after.Refs != before.Refs || after.Chunks != before.Chunks {
		t.Errorf("CAS refs/chunks = %d/%d after Halt, want %d/%d (exact balance)",
			after.Refs, after.Chunks, before.Refs, before.Chunks)
	}
	// The locally-safe capture is still in the tier: the node's loss does not
	// lose the checkpoint.
	if b := stage.OwnerBacklog("vm-0"); b.Checkpoints != 1 || b.Chunks != 4 {
		t.Errorf("stage backlog after Halt = %+v, want the staged capture intact", b)
	}
}

// TestFailedCommitFoldsExactlyOnce is the CommitStats regression test: a
// failed in-memory capture folds into the FIRST queued capture only. Folding
// into every queued capture (or additionally re-marking the chunks dirty)
// would publish — and count — the same write more than once.
func TestFailedCommitFoldsExactlyOnce(t *testing.T) {
	g, _, c, m := asyncSetup(t)
	warm := m.CommitStats()

	// Commit A: chunk 0, wedged on its first upload.
	contentA := bytes.Repeat([]byte{0xA7}, cs)
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

	// Commits B and C queue behind A, each with its own fresh chunk.
	contentB := bytes.Repeat([]byte{0xB8}, cs)
	if _, err := m.WriteAt(contentB, cs); err != nil {
		t.Fatal(err)
	}
	pcB, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	contentC := bytes.Repeat([]byte{0xC9}, cs)
	if _, err := m.WriteAt(contentC, 2*cs); err != nil {
		t.Fatal(err)
	}
	pcC, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cancelA()
	<-pcA.Done()
	if pcA.Err() == nil {
		t.Fatal("wedged commit A did not fail")
	}
	if _, err := pcB.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	refC, err := pcC.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// C's snapshot holds all three writes (A through the fold into B, B and C
	// through the chain).
	for i, want := range [][]byte{contentA, contentB, contentC} {
		got, err := c.ReadVersion(ctx, refC, uint64(i)*cs, cs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d of final snapshot wrong: %v", i, err)
		}
	}
	// A's chunk was absorbed by B, so nothing went back to the dirty set: a
	// further commit would re-publish (and re-count) it otherwise.
	if n := m.DirtyChunks(); n != 0 {
		t.Errorf("DirtyChunks = %d after fold, want 0", n)
	}
	// Exactly three chunk-writes are accounted across B and C: A's folded
	// chunk once (in B), B's own, C's own. The failed commit contributes
	// nothing itself.
	stats := m.CommitStats()
	gotChunks := stats.Chunks - warm.Chunks
	gotLogical := stats.LogicalBytes - warm.LogicalBytes
	if gotChunks != 3 {
		t.Errorf("CommitStats.Chunks delta = %d, want 3 (A folded once + B + C)", gotChunks)
	}
	if gotLogical != 3*cs {
		t.Errorf("CommitStats.LogicalBytes delta = %d, want %d", gotLogical, 3*cs)
	}
}
