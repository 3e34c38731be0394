package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"blobcr/internal/repair"
	"blobcr/internal/vm"
)

// ctx is the default context for test operations.
var ctx = context.Background()

const chunkSize = 512

func newCloud(t *testing.T, nodes int) *Cloud {
	t.Helper()
	c, err := New(Config{Nodes: nodes, MetaProviders: 2, Replication: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func uploadBase(t *testing.T, c *Cloud, size int) SnapshotRef {
	t.Helper()
	base, err := c.UploadBaseImage(ctx, make([]byte, size), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func TestDeployMultipleInstances(t *testing.T) {
	c := newCloud(t, 4)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 4, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Instances) != 4 {
		t.Fatalf("deployed %d instances", len(dep.Instances))
	}
	nodesUsed := map[string]bool{}
	for _, inst := range dep.Instances {
		if inst.VM.State() != vm.Running {
			t.Errorf("%s not running", inst.VMID)
		}
		nodesUsed[inst.Node.Name] = true
	}
	if len(nodesUsed) != 4 {
		t.Errorf("instances placed on %d nodes, want 4 (round-robin)", len(nodesUsed))
	}
}

func TestInstancesAreIndependent(t *testing.T) {
	c := newCloud(t, 2)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 2, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Each instance writes its own file; the other must not see it.
	dep.Instances[0].VM.FS().WriteFile("/mine", []byte("zero"))
	dep.Instances[1].VM.FS().WriteFile("/mine", []byte("one"))
	got0, _ := dep.Instances[0].VM.FS().ReadFile("/mine")
	got1, _ := dep.Instances[1].VM.FS().ReadFile("/mine")
	if string(got0) != "zero" || string(got1) != "one" {
		t.Error("instance disks are not isolated")
	}
}

func TestCheckpointViaProxyAndRecord(t *testing.T) {
	c := newCloud(t, 3)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 3, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make(map[string]SnapshotRef)
	for i, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/state", []byte(fmt.Sprintf("rank %d", i)))
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatalf("%s checkpoint: %v", inst.VMID, err)
		}
		snaps[inst.VMID] = ref
	}
	id, err := c.RecordCheckpoint(dep, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("checkpoint id = %d", id)
	}
	got, ok := dep.LatestCheckpoint()
	if !ok || got.ID != 1 || len(got.Snapshots) != 3 {
		t.Errorf("LatestCheckpoint = %+v, %v", got, ok)
	}
}

func TestRecordCheckpointRejectsIncomplete(t *testing.T) {
	c := newCloud(t, 2)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 2, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RecordCheckpoint(dep, map[string]SnapshotRef{
		dep.Instances[0].VMID: {Blob: 1, Version: 0},
	})
	if err == nil {
		t.Error("incomplete checkpoint recorded")
	}
}

func TestFailureAndRestartRollsBack(t *testing.T) {
	c := newCloud(t, 4)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 2, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}

	// Each instance writes state and checkpoints.
	snaps := make(map[string]SnapshotRef)
	for i, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte(fmt.Sprintf("iter-100-rank-%d", i)))
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		snaps[inst.VMID] = ref
	}
	ckptID, err := c.RecordCheckpoint(dep, snaps)
	if err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint work that will be lost (and file writes that must be
	// rolled back — the paper's key I/O rollback property).
	for _, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte("iter-150-dirty"))
		inst.VM.FS().WriteFile("/garbage.log", []byte("lines after the checkpoint"))
	}

	// Fail the node hosting instance 0.
	failedNode := dep.Instances[0].Node.Name
	if err := c.FailNode(ctx, failedNode); err != nil {
		t.Fatal(err)
	}
	dead := c.KillDeploymentInstancesOn(dep)
	if len(dead) != 1 {
		t.Fatalf("killed %v", dead)
	}

	// Restart from the recorded checkpoint.
	newDep, err := c.Restart(ctx, dep, ckptID)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	for i, inst := range newDep.Instances {
		if inst.Node.Name == failedNode {
			t.Errorf("%s placed on failed node", inst.VMID)
		}
		if inst.VM.State() != vm.Running {
			t.Errorf("%s not running after restart", inst.VMID)
		}
		got, err := inst.VM.FS().ReadFile("/progress")
		if err != nil {
			t.Fatalf("%s: %v", inst.VMID, err)
		}
		want := fmt.Sprintf("iter-100-rank-%d", i)
		if string(got) != want {
			t.Errorf("%s progress = %q, want %q (rollback failed)", inst.VMID, got, want)
		}
		// The post-checkpoint file must be gone: I/O rollback.
		if _, err := inst.VM.FS().ReadFile("/garbage.log"); err == nil {
			t.Errorf("%s: post-checkpoint file survived the rollback", inst.VMID)
		}
	}
}

func TestRestartUnknownCheckpoint(t *testing.T) {
	c := newCloud(t, 2)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(ctx, dep, 99); err == nil {
		t.Error("restart from unknown checkpoint succeeded")
	}
}

func TestCheckpointAfterRestartContinues(t *testing.T) {
	c := newCloud(t, 3)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	inst.VM.FS().WriteFile("/s", []byte("v1"))
	ref, err := inst.Proxy.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckptID, err := c.RecordCheckpoint(dep, map[string]SnapshotRef{inst.VMID: ref})
	if err != nil {
		t.Fatal(err)
	}
	newDep, err := c.Restart(ctx, dep, ckptID)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := newDep.Instances[0]
	inst2.VM.FS().WriteFile("/s", []byte("v2"))
	ref2, err := inst2.Proxy.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatalf("checkpoint after restart: %v", err)
	}
	if ref2.Blob != ref.Blob {
		t.Errorf("restarted instance checkpoints into new image %d (was %d)", ref2.Blob, ref.Blob)
	}
	if ref2.Version <= ref.Version {
		t.Errorf("version did not advance: %d then %d", ref.Version, ref2.Version)
	}
	// Both snapshots readable.
	cl := c.Client()
	s1, err := cl.ReadVersion(ctx, ref, 0, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cl.ReadVersion(ctx, ref2, 0, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(s1, []byte("v1")) || !bytes.Contains(s2, []byte("v2")) {
		t.Error("snapshot contents wrong")
	}
}

func TestPruneReclaimsOldCheckpoints(t *testing.T) {
	c := newCloud(t, 2)
	base := uploadBase(t, c, 256*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	var lastID int
	for i := 0; i < 4; i++ {
		// Dirty a good amount of data each round so retired versions hold
		// exclusive chunks.
		data := bytes.Repeat([]byte{byte(i + 1)}, 64*1024)
		inst.VM.FS().WriteFile("/state", data)
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lastID, err = c.RecordCheckpoint(dep, map[string]SnapshotRef{inst.VMID: ref})
		if err != nil {
			t.Fatal(err)
		}
	}
	cl := c.Client()
	_, chunksBefore, err := cl.Usage(ctx, c.Repository().DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Prune(ctx, dep, lastID)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if stats.DeletedChunks == 0 {
		t.Error("Prune reclaimed nothing")
	}
	_, chunksAfter, err := cl.Usage(ctx, c.Repository().DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfter >= chunksBefore {
		t.Errorf("chunks %d -> %d after prune", chunksBefore, chunksAfter)
	}
	// The kept checkpoint must still be restorable.
	if _, err := c.Restart(ctx, dep, lastID); err != nil {
		t.Fatalf("restart after prune: %v", err)
	}
}

func TestReplicationSurvivesNodeLoss(t *testing.T) {
	// With replication 2, losing one node's data provider must not make
	// snapshots unreadable.
	c := newCloud(t, 4)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	inst.VM.FS().WriteFile("/important", []byte("replicated state"))
	ref, err := inst.Proxy.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckptID, err := c.RecordCheckpoint(dep, map[string]SnapshotRef{inst.VMID: ref})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the instance's own node (its data provider had replicas too).
	if err := c.FailNode(ctx, inst.Node.Name); err != nil {
		t.Fatal(err)
	}
	c.KillDeploymentInstancesOn(dep)
	newDep, err := c.Restart(ctx, dep, ckptID)
	if err != nil {
		t.Fatalf("restart with one data provider lost: %v", err)
	}
	got, err := newDep.Instances[0].VM.FS().ReadFile("/important")
	if err != nil || string(got) != "replicated state" {
		t.Errorf("state after node loss: %q, %v", got, err)
	}
}

func TestDurabilityWatermark(t *testing.T) {
	c := newCloud(t, 3)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 2, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if dep.DurableWatermark() != 0 {
		t.Errorf("fresh deployment watermark = %d", dep.DurableWatermark())
	}

	// A provisional checkpoint is recorded but refused as a rollback target
	// until every member resolves.
	id := c.RecordPendingCheckpoint(dep)
	if _, err := c.Restart(ctx, dep, id); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Restart to pending checkpoint: %v, want ErrNotDurable", err)
	}
	if _, _, err := c.PartialRestart(ctx, dep, id); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("PartialRestart to pending checkpoint: %v, want ErrNotDurable", err)
	}
	if err := dep.MarkDurable(id); !errors.Is(err, ErrIncompleteCkpt) {
		t.Fatalf("MarkDurable with unresolved members: %v, want ErrIncompleteCkpt", err)
	}

	// Resolve the members (with real published snapshots) and promote.
	for _, inst := range dep.Instances {
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.ResolveSnapshot(id, inst.VMID, ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := dep.MarkDurable(id); err != nil {
		t.Fatal(err)
	}
	if dep.DurableWatermark() != id {
		t.Errorf("watermark = %d, want %d", dep.DurableWatermark(), id)
	}
	if _, err := c.Restart(ctx, dep, id); err != nil {
		t.Fatalf("Restart to durable checkpoint: %v", err)
	}

	// The watermark skips over a newer still-pending checkpoint.
	id2 := c.RecordPendingCheckpoint(dep)
	if dep.DurableWatermark() != id {
		t.Errorf("watermark advanced to pending checkpoint %d", id2)
	}
	cp, ok := dep.LatestDurableCheckpoint()
	if !ok || cp.ID != id {
		t.Errorf("LatestDurableCheckpoint = %+v, %v", cp, ok)
	}
}

func TestPartialRestartRedeploysOnlyFailedMembers(t *testing.T) {
	c := newCloud(t, 4)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 3, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make(map[string]SnapshotRef)
	for i, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte(fmt.Sprintf("ckpt-rank-%d", i)))
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		snaps[inst.VMID] = ref
	}
	ckptID, err := c.RecordCheckpoint(dep, snaps)
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint damage everywhere, then one node dies.
	for _, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte("dirty"))
		inst.VM.FS().WriteFile("/junk", []byte("post-checkpoint"))
	}
	victim := dep.Instances[1].Node
	if err := c.FailNode(ctx, victim.Name); err != nil {
		t.Fatal(err)
	}
	c.KillDeploymentInstancesOn(dep)

	healthy0 := dep.Instances[0]
	newDep, stats, err := c.PartialRestart(ctx, dep, ckptID)
	if err != nil {
		t.Fatalf("PartialRestart: %v", err)
	}
	if stats.Redeployed != 1 || stats.InPlace != 2 {
		t.Errorf("stats = %+v, want 1 redeployed / 2 in place", stats)
	}
	for i, inst := range newDep.Instances {
		if inst.VM.State() != vm.Running {
			t.Errorf("%s not running", inst.VMID)
		}
		if i != 1 {
			// Healthy members keep their node, instance and proxy binding.
			if inst != dep.Instances[i] {
				t.Errorf("healthy member %d was replaced", i)
			}
		} else {
			if inst.Node == victim {
				t.Error("failed member redeployed on its dead node")
			}
			if inst == dep.Instances[i] {
				t.Error("failed member not redeployed")
			}
		}
		got, err := inst.VM.FS().ReadFile("/progress")
		if err != nil || string(got) != fmt.Sprintf("ckpt-rank-%d", i) {
			t.Errorf("%s progress after partial restart = %q, %v", inst.VMID, got, err)
		}
		if _, err := inst.VM.FS().ReadFile("/junk"); err == nil {
			t.Errorf("%s: post-checkpoint file survived the in-place rollback", inst.VMID)
		}
	}
	if newDep.Instances[0].Node != healthy0.Node {
		t.Error("in-place member changed node")
	}

	// The partially restarted deployment checkpoints and fully restarts fine.
	snaps2 := make(map[string]SnapshotRef)
	for _, inst := range newDep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte("after"))
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatalf("%s checkpoint after partial restart: %v", inst.VMID, err)
		}
		snaps2[inst.VMID] = ref
	}
	id2, err := c.RecordCheckpoint(newDep, snaps2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(ctx, newDep, id2); err != nil {
		t.Fatalf("full restart after partial restart: %v", err)
	}
}

// TestPruneSweepsCurrentMembership: the mark-and-sweep prune follows the
// repository's live membership — a provider decommissioned after deploy is
// skipped even once it goes dark, and a provider that JOINed after deploy is
// swept — instead of the deploy-time node snapshot.
func TestPruneSweepsCurrentMembership(t *testing.T) {
	c, err := New(Config{Nodes: 3, MetaProviders: 2, Replication: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	checkpoint := func(i int) int {
		t.Helper()
		inst.VM.FS().WriteFile("/state", bytes.Repeat([]byte{byte(i + 1)}, 32*1024))
		ref, err := inst.Proxy.RequestCheckpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.RecordCheckpoint(dep, map[string]SnapshotRef{inst.VMID: ref})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for i := 0; i < 3; i++ {
		checkpoint(i)
	}

	// Decommission a non-hosting node's provider and take it dark, then
	// JOIN a fresh node.
	var victim *Node
	for _, n := range c.Nodes() {
		if n != inst.Node {
			victim = n
			break
		}
	}
	r := repair.New(repair.Config{Client: c.Client()})
	if _, err := r.Drain(ctx, victim.DataAddr); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Network().Partition(victim.DataAddr)
	if _, err := c.AddNode(ctx); err != nil {
		t.Fatal(err)
	}

	// More checkpoints land on the membership that now includes the joined
	// provider; prune must sweep it and skip the dark decommissioned one.
	lastID := checkpoint(3)
	stats, err := c.Prune(ctx, dep, lastID)
	if err != nil {
		t.Fatalf("Prune across churned membership: %v", err)
	}
	if stats.LiveChunks == 0 {
		t.Error("prune marked nothing live")
	}
	if _, err := c.Restart(ctx, dep, lastID); err != nil {
		t.Fatalf("restart after prune: %v", err)
	}
}
