package cloud

import (
	"bytes"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/seglog"
	"blobcr/internal/vm"
)

func newTierCloud(t *testing.T, nodes int) *Cloud {
	t.Helper()
	c, err := New(Config{Nodes: nodes, MetaProviders: 2, Replication: 2, Seed: 1, LocalTier: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLocalTierCrashDuringDrainPartnerCompletes is the single-node-loss
// acceptance test: a checkpoint acknowledged locally safe is wedged mid-drain
// (remote plane unreachable), the owner node is killed, and the partner's
// replica must still publish it — the global watermark advances and the
// aborted drain attempts leak no CAS references. Run with -race.
func TestLocalTierCrashDuringDrainPartnerCompletes(t *testing.T) {
	c := newTierCloud(t, 3)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	owner := inst.Node

	// Warm checkpoint: clone + first commit drain fully through the tier.
	inst.VM.FS().WriteFile("/state", []byte("warm"))
	warmRef, err := inst.Proxy.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecordCheckpoint(dep, map[string]SnapshotRef{inst.VMID: warmRef}); err != nil {
		t.Fatal(err)
	}
	// The providers that survive the owner's death; CAS balance is asserted
	// over this stable subset.
	live := make([]string, 0, len(c.Repository().DataAddrs))
	for _, addr := range c.Repository().DataAddrs {
		if addr != owner.DataAddr {
			live = append(live, addr)
		}
	}
	beforeLive, err := c.Client().CasStats(ctx, live)
	if err != nil {
		t.Fatal(err)
	}

	// Starve the remote plane: every data provider unreachable. Staging and
	// partner replication use proxy addresses and are unaffected.
	for _, addr := range c.Repository().DataAddrs {
		c.Network().Partition(addr)
	}

	inst.VM.FS().WriteFile("/state", []byte("locally safe only"))
	handle, err := inst.Proxy.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := inst.Proxy.WaitCheckpointLocal(ctx, handle)
	if err != nil {
		t.Fatalf("checkpoint did not reach local safety with the remote plane down: %v", err)
	}
	id := c.RecordPendingCheckpoint(dep)
	if err := dep.MarkLocallySafe(id); err != nil {
		t.Fatal(err)
	}
	if dep.LocalWatermark() != id || dep.DurableWatermark() == id {
		t.Fatalf("watermarks: local=%d durable=%d, want local=%d durable<%d",
			dep.LocalWatermark(), dep.DurableWatermark(), id, id)
	}

	// The owner node dies mid-drain (its drain is stuck retrying against the
	// partitioned providers).
	if err := c.FailNode(ctx, owner.Name); err != nil {
		t.Fatal(err)
	}
	dead := c.KillDeploymentInstancesOn(dep)
	if len(dead) != 1 {
		t.Fatalf("killed %v, want the one member", dead)
	}

	// Remote plane back (minus the dead node's provider): the aborted drain
	// attempts must have returned every CAS reference they took.
	for _, addr := range live {
		c.Network().Heal(addr)
	}
	afterAbort, err := c.Client().CasStats(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if afterAbort.Refs != beforeLive.Refs || afterAbort.Chunks != beforeLive.Chunks {
		t.Errorf("aborted drain leaked CAS state: refs %d->%d chunks %d->%d",
			beforeLive.Refs, afterAbort.Refs, beforeLive.Chunks, afterAbort.Chunks)
	}

	// The partner drains the dead node's replica on its behalf.
	ref, err := proxy.DrainFor(ctx, c.Network(), owner.PartnerAddr, inst.VMID, seq)
	if err != nil {
		t.Fatalf("partner drain: %v", err)
	}
	if err := dep.ResolveSnapshot(id, inst.VMID, ref); err != nil {
		t.Fatal(err)
	}
	if err := dep.MarkDurable(id); err != nil {
		t.Fatal(err)
	}
	if dep.DurableWatermark() != id {
		t.Fatalf("durable watermark = %d after partner drain, want %d", dep.DurableWatermark(), id)
	}

	// Rolling back to the promoted checkpoint really restores the
	// locally-safe-only state: a single node loss lost nothing.
	newDep, err := c.Restart(ctx, dep, id)
	if err != nil {
		t.Fatalf("restart from promoted checkpoint: %v", err)
	}
	got, err := newDep.Instances[0].VM.FS().ReadFile("/state")
	if err != nil || string(got) != "locally safe only" {
		t.Fatalf("restarted /state = %q, %v; want the locally-safe-only write", got, err)
	}

	// Exactness: draining again is a no-op (the drain memo dedups), so the
	// reference counts are stable — nothing leaked, nothing double-published.
	afterDrain, err := c.Client().CasStats(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if ref2, err := proxy.DrainFor(ctx, c.Network(), owner.PartnerAddr, inst.VMID, seq); err != nil || ref2 != ref {
		t.Fatalf("second DrainFor = %v, %v; want %v, nil", ref2, err, ref)
	}
	again, err := c.Client().CasStats(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if again.Refs != afterDrain.Refs || again.Chunks != afterDrain.Chunks {
		t.Errorf("repeated drain changed CAS state: refs %d->%d chunks %d->%d",
			afterDrain.Refs, again.Refs, afterDrain.Chunks, again.Chunks)
	}
	if afterDrain.Refs <= afterAbort.Refs {
		t.Errorf("partner drain published nothing: refs %d -> %d", afterAbort.Refs, afterDrain.Refs)
	}
}

// TestLocalTierRestartInPlaceDrainsOwnTier covers the healthy-node variant:
// the member's module is halted (the VM died) but the node survives, so
// DRAINFOR against the node itself publishes from the node's own tier.
func TestLocalTierRestartInPlaceDrainsOwnTier(t *testing.T) {
	c := newTierCloud(t, 2)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]

	inst.VM.FS().WriteFile("/state", []byte("staged at home"))
	for _, addr := range c.Repository().DataAddrs {
		c.Network().Partition(addr)
	}
	handle, err := inst.Proxy.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := inst.Proxy.WaitCheckpointLocal(ctx, handle)
	if err != nil {
		t.Fatal(err)
	}
	// The VM dies but the node does not: halt the module in place.
	inst.VM.Kill()
	inst.Mirror.Halt()
	for _, addr := range c.Repository().DataAddrs {
		c.Network().Heal(addr)
	}
	ref, err := proxy.DrainFor(ctx, c.Network(), inst.Node.ProxyAddr, inst.VMID, seq)
	if err != nil {
		t.Fatalf("restart-in-place drain: %v", err)
	}
	id := c.RecordPendingCheckpoint(dep)
	if err := dep.ResolveSnapshot(id, inst.VMID, ref); err != nil {
		t.Fatal(err)
	}
	if err := dep.MarkDurable(id); err != nil {
		t.Fatal(err)
	}
	newDep, err := c.Restart(ctx, dep, id)
	if err != nil {
		t.Fatalf("restart from own-tier drained checkpoint: %v", err)
	}
	got, err := newDep.Instances[0].VM.FS().ReadFile("/state")
	if err != nil || string(got) != "staged at home" {
		t.Fatalf("restarted /state = %q, %v", got, err)
	}
	// The node's own backlog for the owner is clear after the drain.
	own, _, err := proxy.Backlog(ctx, c.Network(), inst.Node.ProxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	if own.Checkpoints != 0 {
		t.Errorf("own backlog after drain = %+v, want empty", own)
	}
}

// TestLocalTierStatusSurfacesBacklog: the proxy's STATUS reply carries the
// owner's staged backlog while the drain is wedged.
func TestLocalTierStatusSurfacesBacklog(t *testing.T) {
	c := newTierCloud(t, 2)
	base := uploadBase(t, c, 128*1024)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inst := dep.Instances[0]
	for _, addr := range c.Repository().DataAddrs {
		c.Network().Partition(addr)
	}
	defer func() {
		for _, addr := range c.Repository().DataAddrs {
			c.Network().Heal(addr)
		}
	}()
	inst.VM.FS().WriteFile("/state", []byte("backlogged"))
	handle, err := inst.Proxy.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Proxy.WaitCheckpointLocal(ctx, handle); err != nil {
		t.Fatal(err)
	}
	staged, err := inst.Proxy.Staged(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if staged.Checkpoints != 1 || staged.Chunks == 0 || staged.Bytes == 0 {
		t.Errorf("STATUS staged = %+v, want the one wedged capture", staged)
	}
	if state, _, _, err := inst.Proxy.Status(ctx); err != nil || state != "running" {
		t.Errorf("Client.Status beside a staged backlog: %q, %v", state, err)
	}
	own, partner, err := proxy.Backlog(ctx, c.Network(), inst.Node.ProxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	if own.Checkpoints == 0 {
		t.Errorf("own backlog = %+v, want the wedged capture", own)
	}
	if partner.Checkpoints != 0 {
		t.Errorf("partner backlog = %+v on the staging node, want empty", partner)
	}
}

// TestTieredCaptureSyncBudget: with the local tier on seglog, a checkpoint's
// locally-safe ack costs each node at most two fdatasyncs — the owner stages
// the capture as one batch, its partner stages the replica as one batch —
// however many chunks the capture holds, read from the engines' own
// EngineStats. One sync per staged chunk per copy was the price before.
func TestTieredCaptureSyncBudget(t *testing.T) {
	var stages []chunkstore.Store
	inner := blobseer.SeglogStores(t.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true})
	c, err := New(Config{Nodes: 3, MetaProviders: 2, Seed: 1, LocalTier: true, StageStores: func(i int) (chunkstore.Store, error) {
		s, err := inner(i)
		stages = append(stages, s)
		return s, err
	}})
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
	// A warm checkpoint drains fully, so the clone exists and nothing is
	// staged; then the remote plane goes dark, so the measured capture's
	// drain cannot add its tombstones to the count.
	inst.VM.FS().WriteFile("/state", []byte("warm"))
	if _, err := inst.Proxy.RequestCheckpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for _, addr := range c.Repository().DataAddrs {
		c.Network().Partition(addr)
	}
	fsyncs := func() []uint64 {
		out := make([]uint64, len(stages))
		for i, s := range stages {
			out[i] = chunkstore.StatsOf(s).Field("fsyncs")
		}
		return out
	}
	before := fsyncs()
	inst.VM.FS().WriteFile("/big", bytes.Repeat([]byte("sixteen dirty chunks at least. "), 4096))
	handle, err := inst.Proxy.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Proxy.WaitCheckpointLocal(ctx, handle); err != nil {
		t.Fatalf("checkpoint did not reach local safety: %v", err)
	}
	own, _, err := proxy.Backlog(ctx, c.Network(), inst.Node.ProxyAddr)
	if err != nil || own.Chunks < 16 {
		t.Fatalf("staged %d chunks (err %v), want a capture of 16 or more", own.Chunks, err)
	}
	total := uint64(0)
	for i, after := range fsyncs() {
		if d := after - before[i]; d > 2 {
			t.Errorf("node %d: %d fdatasyncs for one capture of %d chunks, budget 2", i, d, own.Chunks)
		} else {
			total += d
		}
	}
	if total < 2 {
		t.Errorf("%d fdatasyncs in all: the capture and its replica must each be durable", total)
	}
}
