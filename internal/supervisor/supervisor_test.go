package supervisor_test

// End-to-end unattended recovery: with the supervisor running, nodes are
// killed (partition + VM crash — the supervisor is never told) and the job
// completes with zero manual Restart calls. One kill lands right after a
// checkpoint initiation, while the async commits may still be publishing.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"blobcr/internal/cloud"
	"blobcr/internal/supervisor"
	"blobcr/internal/vm"
)

var ctx = context.Background()

const e2eChunk = 4096

// harness is one supervised cloud under test.
type harness struct {
	t   *testing.T
	cl  *cloud.Cloud
	sup *supervisor.Supervisor

	cancel context.CancelFunc
	done   chan struct{}
}

// newHarness builds a dedup cloud, deploys instances and starts the
// supervisor loop. Automatic checkpoints are effectively disabled when
// cfg.MinInterval/MaxInterval are long; tests drive CheckpointNow at
// quiescent points for determinism.
func newHarness(t *testing.T, cfg supervisor.Config, nodes, instances int, net *gateNet) *harness {
	t.Helper()
	// Replication 3: a two-failure storm must never take out every replica
	// of a chunk (these tests run without the storage-repair plane, so no
	// re-replication happens between failures; storagerepair_test.go covers
	// the self-healing path).
	ccfg := cloud.Config{Nodes: nodes, MetaProviders: 2, Replication: 3, Seed: 42}
	if net != nil {
		ccfg.Net = net
	}
	cl, err := cloud.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	base, err := cl.UploadBaseImage(ctx, make([]byte, 512*1024), e2eChunk)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cl.Deploy(ctx, instances, base, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	sup := supervisor.New(cl, dep, cfg)
	runCtx, cancel := context.WithCancel(ctx)
	h := &harness{t: t, cl: cl, sup: sup, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sup.Run(runCtx)
	}()
	t.Cleanup(func() {
		cancel()
		<-h.done
	})
	return h
}

// kill crashes a node without telling anyone: its addresses partition and
// its VMs die. Detection is the supervisor's job.
func (h *harness) kill(node *cloud.Node) {
	dep, _ := h.sup.Deployment()
	net := h.cl.Network()
	net.Partition(node.ProxyAddr)
	net.Partition(node.DataAddr)
	for _, inst := range dep.Instances {
		if inst.Node == node {
			inst.VM.Kill()
		}
	}
}

// waitGeneration polls until the supervisor's deployment generation reaches
// want.
func (h *harness) waitGeneration(want int) *cloud.Deployment {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		dep, gen := h.sup.Deployment()
		if gen >= want {
			return dep
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("generation %d not reached (events:\n%s)", want, h.eventDump())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkpointDurable takes a checkpoint and waits until it is the durability
// watermark.
func (h *harness) checkpointDurable() int {
	h.t.Helper()
	id, err := h.sup.CheckpointNow(ctx)
	if err != nil {
		h.t.Fatalf("CheckpointNow: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		dep, _ := h.sup.Deployment()
		if dep.DurableWatermark() >= id {
			return id
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("checkpoint %d never became durable (events:\n%s)", id, h.eventDump())
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *harness) eventDump() string {
	var b strings.Builder
	for _, e := range h.sup.Events().Since(0) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// writeRound records one round of work on every instance: a progress
// counter plus a payload that dirties real chunks.
func writeRound(t *testing.T, dep *cloud.Deployment, round int) {
	t.Helper()
	payload := make([]byte, 16*1024)
	for i := range payload {
		payload[i] = byte(round + i)
	}
	for _, inst := range dep.Instances {
		fs := inst.VM.FS()
		if fs == nil {
			t.Fatalf("%s has no mounted fs (state %s)", inst.VMID, inst.VM.State())
		}
		if err := fs.WriteFile("/progress", []byte(strconv.Itoa(round))); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/data", payload); err != nil {
			t.Fatal(err)
		}
	}
}

// readProgress returns each instance's progress counter.
func readProgress(t *testing.T, dep *cloud.Deployment) []int {
	t.Helper()
	out := make([]int, len(dep.Instances))
	for i, inst := range dep.Instances {
		raw, err := inst.VM.FS().ReadFile("/progress")
		if err != nil {
			t.Fatalf("%s: read progress: %v", inst.VMID, err)
		}
		v, err := strconv.Atoi(string(raw))
		if err != nil {
			t.Fatalf("%s: progress %q", inst.VMID, raw)
		}
		out[i] = v
	}
	return out
}

func TestUnattendedRecoveryEndToEnd(t *testing.T) {
	h := newHarness(t, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    10 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour, // checkpoints driven explicitly at quiescent points
		MaxInterval:    time.Hour,
		BackoffBase:    2 * time.Millisecond,
		PartialRestart: true,
	}, 6, 3, nil)
	const target = 30

	// Phase 1: work, checkpoint at round 10.
	dep, _ := h.sup.Deployment()
	for r := 1; r <= 10; r++ {
		writeRound(t, dep, r)
	}
	h.checkpointDurable()

	// Two rounds that the failure will roll back.
	writeRound(t, dep, 11)
	writeRound(t, dep, 12)

	// First unannounced failure.
	h.kill(dep.Instances[1].Node)
	dep = h.waitGeneration(1)
	for i, p := range readProgress(t, dep) {
		if p != 10 {
			t.Errorf("instance %d resumed at round %d, want 10 (rolled back to the durable checkpoint)", i, p)
		}
	}
	m := h.sup.Metrics()
	if m.Recoveries != 1 || m.FailuresDetected != 1 {
		t.Fatalf("metrics after first failure: %+v", m)
	}
	if m.RedeployedVMs != 1 || m.InPlaceVMs != 2 {
		t.Errorf("partial restart redeployed %d / in-place %d, want 1 / 2", m.RedeployedVMs, m.InPlaceVMs)
	}
	if m.LastMTTR <= 0 {
		t.Error("MTTR not accounted")
	}

	// Phase 2: continue to round 20, checkpoint, then a failure hitting
	// while the next checkpoint's async commits may still be in flight.
	for r := 11; r <= 20; r++ {
		writeRound(t, dep, r)
	}
	h.checkpointDurable()
	writeRound(t, dep, 21)
	if _, err := h.sup.CheckpointNow(ctx); err != nil {
		t.Fatalf("checkpoint before second failure: %v", err)
	}
	// Post-initiation garbage: captured by no checkpoint, must never survive.
	for _, inst := range dep.Instances {
		if err := inst.VM.FS().WriteFile("/junk", []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	h.kill(dep.Instances[2].Node)
	dep = h.waitGeneration(2)
	for i, p := range readProgress(t, dep) {
		// Round 21 survives if the in-flight checkpoint won the race to
		// durability, round 20 otherwise — never anything else, and never
		// the half-published state.
		if p != 20 && p != 21 {
			t.Errorf("instance %d resumed at round %d, want 20 or 21", i, p)
		}
	}
	for _, inst := range dep.Instances {
		if _, err := inst.VM.FS().ReadFile("/junk"); err == nil {
			t.Errorf("%s: post-checkpoint junk survived recovery", inst.VMID)
		}
	}

	// Phase 3: finish the job. Zero manual Restart calls anywhere.
	start := readProgress(t, dep)[0]
	for r := start + 1; r <= target; r++ {
		writeRound(t, dep, r)
	}
	h.checkpointDurable()
	for i, p := range readProgress(t, dep) {
		if p != target {
			t.Errorf("instance %d finished at round %d, want %d", i, p, target)
		}
	}
	m = h.sup.Metrics()
	if m.Recoveries != 2 {
		t.Fatalf("Recoveries = %d, want 2", m.Recoveries)
	}
	if m.MeanMTTR() <= 0 || m.MaxMTTR < m.MeanMTTR() {
		t.Errorf("MTTR accounting inconsistent: %+v", m)
	}

	// The event stream tells the whole story, in order, for each failure.
	var seq []supervisor.EventType
	for _, e := range h.sup.Events().Since(0) {
		switch e.Type {
		case supervisor.EventFailureDetected, supervisor.EventRollbackPlanned, supervisor.EventRestartDone:
			seq = append(seq, e.Type)
		}
	}
	want := []supervisor.EventType{
		supervisor.EventFailureDetected, supervisor.EventRollbackPlanned, supervisor.EventRestartDone,
		supervisor.EventFailureDetected, supervisor.EventRollbackPlanned, supervisor.EventRestartDone,
	}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Errorf("event sequence = %v, want %v\n%s", seq, want, h.eventDump())
	}
}

// TestDalyCadence: left to itself, the supervisor drives periodic
// checkpoints at its computed interval and the durability watermark
// advances without any explicit CheckpointNow.
func TestDalyCadence(t *testing.T) {
	h := newHarness(t, supervisor.Config{
		HeartbeatEvery:  5 * time.Millisecond,
		SuspectAfter:    3,
		MTBF:            time.Minute,
		InitialCkptCost: time.Millisecond,
		MinInterval:     10 * time.Millisecond,
		MaxInterval:     10 * time.Millisecond,
	}, 3, 2, nil)
	deadline := time.Now().Add(15 * time.Second)
	for {
		dep, _ := h.sup.Deployment()
		if dep.DurableWatermark() >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cadence never produced 3 durable checkpoints:\n%s", h.eventDump())
		}
		time.Sleep(time.Millisecond)
	}
	m := h.sup.Metrics()
	if m.CheckpointsDurable < 3 {
		t.Errorf("CheckpointsDurable = %d", m.CheckpointsDurable)
	}
	if m.HeartbeatsSent == 0 {
		t.Error("no heartbeats sent")
	}
	// The interval reflects the observed (tiny) cost against the configured
	// MTBF, clamped into the configured band.
	if iv := h.sup.Interval(); iv != 10*time.Millisecond {
		t.Errorf("Interval = %s, want the 10ms clamp", iv)
	}
}

func TestEventsEndpoint(t *testing.T) {
	h := newHarness(t, supervisor.Config{
		HeartbeatEvery: 5 * time.Millisecond,
		MinInterval:    time.Hour,
		MaxInterval:    time.Hour,
	}, 3, 2, nil)
	h.checkpointDurable()
	srv, err := h.sup.Serve(h.cl.Network(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	lines, err := supervisor.Events(ctx, h.cl.Network(), srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(lines, "\n"), string(supervisor.EventCheckpointDurable)) {
		t.Errorf("event stream lacks the durable checkpoint: %q", lines)
	}
	if len(lines) != len(h.sup.Events().Since(0)) {
		t.Errorf("EVENTS returned %d lines, the log holds %d events", len(lines), len(h.sup.Events().Since(0)))
	}
	later, err := supervisor.Events(ctx, h.cl.Network(), srv.Addr(), 1)
	if err != nil || len(later) != len(lines)-1 {
		t.Errorf("EVENTS since 1: %d lines (%v), want %d", len(later), err, len(lines)-1)
	}

	status, err := supervisor.Status(ctx, h.cl.Network(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "watermark=1") {
		t.Errorf("STATUS = %q, want watermark=1", status)
	}
}

// TestRecoveryRearmsWithoutDurableCheckpoint: a failure that hits before any
// checkpoint is durable has no rollback target, but the supervisor must keep
// starting fresh recovery episodes instead of giving up for good.
func TestRecoveryRearmsWithoutDurableCheckpoint(t *testing.T) {
	h := newHarness(t, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    10 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour,
		MaxInterval:    time.Hour,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond, // episode cadence
	}, 4, 2, nil)
	dep, _ := h.sup.Deployment()
	h.kill(dep.Instances[0].Node)

	// At least two distinct recovery-failed episodes fire: the first on
	// detection, later ones from the re-armed loop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		for _, e := range h.sup.Events().Since(0) {
			if e.Type == supervisor.EventRecoveryFailed {
				n++
			}
		}
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery episodes did not re-arm without a durable checkpoint:\n%s", h.eventDump())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProviderOnlyNodeRetiredWithoutRollback: a node that hosts no member —
// only its co-located data provider — dies. The supervisor must detect it
// (heartbeats cover every node, not just instance hosts), retire it from
// placement and the provider rotation, and leave the running job alone.
func TestProviderOnlyNodeRetiredWithoutRollback(t *testing.T) {
	h := newHarness(t, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    10 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour,
		MaxInterval:    time.Hour,
	}, 5, 2, nil)
	dep, _ := h.sup.Deployment()
	h.checkpointDurable()

	// Find a node hosting no instance and crash it.
	hosting := map[string]bool{}
	for _, inst := range dep.Instances {
		hosting[inst.Node.Name] = true
	}
	var spare *cloud.Node
	for _, n := range h.cl.Nodes() {
		if !hosting[n.Name] {
			spare = n
			break
		}
	}
	if spare == nil {
		t.Fatal("no provider-only node in the topology")
	}
	h.kill(spare)

	deadline := time.Now().Add(10 * time.Second)
	for {
		retired := false
		for _, e := range h.sup.Events().Since(0) {
			if e.Type == supervisor.EventNodeRetired && e.Node == spare.Name {
				retired = true
			}
		}
		if retired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("provider-only node never retired:\n%s", h.eventDump())
		}
		time.Sleep(time.Millisecond)
	}
	// No rollback happened: same generation, job untouched, and the cloud
	// marked the node failed (placement + prune skip it).
	if _, gen := h.sup.Deployment(); gen != 0 {
		t.Fatalf("provider-only failure triggered a restart (gen %d)", gen)
	}
	if !spare.Failed() {
		t.Error("dead provider node not fail-stopped with the middleware")
	}
	if h.sup.Metrics().Recoveries != 0 {
		t.Error("recovery counted for a provider-only failure")
	}
	// The deployment still checkpoints durably and can be pruned (the sweep
	// skips the dead provider).
	id := h.checkpointDurable()
	d, _ := h.sup.Deployment()
	if _, err := h.cl.Prune(ctx, d, id); err != nil {
		t.Fatalf("prune with a dead provider-only node: %v", err)
	}
}
