package proxy

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

const cs = 512

// ctx is the default context for test operations.
var ctx = context.Background()

// env is a single-node test environment: repository, base image, one VM
// with mirroring module, and a proxy.
type env struct {
	net    *transport.InProc
	client *blobseer.Client
	inst   *vm.Instance
	mod    *mirror.Module
	proxy  *Proxy
	pc     *Client
}

func setup(t testing.TB) *env {
	t.Helper()
	net := transport.NewInProc()
	d, err := blobseer.Deploy(net, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()

	// Base image: a formatted blank disk uploaded to the repository.
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteAt(ctx, base, 0, make([]byte, 256*1024))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mirror.Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("vm-1", mod, vm.Config{BootNoiseBytes: 8192, BlockSize: 512})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}

	p := New()
	p.Register("vm-1", "secret", inst, mod)
	srv, err := p.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	return &env{
		net:    net,
		client: c,
		inst:   inst,
		mod:    mod,
		proxy:  p,
		pc:     &Client{Net: net, Addr: srv.Addr(), VMID: "vm-1", Token: "secret"},
	}
}

func TestCheckpointHappyPath(t *testing.T) {
	e := setup(t)
	// Guest writes some state.
	if err := e.inst.FS().WriteFile("/state", []byte("app state")); err != nil {
		t.Fatal(err)
	}
	ref, err := e.pc.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatalf("RequestCheckpoint: %v", err)
	}
	if ref.Blob == 0 {
		t.Error("no checkpoint blob id")
	}
	// The instance is running again afterwards.
	if e.inst.State() != vm.Running {
		t.Errorf("state after checkpoint = %v", e.inst.State())
	}
	// The snapshot is a consistent disk image containing the state file.
	snapData, err := e.client.ReadVersion(ctx, ref, 0, uint64(e.mod.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snapData, []byte("app state")) {
		t.Error("snapshot does not contain the guest's file")
	}
}

// TestCheckpointResumesBeforeUpload is the headline property of the async
// redesign: the CHECKPOINT verb brings the VM back to Running even though
// the commit is still in flight behind the returned handle. Once it is
// done, the proxy's metrics show every commit stage and the suspend window
// it went through.
func TestCheckpointResumesBeforeUpload(t *testing.T) {
	e := setup(t)
	e.proxy.Obs = obs.NewRegistry()
	if err := e.inst.FS().WriteFile("/state", []byte("async state")); err != nil {
		t.Fatal(err)
	}
	handle, err := e.pc.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e.inst.State() != vm.Running {
		t.Fatalf("instance %v right after async checkpoint, want running", e.inst.State())
	}
	// POLL until done, then WAIT returns the same snapshot.
	var ref blobseer.SnapshotRef
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, done, err := e.pc.PollCheckpoint(ctx, handle)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			ref = r
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never completed")
		}
		time.Sleep(time.Millisecond)
	}
	wref, err := e.pc.WaitCheckpoint(ctx, handle)
	if err != nil {
		t.Fatal(err)
	}
	if wref != ref {
		t.Errorf("WAIT ref %v != POLL ref %v", wref, ref)
	}
	snapData, err := e.client.ReadVersion(ctx, ref, 0, uint64(e.mod.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snapData, []byte("async state")) {
		t.Error("async snapshot does not contain the guest's file")
	}

	// Scrape the proxy over the wire as an operator would: a silent
	// instrumentation regression must fail here, not only on a dashboard.
	points, err := transport.Metrics(ctx, e.net, e.pc.Addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range obs.CommitStages {
		if p := obs.Find(points, "span_ns", obs.L("span", stage)); p == nil || p.Count == 0 {
			t.Errorf("metrics show no %q spans", stage)
		}
	}
	if p := obs.Find(points, "proxy_suspend_ns"); p == nil || p.Count == 0 {
		t.Error("metrics show no suspend window")
	}
}

func TestWaitUnknownHandle(t *testing.T) {
	e := setup(t)
	if _, err := e.pc.WaitCheckpoint(ctx, 999); err == nil {
		t.Error("WAIT on unknown handle succeeded")
	}
	if _, _, err := e.pc.PollCheckpoint(ctx, 999); err == nil {
		t.Error("POLL on unknown handle succeeded")
	}
}

func TestSuccessiveCheckpointsBumpVersion(t *testing.T) {
	e := setup(t)
	ref1, err := e.pc.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.inst.FS().WriteFile("/more", []byte("x"))
	ref2, err := e.pc.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ref2.Version <= ref1.Version {
		t.Errorf("versions not monotonic: %d then %d", ref1.Version, ref2.Version)
	}
	blob1, _ := e.mod.CheckpointImage()
	if blob1 != ref2.Blob {
		t.Error("successive checkpoints used different images")
	}
}

func TestAuthRequired(t *testing.T) {
	e := setup(t)
	bad := &Client{Net: e.pc.Net, Addr: e.pc.Addr, VMID: "vm-1", Token: "wrong"}
	if _, err := bad.RequestCheckpoint(ctx); err == nil {
		t.Error("wrong token accepted")
	} else if !strings.Contains(err.Error(), "authentication") {
		t.Errorf("unexpected error: %v", err)
	}
	unknown := &Client{Net: e.pc.Net, Addr: e.pc.Addr, VMID: "nope", Token: "secret"}
	if _, err := unknown.RequestCheckpoint(ctx); err == nil {
		t.Error("unknown VM accepted")
	}
}

func TestStatus(t *testing.T) {
	e := setup(t)
	state, dirty, _, err := e.pc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if state != "running" {
		t.Errorf("state = %q", state)
	}
	if dirty == 0 {
		t.Error("boot noise produced no dirty chunks")
	}
	if _, err := e.pc.RequestCheckpoint(ctx); err != nil {
		t.Fatal(err)
	}
	_, dirty, pending, err := e.pc.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Errorf("dirty after checkpoint = %d", dirty)
	}
	if pending != 0 {
		t.Errorf("pending commits after waited checkpoint = %d", pending)
	}
}

// TestMalformedRequests: a request frame that is empty, names no proxy op,
// stops short of its fields or runs past them is refused whole with a
// handler error — the caller sees a *transport.RemoteError, and the
// instance it names is not touched.
func TestMalformedRequests(t *testing.T) {
	e := setup(t)
	checkpoint := request{op: opCheckpoint, vm: "vm-1", token: "secret"}.encode()
	wait := request{op: opWait, vm: "vm-1", token: "secret", arg: 1}.encode()
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{0xCF}},
		{"CHECKPOINT without its token", checkpoint[:len(checkpoint)-len("secret")-1]},
		{"CHECKPOINT with a trailing byte", append(bytes.Clone(checkpoint), 0)},
		{"WAIT without its handle", wait[:len(wait)-8]},
		{"STATUS with a handle", append([]byte{opStatus}, wait[1:]...)},
		{"PING with an argument", []byte{opPing, 0}},
	} {
		_, err := e.net.Call(ctx, e.pc.Addr, tc.req)
		var re *transport.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want a remote error", tc.name, err)
		}
	}
	if state, dirty, pending, err := e.pc.Status(ctx); err != nil || state != "running" || dirty == 0 || pending != 0 {
		t.Errorf("instance after the refused requests: %s, %d dirty, %d pending, %v", state, dirty, pending, err)
	}
}

func TestCheckpointResumesOnFailure(t *testing.T) {
	e := setup(t)
	// Make the commit fail by partitioning the whole repository.
	for _, b := range []string{e.client.VMAddr, e.client.PMAddr} {
		e.net.Partition(b)
	}
	_, err := e.pc.RequestCheckpoint(ctx)
	if err == nil {
		t.Fatal("checkpoint with repository down succeeded")
	}
	// The crucial guarantee: the instance is running again.
	if e.inst.State() != vm.Running {
		t.Errorf("instance left %v after failed checkpoint", e.inst.State())
	}
}

func TestUnregister(t *testing.T) {
	e := setup(t)
	e.proxy.Unregister("vm-1")
	if _, err := e.pc.RequestCheckpoint(ctx); err == nil {
		t.Error("checkpoint of unregistered VM succeeded")
	}
}

func TestPingLiveness(t *testing.T) {
	e := setup(t)
	n, err := Ping(ctx, e.net, e.pc.Addr)
	if err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if n != 1 {
		t.Errorf("Ping reports %d instances, want 1", n)
	}
	// PING needs no token and does not touch the instance.
	if got := e.inst.State(); got != vm.Running {
		t.Errorf("instance %s after ping", got)
	}
	// A partitioned proxy fails the probe with the transport error.
	e.net.Partition(e.pc.Addr)
	if _, err := Ping(ctx, e.net, e.pc.Addr); err == nil {
		t.Fatal("ping to partitioned proxy succeeded")
	}
	e.net.Heal(e.pc.Addr)
	if _, err := Ping(ctx, e.net, e.pc.Addr); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
}

// TestPrefetchWarmsLocalCache: a second instance attaching the same base
// finds what the first one's boot faulted in already local — Attach replays
// the image's published boot-set hint (adaptive prefetching on restart) — and
// the PREFETCH verb pages any further chunks into the mirroring module's
// local cache, so subsequent device reads of either hit locally.
func TestPrefetchWarmsLocalCache(t *testing.T) {
	e := setup(t)
	// The first instance's boot demand-faulted its chunks; its publisher
	// puts that record as the base's hint off the guest's path.
	base := e.mod.Source()
	booted, _, _ := e.mod.Stats()
	if booted == 0 {
		t.Fatal("first instance's boot faulted nothing")
	}
	var hint []uint64
	for deadline := time.Now().Add(10 * time.Second); uint64(len(hint)) != booted; time.Sleep(time.Millisecond) {
		var err error
		if hint, err = e.client.GetHint(ctx, base.Blob); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("published hint holds %d chunks, want the %d the boot faulted", len(hint), booted)
		}
	}

	// A second instance attaches the same base cold (its own module): the
	// hint is replayed before Attach returns.
	mod2, err := mirror.Attach(ctx, e.client, base)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := vm.New("vm-2", mod2, vm.Config{BlockSize: 512})
	e.proxy.Register("vm-2", "secret2", inst2, mod2)
	pc2 := &Client{Net: e.net, Addr: e.pc.Addr, VMID: "vm-2", Token: "secret2"}
	remote0, _, _ := mod2.Stats()
	if remote0 != booted {
		t.Fatalf("hinted attach fetched %d chunks, want the %d of the hint", remote0, booted)
	}
	buf := make([]byte, 512)
	if _, err := mod2.ReadAt(buf, int64(hint[0])*int64(mod2.ChunkSize())); err != nil {
		t.Fatal(err)
	}
	if remote, _, _ := mod2.Stats(); remote != remote0 {
		t.Errorf("read of a replayed chunk went remote: %d -> %d", remote0, remote)
	}

	// PREFETCH pages in chunks the hint did not name.
	var extra []uint64
	for idx := uint64(0); idx < uint64(mod2.Size())/mod2.ChunkSize() && len(extra) < 4; idx++ {
		if !slices.Contains(hint, idx) {
			extra = append(extra, idx)
		}
	}
	if err := pc2.Prefetch(ctx, extra); err != nil {
		t.Fatalf("Prefetch: %v", err)
	}
	remote1, hits1, _ := mod2.Stats()
	if remote1 != remote0+uint64(len(extra)) {
		t.Errorf("prefetch of %d chunks fetched %d", len(extra), remote1-remote0)
	}
	// Re-reading the prefetched chunks is now local: remoteReads stays put.
	if _, err := mod2.ReadAt(buf, int64(extra[0])*int64(mod2.ChunkSize())); err != nil {
		t.Fatal(err)
	}
	remote2, hits2, _ := mod2.Stats()
	if remote2 != remote1 {
		t.Errorf("read after prefetch went remote: %d -> %d", remote1, remote2)
	}
	if hits2 <= hits1 {
		t.Error("read after prefetch did not hit the local cache")
	}

	// A bad token is rejected; a truncated index list is rejected whole.
	bad := &Client{Net: e.net, Addr: e.pc.Addr, VMID: "vm-2", Token: "wrong"}
	if err := bad.Prefetch(ctx, []uint64{0}); err == nil {
		t.Error("prefetch with bad token succeeded")
	}
	list := request{op: opPrefetch, vm: "vm-2", token: "secret2", indices: []uint64{1, 300, 3}}.encode()
	remote3, _, _ := mod2.Stats()
	if _, err := e.net.Call(ctx, e.pc.Addr, list[:len(list)-1]); err == nil {
		t.Error("truncated index list accepted")
	}
	if remote, _, _ := mod2.Stats(); remote != remote3 {
		t.Errorf("a refused PREFETCH fetched %d chunks", remote-remote3)
	}
}

// TestFirstCheckpointClonesBeforeSuspend: CLONE depends only on the immutable
// backing snapshot, so a first checkpoint pays its round trip to the version
// manager while the VM still runs — the suspend window holds none of it.
func TestFirstCheckpointClonesBeforeSuspend(t *testing.T) {
	const delay = 40 * time.Millisecond
	e := setup(t)
	reg := obs.NewRegistry()
	e.proxy.Obs = reg
	// The module's own repository client — the one CLONE and the background
	// commit go through — sits behind a slow network; the guest's exchange
	// with its co-located proxy does not.
	e.client.Net = transport.WithLatency(e.net, delay)
	began := time.Now()
	handle, err := e.pc.RequestCheckpointAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took < delay {
		t.Fatalf("first CHECKPOINT took %v: the clone did not cross the %v network", took, delay)
	}
	if _, ok := e.mod.CheckpointImage(); !ok {
		t.Fatal("first checkpoint did not clone")
	}
	windows := reg.Histogram("proxy_suspend_ns")
	if windows.Count() != 1 {
		t.Fatalf("%d suspend windows recorded, want 1", windows.Count())
	}
	if window := time.Duration(windows.Sum()); window >= delay/2 {
		t.Errorf("first checkpoint's suspend window is %v: the %v clone round trip is inside it", window, delay)
	}
	if _, err := e.pc.WaitCheckpoint(ctx, handle); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCloneNeverSuspends: with the repository down, a first checkpoint
// fails at CLONE — before the instance was ever suspended.
func TestFailedCloneNeverSuspends(t *testing.T) {
	e := setup(t)
	reg := obs.NewRegistry()
	e.proxy.Obs = reg
	e.net.Partition(e.client.VMAddr)
	if _, err := e.pc.RequestCheckpoint(ctx); err == nil {
		t.Fatal("checkpoint with the version manager down succeeded")
	}
	if n := reg.Histogram("proxy_suspend_ns").Count(); n != 0 {
		t.Errorf("%d suspend windows recorded for a checkpoint that failed at CLONE, want 0", n)
	}
	if n := reg.Counter("proxy_checkpoint_failures_total").Value(); n != 1 {
		t.Errorf("proxy_checkpoint_failures_total = %d, want 1", n)
	}
	if e.inst.State() != vm.Running {
		t.Errorf("instance left %v after a failed clone", e.inst.State())
	}
}

// TestRefusalsAreRemoteErrors: a refused request is a handler error, so a
// metered caller counts it under transport_errors_total for its verb and
// receives a *transport.RemoteError naming that verb — never a reply the
// transport files as a success.
func TestRefusalsAreRemoteErrors(t *testing.T) {
	e := setup(t)
	e.proxy.Stage = localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	e.proxy.Repo = e.client
	reg := obs.NewRegistry()
	net := transport.WithMeter(e.net, reg)

	bad := &Client{Net: net, Addr: e.pc.Addr, VMID: "vm-1", Token: "wrong"}
	_, checkpointErr := bad.RequestCheckpointAsync(ctx)
	_, drainErr := DrainFor(ctx, net, e.pc.Addr, "no-such-owner", 1)
	for _, tc := range []struct {
		verb string
		err  error
	}{{"CHECKPOINT", checkpointErr}, {"DRAINFOR", drainErr}} {
		var re *transport.RemoteError
		if !errors.As(tc.err, &re) || re.Verb != tc.verb {
			t.Errorf("%s: err = %v, want a remote error tagged %s", tc.verb, tc.err, tc.verb)
		}
		if n := reg.Counter("transport_errors_total", obs.L("verb", tc.verb)).Value(); n != 1 {
			t.Errorf("transport_errors_total{verb=%s} = %d, want 1", tc.verb, n)
		}
		if n := reg.Counter("transport_resp_bytes_total", obs.L("verb", tc.verb)).Value(); n != 0 {
			t.Errorf("transport_resp_bytes_total{verb=%s} = %d: the refusal was filed as a reply", tc.verb, n)
		}
	}
	if checkpointErr == nil || !strings.Contains(checkpointErr.Error(), "authentication failed") {
		t.Errorf("bad-token CHECKPOINT: %v, want the authentication failure", checkpointErr)
	}
	if e.inst.State() != vm.Running {
		t.Errorf("instance %v after a refused CHECKPOINT", e.inst.State())
	}
}
