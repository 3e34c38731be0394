package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/cloud"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// opTimeout bounds every single harness operation; one that exceeds it
// counts as failed.
const opTimeout = 60 * time.Second

// metaProviders is the metadata-provider count of every workload.
const metaProviders = 2

// env is one deployed stack: the cloud the README advertises, wired over
// loopback TCP and seglog on a real directory, all in this process.
type env struct {
	w     workload
	dir   string
	rec   *recorder // nil in the untraced run
	net   *loopback
	cloud *cloud.Cloud
	reg   *obs.Registry
	cl    *blobseer.Client

	providerStores []chunkstore.Store // seglog backends, as the factory made them
	roles          map[string]string  // address -> vmanager | pmanager | meta | data | proxy

	a *guest // the checkpointing VM
	b *guest // tiered only: the restarting VM
}

// guest is one VM with its generator and its deployment handle.
type guest struct {
	gen    *generator
	dep    *cloud.Deployment
	ckptID int
	ref    blobseer.SnapshotRef
	region []byte // restart read buffer, reused
	boot   []byte
}

func (g *guest) inst() *cloud.Instance { return g.dep.Instances[0] }

// storeFactory roots one seglog per provider (or per node's stage) under
// dir and, in the traced run, interposes on it. made collects the backends
// for their counters.
func (e *env) storeFactory(dir string, made *[]chunkstore.Store, traced *[]*tracedStore) blobseer.StoreFactory {
	inner := blobseer.SeglogStores(dir, seglog.Options{Registry: e.reg})
	return func(i int) (chunkstore.Store, error) {
		s, err := inner(i)
		if err != nil {
			return nil, err
		}
		*made = append(*made, s)
		if e.rec == nil {
			return s, nil
		}
		ts := newTracedStore(s, e.rec)
		*traced = append(*traced, ts)
		return ts, nil
	}
}

// setup deploys the stack and brings the guests to the state the measured
// window starts from. Everything here is what setup_s times.
func setup(ctx context.Context, w workload, seed int64, dir string, rec *recorder) (e *env, err error) {
	e = &env{w: w, dir: dir, rec: rec, net: &loopback{tcp: transport.NewTCP()}, reg: obs.NewRegistry(), roles: make(map[string]string)}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	var net transport.FaultNetwork = e.net
	if rec != nil {
		net = &tracedNet{inner: net, rec: rec}
	}
	par := runtime.NumCPU()
	if par > w.Nodes {
		par = w.Nodes
	}
	var providerTraced, stageTraced []*tracedStore
	cfg := cloud.Config{
		Nodes:         w.Nodes,
		MetaProviders: metaProviders,
		Seed:          seed,
		Parallelism:   par,
		Net:           net,
		Obs:           e.reg,
		Stores:        e.storeFactory(filepath.Join(dir, "providers"), &e.providerStores, &providerTraced),
		LocalTier:     w.Tiered,
	}
	if w.Tiered {
		var stageStores []chunkstore.Store // no counter of theirs is reported
		cfg.StageStores = e.storeFactory(filepath.Join(dir, "stage"), &stageStores, &stageTraced)
	}
	enableDedup(&cfg)
	if e.cloud, err = cloud.New(cfg); err != nil {
		return e, fmt.Errorf("cloud.New: %w", err)
	}
	repo := e.cloud.Repository()
	e.roles[repo.VMAddr] = "vmanager"
	e.roles[repo.PMAddr] = "pmanager"
	for _, a := range repo.MetaAddrs {
		e.roles[a] = "meta"
	}
	for i, a := range repo.DataAddrs {
		e.roles[a] = "data"
		if i < len(providerTraced) {
			providerTraced[i].setAddr(a)
		}
	}
	for i, n := range e.cloud.Nodes() {
		e.roles[n.ProxyAddr] = "proxy"
		if i < len(stageTraced) {
			stageTraced[i].setAddr(n.ProxyAddr)
		}
	}
	e.cl = e.cloud.Client()
	enableDedup(e.cl)

	// The sparse base image: one zero chunk and a size; the rest are holes.
	blob, err := e.cl.CreateBlob(ctx, w.ChunkSize)
	if err != nil {
		return e, fmt.Errorf("create base image: %w", err)
	}
	info, err := e.cl.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, w.ChunkSize)}, w.ImageBytes)
	if err != nil {
		return e, fmt.Errorf("write base image: %w", err)
	}
	base := blobseer.SnapshotRef{Blob: blob, Version: info.Version}

	deploy := func(gw workload, seed int64) (*guest, error) {
		dep, err := e.cloud.Deploy(ctx, 1, base, vm.Config{BlockSize: 512})
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		g := &guest{gen: newGenerator(gw, seed), dep: dep}
		// One full round of the workload's own pattern, checkpointed: the
		// warm-up that takes the clone, first-touch allocations and cold
		// connections out of the measured window.
		if _, err := g.gen.dirty(g.inst().VM.Disk()); err != nil {
			return nil, fmt.Errorf("warm-up dirty: %w", err)
		}
		if _, err := e.checkpoint(ctx, g); err != nil {
			return nil, fmt.Errorf("warm-up checkpoint: %w", err)
		}
		return g, nil
	}
	if e.a, err = deploy(w, seed); err != nil {
		return e, err
	}
	if w.Tiered {
		// VM-B's image is filled once, here; the window only restarts it.
		wb := w
		wb.DirtyBytes = w.dataChunks() * w.ChunkSize
		if e.b, err = deploy(wb, seed^0x5eed); err != nil {
			return e, err
		}
	}
	return e, nil
}

// close tears the stack down. The caller removes the directory.
func (e *env) close() {
	if e.cloud != nil {
		e.cloud.Close()
	}
	e.net.close()
}

// ckptSample is one checkpoint's timings.
type ckptSample struct {
	total time.Duration // request issued -> globally durable
	// suspend is the window the VM was frozen, suspend to resume, as the
	// proxy itself timed it: the paper's application downtime. The wall time
	// of the RequestCheckpointAsync call adds four scheduler hand-offs to it,
	// which on a saturated 2-core box swing it between 3 and 20 ms; it is
	// kept as the ckpt.suspend span.
	suspend time.Duration
	local   time.Duration // request issued -> locally safe (tiered only)
}

var errUnresolved = errors.New("published snapshot does not resolve")

// suspendHistogram is where the proxy records each suspend window.
const suspendHistogram = "proxy_suspend_ns"

// checkpoint takes one checkpoint of g through the proxy — suspend, (locally
// safe,) globally durable — checks the returned snapshot resolves, and
// records it as a restart target.
func (e *env) checkpoint(ctx context.Context, g *guest) (ckptSample, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var s ckptSample
	var ref blobseer.SnapshotRef
	px := g.inst().Proxy
	windows := e.reg.Histogram(suspendHistogram)
	ctx = withLink(ctx, link{-1, e.rec.newOp(opCkpt)})
	total, err := e.rec.timed(ctx, "ckpt", func(ctx context.Context) error {
		var handle uint64
		var err error
		n0, sum0 := windows.Count(), windows.Sum()
		call, err := e.rec.timed(ctx, "ckpt.suspend", func(ctx context.Context) error {
			handle, err = px.RequestCheckpointAsync(ctx)
			return err
		})
		if err != nil {
			return err
		}
		// One request, one window (only this guest checkpoints). Should the
		// proxy stop recording it, the call's wall time stands in.
		s.suspend = call
		if windows.Count() == n0+1 {
			s.suspend = time.Duration(windows.Sum() - sum0)
		}
		if e.w.Tiered {
			d, err := e.rec.timed(ctx, "ckpt.local", func(ctx context.Context) error {
				_, err := px.WaitCheckpointLocal(ctx, handle)
				return err
			})
			if err != nil {
				return err
			}
			s.local = call + d
		}
		_, err = e.rec.timed(ctx, "ckpt.durable", func(ctx context.Context) error {
			ref, err = px.WaitCheckpoint(ctx, handle)
			return err
		})
		return err
	})
	s.total = total
	if err != nil {
		return s, err
	}
	if _, _, err := e.cl.GetVersion(ctx, ref); err != nil {
		return s, fmt.Errorf("%w: %s: %v", errUnresolved, ref, err)
	}
	id, err := e.cloud.RecordCheckpoint(g.dep, map[string]cloud.SnapshotRef{g.inst().VMID: ref})
	if err != nil {
		return s, err
	}
	g.ckptID, g.ref = id, ref
	return s, nil
}

// retire drops the snapshot versions older than the last keepVersions.
func (e *env) retire(ctx context.Context, g *guest) (time.Duration, bool, error) {
	if g.ref.Version < keepVersions {
		return 0, false, nil
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ctx = withLink(ctx, link{-1, e.rec.newOp(opRetire)})
	d, err := e.rec.timed(ctx, "retire", func(ctx context.Context) error {
		return e.cl.Retire(ctx, g.ref.Blob, g.ref.Version-keepVersions+1)
	})
	return d, true, err
}

// restartSample is one restart's timings and what the mirror had to fetch.
type restartSample struct {
	full      bool          // the whole data region was restored, not just the boot set
	total     time.Duration // Restart issued -> whole data region read back
	firstRead time.Duration // Restart issued -> boot set read (lazy restart)
	deploy    time.Duration
	prefetch  time.Duration
	remote    uint64 // mirror: chunks fetched from the repository
	hits      uint64 // mirror: reads served locally
}

// restart rolls g back to its last checkpoint on another node and reads the
// disk back: the boot set on demand and then, for a full restart, the whole
// data region prefetched and read sequentially. A lazy restart stops after
// the boot set — what an instance pays before it can make progress; it is
// the same code path as a full restart's prefix, run more often because it
// is cheap and its timing is the noisiest. Verification runs after the timer
// stops; bad is the number of chunks that differ from the generator's shadow.
func (e *env) restart(ctx context.Context, g *guest, full bool) (s restartSample, bad int, verifyCPU time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	w := g.gen.w
	cs := w.ChunkSize
	bootSet := w.bootSet()
	if g.boot == nil {
		g.boot = make([]byte, uint64(len(bootSet))*cs)
	}
	name, kind := "lazy", opLazy
	if full {
		name, kind = "restart", opRestart
		if g.region == nil {
			g.region = make([]byte, w.dataChunks()*cs)
		}
	}
	s.full = full
	ctx = withLink(ctx, link{-1, e.rec.newOp(kind)})
	var first time.Duration
	s.total, err = e.rec.timed(ctx, name, func(ctx context.Context) error {
		var err error
		s.deploy, err = e.rec.timed(ctx, name+".deploy", func(ctx context.Context) error {
			dep, err := e.cloud.Restart(ctx, g.dep, g.ckptID)
			if err == nil {
				g.dep = dep
			}
			return err
		})
		if err != nil {
			return err
		}
		disk := g.inst().VM.Disk()
		first, err = e.rec.timed(ctx, name+".first_read", func(context.Context) error {
			for i, idx := range bootSet {
				if _, err := disk.ReadAt(g.boot[uint64(i)*cs:uint64(i+1)*cs], int64(idx*cs)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil || !full {
			return err
		}
		all := make([]uint64, w.dataChunks())
		for i := range all {
			all[i] = w.dataStart() + uint64(i)
		}
		s.prefetch, err = e.rec.timed(ctx, "restart.prefetch", func(ctx context.Context) error {
			return g.inst().Proxy.Prefetch(ctx, all)
		})
		if err != nil {
			return err
		}
		_, err = e.rec.timed(ctx, "restart.read", func(context.Context) error {
			_, err := disk.ReadAt(g.region, int64(w.dataStart()*cs))
			return err
		})
		return err
	})
	if err != nil {
		return s, 0, 0, err
	}
	s.firstRead = s.deploy + first
	s.remote, s.hits, _ = g.inst().Mirror.Stats()
	verifyCPU = untimedCPU(func() {
		for i, idx := range bootSet {
			bad += g.gen.verify(idx, g.boot[uint64(i)*cs:uint64(i+1)*cs])
		}
		if full {
			bad += g.gen.verify(w.dataStart(), g.region)
		}
	})
	return s, bad, verifyCPU, nil
}

// counters is a snapshot of the layers' own public accessors.
type counters struct {
	cas        cas.Stats
	metaNodes  uint64
	provider   map[string]uint64    // seglog engine fields summed over providers
	commit     blobseer.CommitStats // VM-A's mirror
	commits    uint64
	failovers  uint64
	mem        runtime.MemStats
	processCPU time.Duration
}

func sumEngine(stores []chunkstore.Store) map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range stores {
		for _, f := range chunkstore.StatsOf(s).Fields {
			out[f.Name] += f.Value
		}
	}
	return out
}

func (e *env) snapshot(ctx context.Context) (counters, error) {
	var c counters
	var err error
	if c.cas, err = e.cl.CasStats(ctx, e.cloud.Repository().DataAddrs); err != nil {
		return c, err
	}
	if _, c.metaNodes, err = e.cl.MetaUsage(ctx); err != nil {
		return c, err
	}
	c.provider = sumEngine(e.providerStores)
	c.commit = e.a.inst().Mirror.CommitStats()
	_, _, c.commits = e.a.inst().Mirror.Stats()
	c.failovers = e.reg.Counter("blobseer_read_failovers_total").Value() +
		e.reg.Counter("blobseer_read_corrupt_replicas_total").Value() +
		e.reg.Counter("blobseer_read_ranked_fallbacks_total").Value()
	runtime.ReadMemStats(&c.mem)
	c.processCPU = processCPU()
	return c, nil
}

// runResult is everything one run of one workload measured.
type runResult struct {
	w      workload
	traced bool

	setup    []time.Duration
	ckpts    []ckptSample
	retires  []time.Duration
	restarts []restartSample // full and lazy
	stored   []float64       // bytes on disk ÷ live bytes, after each checkpoint

	dirtyBytes    uint64 // committed inside the measured window
	dirtyChunks   uint64
	restoredBytes uint64        // by full restarts
	bootBytes     uint64        // by lazy restarts
	cpu           time.Duration // inside timed sections
	attempted     int
	failed        int
	failures      []string

	before, after counters // around the sampled checkpoint phase (the whole sampled window when tiered)
	end           counters // after the restart phase
	trace         *trace
	roles         map[string]string
}

// sink is where a loop files what it measured. A warm-up loop has none: its
// operations count as attempted (and can fail) but leave no samples.
type sink struct {
	mu sync.Mutex
	r  *runResult
	on bool
}

func (k *sink) attempt() {
	k.mu.Lock()
	k.r.attempted++
	k.mu.Unlock()
}

func (k *sink) fail(op string, err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.r.failed++
	if len(k.r.failures) < 8 {
		k.r.failures = append(k.r.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// sample runs fn on the result under the lock, unless warming up.
func (k *sink) sample(fn func(r *runResult)) {
	if !k.on {
		return
	}
	k.mu.Lock()
	fn(k.r)
	k.mu.Unlock()
}

// storedPerLive sizes the provider and stage directories against the bytes
// the generators have ever made live.
func (e *env) storedPerLive() (float64, error) {
	var stored uint64
	for _, sub := range []string{"providers", "stage"} {
		n, err := diskBytes(filepath.Join(e.dir, sub))
		if err != nil {
			return 0, err
		}
		stored += n
	}
	live := e.a.gen.live
	if e.b != nil {
		live += e.b.gen.live
	}
	return ratio(float64(stored), float64(live*e.w.ChunkSize)), nil
}

// checkpointLoop dirties, checkpoints and retires until the deadline, at
// least once. It returns the CPU burned outside timed sections.
func (e *env) checkpointLoop(ctx context.Context, k *sink, deadline time.Time) (untimed time.Duration) {
	g := e.a
	for first := true; first || time.Now().Before(deadline); first = false {
		var n uint64
		var err error
		untimed += untimedCPU(func() { n, err = g.gen.dirty(g.inst().VM.Disk()) })
		// Every timed operation starts from a collected heap (see restartLoop):
		// ckpt_p50_ms spread on bulk_unique 10.9% without, 5.1% with. The
		// collector's CPU still counts toward cpu_s_per_gib.
		runtime.GC()
		k.attempt()
		if err != nil {
			k.fail("dirty", err)
			return untimed
		}
		s, err := e.checkpoint(ctx, g)
		if err != nil {
			k.fail("checkpoint", err)
			return untimed
		}
		k.sample(func(r *runResult) {
			r.ckpts = append(r.ckpts, s)
			r.dirtyChunks += n
			r.dirtyBytes += n * e.w.ChunkSize
		})
		d, ran, err := e.retire(ctx, g)
		if ran {
			k.attempt()
			if err != nil {
				k.fail("retire", err)
				return untimed
			}
			k.sample(func(r *runResult) { r.retires = append(r.retires, d) })
		}
		// Space is sampled at every checkpoint and averaged: one reading at
		// the end lands anywhere on the segment log's roll-and-compact
		// sawtooth and does not repeat.
		ratio, err := e.storedPerLive()
		if err != nil {
			k.fail("disk usage", err)
			return untimed
		}
		k.sample(func(r *runResult) { r.stored = append(r.stored, ratio) })
	}
	return untimed
}

// lazyPerFull is how many lazy restarts precede each full one.
const lazyPerFull = 3

// restartLoop restarts g — lazyPerFull lazy restarts, then a full one — and
// verifies every byte read, until the deadline; at least one round.
func (e *env) restartLoop(ctx context.Context, g *guest, k *sink, deadline time.Time) (untimed time.Duration) {
	for first := true; first || time.Now().Before(deadline); first = false {
		// Each round starts from a collected heap, as testing.B starts each
		// run: a restart allocates the whole image afresh, and whether that
		// memory is recycled or faulted in anew otherwise depends on where
		// the collector happens to be (restart_mbps spread 9.5% without,
		// 6.2% with).
		runtime.GC()
		for i := 0; i <= lazyPerFull; i++ {
			full := i == lazyPerFull
			s, bad, vcpu, err := e.restart(ctx, g, full)
			untimed += vcpu
			k.attempt()
			if err != nil {
				k.fail("restart", err)
				return untimed
			}
			if bad > 0 {
				k.fail("restart", fmt.Errorf("%d chunks differ from the generator's shadow", bad))
			}
			k.sample(func(r *runResult) {
				r.restarts = append(r.restarts, s)
				if full {
					r.restoredBytes += uint64(len(g.region))
				} else {
					r.bootBytes += uint64(len(g.boot))
				}
			})
		}
	}
	return untimed
}

// setupRepeats is how many times a run sets the stack up; setup_s is the
// median, and the last one is the stack the run measures.
const setupRepeats = 3

// The measured window, as shares of -seconds: an unsampled warm-up (the
// first lap over the data region allocates the mirror's buffers, rolls the
// first segments and starts the compactor; checkpoints are up to twice as
// slow until then), then checkpoints until half the window, then restarts.
// A tiered workload runs both loops through the warm-up and the rest.
const (
	warmShare = 0.10
	ckptShare = 0.50
)

// runWorkload is the one harness function every workload goes through:
// set up, run the measured window for about `seconds`, tear down. With a
// recorder the three interposers are in place and spans are kept.
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, scratch string, rec *recorder) (*runResult, error) {
	r := &runResult{w: w, traced: rec != nil}
	var e *env
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(scratch, w.Name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		t := time.Now()
		next, err := setup(ctx, w, seed, dir, rec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setup = append(r.setup, time.Since(t))
		if i < setupRepeats-1 {
			next.close()
			os.RemoveAll(dir)
			continue
		}
		e = next
	}
	defer e.close()
	r.roles = e.roles

	// Garbage from set-up is not the measured window's to collect, and the
	// earlier set-ups' deleted segment files are not its to discard: on a
	// file system mounted with online discard their TRIMs ride the next
	// journal commits and stall whoever calls fdatasync then.
	runtime.GC()
	syscall.Sync()
	at := func(share float64) time.Time {
		return time.Now().Add(time.Duration(share * seconds * float64(time.Second)))
	}
	// both runs the two loops of a tiered workload side by side.
	both := func(k *sink, deadline time.Time) time.Duration {
		var wg sync.WaitGroup
		var ua, ub time.Duration
		wg.Add(2)
		go func() { defer wg.Done(); ua = e.checkpointLoop(ctx, k, deadline) }()
		go func() { defer wg.Done(); ub = e.restartLoop(ctx, e.b, k, deadline) }()
		wg.Wait()
		return ua + ub
	}
	warm := &sink{r: r}
	if w.Tiered {
		both(warm, at(warmShare))
	} else {
		e.checkpointLoop(ctx, warm, at(warmShare))
	}
	if r.failed > 0 {
		return r, nil
	}

	if rec != nil {
		rec.on.Store(true)
	}
	k := &sink{r: r, on: true}
	var err error
	if r.before, err = e.snapshot(ctx); err != nil {
		return nil, err
	}
	var untimed time.Duration
	if w.Tiered {
		untimed = both(k, at(1-warmShare))
		if r.after, err = e.snapshot(ctx); err != nil {
			return nil, err
		}
		r.end = r.after
	} else {
		restartsEnd := at(1 - warmShare)
		untimed = e.checkpointLoop(ctx, k, at(ckptShare-warmShare))
		if r.after, err = e.snapshot(ctx); err != nil {
			return nil, err
		}
		r.end = r.after
		if r.failed == 0 {
			untimed += e.restartLoop(ctx, e.a, k, restartsEnd)
			if r.end, err = e.snapshot(ctx); err != nil {
				return nil, err
			}
		}
	}
	r.cpu = r.end.processCPU - r.before.processCPU - untimed
	// The mirror must have committed exactly the chunks the generator dirtied.
	if got := uint64(r.after.commit.Chunks - r.before.commit.Chunks); got != r.dirtyChunks && r.failed == 0 {
		k.fail("commit accounting", fmt.Errorf("mirror committed %d chunks, the generator dirtied %d", got, r.dirtyChunks))
	}
	if rec != nil {
		rec.on.Store(false)
		r.trace = rec.finish()
	}
	return r, nil
}
