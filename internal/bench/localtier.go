// Multilevel-checkpointing experiments: the node-local write-back tier
// against a bandwidth-starved remote plane, and the spot-preemption
// scenario it exists for.
//
// The downtime experiment already shows a single async checkpoint's suspend
// window is a walk over the dirty index. What it cannot show is the *admission*
// coupling: the mirror pipeline is bounded, so once DefaultPipelineDepth
// commits are in flight, the next suspend window waits for the remote plane
// to finish one — back-to-back checkpoints against a starved plane inherit
// its bandwidth. The local tier breaks exactly that coupling by releasing
// the pipeline slot when the capture is staged (node-local store + partner
// replica), so admission runs at local pace and the drain owes the remote
// plane the backlog asynchronously. RunLocalTier measures the worst suspend
// window of a burst of checkpoints, with and without the tier, with the
// remote plane at full speed and starved to starvedBandwidth — the tiered
// columns must stay flat across the two.
//
// RunPreemption is the operational payoff: a spot instance gets its notice
// at T with grace G. Checkpoints that are only locally safe die with the
// node (assume the whole allocation is reclaimed, partner included); the
// DRAIN-NOW flush publishes the staged backlog inside the grace window. The
// experiment reports the staged backlog at notice time, the grace actually
// needed to flush it at starved bandwidth, and the checkpoints lost with
// and without the flush.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// starvedBandwidth models the congested remote plane: 8 MB/s per data
// provider, an order of magnitude under the local/partner links.
const starvedBandwidth = 8 << 20

// localTierRounds sizes the checkpoint burst: deep enough past the pipeline
// bound that the un-tiered module must block on admission.
const localTierRounds = mirror.DefaultPipelineDepth + 2

// LocalTierResult is one sweep point: worst suspend window (ms) of a
// localTierRounds burst under the four plane/tier combinations.
type LocalTierResult struct {
	DirtyMB          float64
	TierMillis       float64 // local tier, remote plane at full bandwidth
	TierStarved      float64 // local tier, remote plane starved
	NoTierMillis     float64
	NoTierStarved    float64
	DrainedBacklogOK bool // tier backlog reached zero after the burst
}

// tierBench is the assembled two-node experiment stack: one instance over a
// tiered proxy (stage + partner replica on a second proxy), one over a
// plain proxy, all sharing the repository and the bandwidth-modelled net.
type tierBench struct {
	lat  *transport.Latency
	net  *transport.Bandwidth
	repo *blobseer.Deployment
	cl   *blobseer.Client

	tier     *proxy.Client
	tierInst *vm.Instance
	tierMod  *mirror.Module
	tierAddr string

	partnerStage *localtier.Stage
	partnerAddr  string

	flat     *proxy.Client
	flatInst *vm.Instance
	flatMod  *mirror.Module

	dirtied uint64 // dirty calls so far: the salt that keeps every burst's content fresh
	closers []func()
}

func (b *tierBench) Close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// starve caps every data provider's pipe; restore lifts the caps. Proxy
// addresses are never touched — staging and partner replication ride the
// node-local links at full speed, which is the point.
func (b *tierBench) starve() {
	for _, addr := range b.repo.DataAddrs {
		b.net.SetAddrBytesPerSec(addr, starvedBandwidth)
	}
}

func (b *tierBench) restore() {
	for _, addr := range b.repo.DataAddrs {
		b.net.SetAddrBytesPerSec(addr, 0)
	}
}

func newTierBench() (*tierBench, error) {
	ctx := context.Background()
	b := &tierBench{}
	b.lat = transport.WithLatency(transport.NewInProc(), downtimeLatency)
	b.net = transport.WithBandwidth(b.lat, downtimeBandwidth)
	repo, err := blobseer.Deploy(b.net, 1, 4)
	if err != nil {
		return nil, err
	}
	b.repo = repo
	b.closers = append(b.closers, func() { repo.Close() })
	b.cl = repo.Client()
	b.cl.Obs = obs.NewRegistry()

	base, err := b.cl.CreateBlob(ctx, downtimeChunk)
	if err != nil {
		b.Close()
		return nil, err
	}
	info, err := b.cl.WriteVersion(ctx, base, map[uint64][]byte{0: make([]byte, downtimeChunk)}, downtimeDiskMB<<20)
	if err != nil {
		b.Close()
		return nil, err
	}
	baseRef := blobseer.SnapshotRef{Blob: base, Version: info.Version}

	// Partner node: a proxy whose tier holds the replicas.
	partner := proxy.New()
	b.partnerStage = localtier.New(chunkstore.NewMem(), b.cl.Obs)
	partner.Stage = b.partnerStage
	partner.Net = b.net
	partner.Repo = b.cl
	psrv, err := partner.Serve(b.net, "")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.closers = append(b.closers, func() { psrv.Close() })
	b.partnerAddr = psrv.Addr()

	// Tiered node.
	tp := proxy.New()
	tp.Obs = b.cl.Obs
	tp.Stage = localtier.New(chunkstore.NewMem(), b.cl.Obs)
	tp.Net = b.net
	tp.Repo = b.cl
	tp.PartnerAddr = b.partnerAddr
	tsrv, err := tp.Serve(b.net, "")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.closers = append(b.closers, func() { tsrv.Close() })
	b.tierAddr = tsrv.Addr()

	// Plain node: the un-tiered control.
	fp := proxy.New()
	fsrv, err := fp.Serve(b.net, "")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.closers = append(b.closers, func() { fsrv.Close() })

	newInstance := func(id string, p *proxy.Proxy, addr string) (*vm.Instance, *mirror.Module, *proxy.Client, error) {
		mod, err := mirror.Attach(ctx, b.cl, baseRef)
		if err != nil {
			return nil, nil, nil, err
		}
		inst := vm.New(id, mod, vm.Config{BlockSize: 512})
		if err := inst.Boot(); err != nil {
			return nil, nil, nil, err
		}
		p.Register(id, "tok", inst, mod)
		return inst, mod, &proxy.Client{Net: b.net, Addr: addr, VMID: id, Token: "tok"}, nil
	}
	if b.tierInst, b.tierMod, b.tier, err = newInstance("bench-tier", tp, b.tierAddr); err != nil {
		b.Close()
		return nil, err
	}
	if b.flatInst, b.flatMod, b.flat, err = newInstance("bench-flat", fp, fsrv.Addr()); err != nil {
		b.Close()
		return nil, err
	}

	// Warm both images: the clone cost is constant and paid once.
	if _, err := b.tier.RequestCheckpoint(ctx); err != nil {
		b.Close()
		return nil, err
	}
	if _, err := b.flat.RequestCheckpoint(ctx); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// dirty rewrites chunks chunks of mod with content no earlier round, burst
// or module of this bench wrote, so no fingerprint shortcut can hide the
// transfer cost.
func (b *tierBench) dirty(mod *mirror.Module, chunks int) error {
	b.dirtied++
	return dirtyDistinct(mod, chunks, downtimeChunk, b.dirtied)
}

// burst runs localTierRounds back-to-back dirty+checkpoint rounds against
// cl and returns the worst CHECKPOINT-exchange wall time plus the handles.
func (b *tierBench) burst(ctx context.Context, cl *proxy.Client, mod *mirror.Module, chunks int) (worstMillis float64, handles []uint64, err error) {
	for round := 0; round < localTierRounds; round++ {
		if err := b.dirty(mod, chunks); err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		h, err := cl.RequestCheckpointAsync(ctx)
		if err != nil {
			return 0, nil, err
		}
		if ms := float64(time.Since(t0).Microseconds()) / 1000; ms > worstMillis {
			worstMillis = ms
		}
		handles = append(handles, h)
	}
	return worstMillis, handles, nil
}

// settleBurst waits every handle to global durability, fencing rounds apart.
func settleBurst(ctx context.Context, cl *proxy.Client, handles []uint64) error {
	for _, h := range handles {
		if _, err := cl.WaitCheckpoint(ctx, h); err != nil {
			return err
		}
	}
	return nil
}

// backlogEmpty polls both tier nodes until nothing is staged anywhere (the
// release frame to the partner is asynchronous to the publish).
func (b *tierBench) backlogEmpty(ctx context.Context) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		own1, p1, err1 := proxy.Backlog(ctx, b.net, b.tierAddr)
		own2, p2, err2 := proxy.Backlog(ctx, b.net, b.partnerAddr)
		if err1 == nil && err2 == nil &&
			own1.Checkpoints+p1.Checkpoints+own2.Checkpoints+p2.Checkpoints == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RunLocalTier measures the worst suspend window of a checkpoint burst for
// each dirty-set size, tiered and un-tiered, with the remote plane at full
// bandwidth and starved. After every burst it waits for full drain
// convergence and finally asserts exactness: a forced re-drain must leave
// the CAS untouched, and the stage-local span telemetry must be present.
func RunLocalTier(dirtyChunks []int) ([]LocalTierResult, error) {
	ctx := context.Background()
	b, err := newTierBench()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	// One unmeasured burst at the largest dirty set warms both pipelines
	// (heap growth, fresh page faults, the first GC cycles) so the measured
	// bursts compare like against like.
	warm := dirtyChunks[len(dirtyChunks)-1]
	if _, handles, err := b.burst(ctx, b.tier, b.tierMod, warm); err != nil {
		return nil, err
	} else if err := settleBurst(ctx, b.tier, handles); err != nil {
		return nil, err
	}
	if _, handles, err := b.burst(ctx, b.flat, b.flatMod, warm); err != nil {
		return nil, err
	} else if err := settleBurst(ctx, b.flat, handles); err != nil {
		return nil, err
	}

	var out []LocalTierResult
	for _, chunks := range dirtyChunks {
		r := LocalTierResult{DirtyMB: float64(chunks) * downtimeChunk / (1 << 20)}

		measure := func(cl *proxy.Client, mod *mirror.Module) (float64, error) {
			ms, handles, err := b.burst(ctx, cl, mod, chunks)
			if err != nil {
				return 0, err
			}
			// Lift the caps before settling: the suspend windows are already
			// recorded, only convergence matters now.
			b.restore()
			if err := settleBurst(ctx, cl, handles); err != nil {
				return 0, err
			}
			return ms, nil
		}

		if r.TierMillis, err = measure(b.tier, b.tierMod); err != nil {
			return nil, err
		}
		if r.NoTierMillis, err = measure(b.flat, b.flatMod); err != nil {
			return nil, err
		}
		b.starve()
		if r.TierStarved, err = measure(b.tier, b.tierMod); err != nil {
			return nil, err
		}
		b.starve()
		if r.NoTierStarved, err = measure(b.flat, b.flatMod); err != nil {
			return nil, err
		}
		b.restore()
		r.DrainedBacklogOK = b.backlogEmpty(ctx)
		out = append(out, r)
	}

	// Exactness: everything staged was published exactly once — a forced
	// re-drain of the (empty) tier must not move a single CAS refcount.
	before, err := b.cl.CasStats(ctx, b.repo.DataAddrs)
	if err != nil {
		return nil, err
	}
	if _, err := proxy.DrainNow(ctx, b.net, b.tierAddr); err != nil {
		return nil, err
	}
	after, err := b.cl.CasStats(ctx, b.repo.DataAddrs)
	if err != nil {
		return nil, err
	}
	if before.Refs != after.Refs || before.Chunks != after.Chunks {
		return nil, fmt.Errorf("bench: re-drain moved CAS state: refs %d->%d chunks %d->%d",
			before.Refs, after.Refs, before.Chunks, after.Chunks)
	}
	// The tiered pipeline must have emitted its stage telemetry, including
	// the stage-local span the tier adds to the commit path.
	if err := verifyLocalTierTelemetry(ctx, b.net, b.tierAddr); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyLocalTierTelemetry scrapes a tiered proxy and checks every commit
// stage of the tiered pipeline — commit/stage-local included — recorded
// spans.
func verifyLocalTierTelemetry(ctx context.Context, net transport.Network, addr string) error {
	resp, err := net.Call(ctx, addr, []byte("METRICS"))
	if err != nil {
		return fmt.Errorf("bench: scrape METRICS: %w", err)
	}
	_, body, _ := strings.Cut(string(resp), "\n")
	points, err := obs.ParseProm(body)
	if err != nil {
		return fmt.Errorf("bench: parse METRICS exposition: %w", err)
	}
	for _, stage := range obs.CommitStagesLocalTier {
		p := obs.Find(points, "span_ns", obs.L("span", stage))
		if p == nil || p.Count == 0 {
			return fmt.Errorf("bench: tiered pipeline emitted no %q spans", stage)
		}
	}
	return nil
}

// FigLocalTier renders the local-tier experiment and enforces the
// acceptance bound: at the largest dirty set, the tiered suspend window
// under a starved remote plane must stay within 2x of the unstarved one.
func FigLocalTier() Series {
	s := Series{
		Title:   "Local tier: worst suspend window of a checkpoint burst, remote plane full vs starved (8 MB/s)",
		XLabel:  "dirty MB",
		YLabel:  "ms (burst of " + fmt.Sprint(localTierRounds) + " checkpoints)",
		Columns: []string{"tier ms", "tier starved ms", "no-tier ms", "no-tier starved ms"},
	}
	results, err := RunLocalTier([]int{64, 256})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: r.DirtyMB, Values: []float64{
			r.TierMillis, r.TierStarved, r.NoTierMillis, r.NoTierStarved,
		}})
		if !r.DrainedBacklogOK {
			s.Title += fmt.Sprintf(" — FAILED: backlog did not drain at %.0f MB", r.DirtyMB)
		}
	}
	last := results[len(results)-1]
	// Small absolute slack keeps scheduler jitter from failing a sub-ms pair.
	if last.TierStarved > 2*last.TierMillis+5 {
		s.Title += fmt.Sprintf(" — FAILED: starved suspend window %.2fms > 2x unstarved %.2fms",
			last.TierStarved, last.TierMillis)
	} else {
		s.Notes = append(s.Notes, fmt.Sprintf(
			"suspend window decoupled from remote plane: %.2fms starved vs %.2fms full at %.0f MB (bound: 2x)",
			last.TierStarved, last.TierMillis, last.DirtyMB))
	}
	s.Notes = append(s.Notes, fmt.Sprintf(
		"un-tiered admission inherits the starved plane: %.2fms vs %.2fms tiered",
		last.NoTierStarved, last.TierStarved))
	return s
}

// PreemptionResult is one sweep point of the spot-preemption experiment.
type PreemptionResult struct {
	DirtyMB       float64
	StagedAtNotic int     // checkpoints only locally safe when the notice lands
	FlushMillis   float64 // grace actually needed to DRAIN-NOW the backlog
	LostNoFlush   int     // checkpoints lost if the node dies un-flushed
	LostWithFlush int
}

// preemptionRounds is the checkpoint cadence between notice and the last
// durable state: each round is one interval of work.
const preemptionRounds = 3

// RunPreemption plays the spot-preemption scenario on the tiered stack: the
// remote plane is starved, preemptionRounds checkpoints reach local safety
// (their drains still owed), then the preemption notice lands. Without a
// flush every staged checkpoint dies with the allocation; with DRAIN-NOW
// the backlog is published inside the measured grace.
func RunPreemption(dirtyChunks []int) ([]PreemptionResult, error) {
	ctx := context.Background()
	b, err := newTierBench()
	if err != nil {
		return nil, err
	}
	defer b.Close()

	var out []PreemptionResult
	for _, chunks := range dirtyChunks {
		r := PreemptionResult{DirtyMB: float64(chunks) * downtimeChunk / (1 << 20)}
		b.starve()
		var handles []uint64
		for round := 0; round < preemptionRounds; round++ {
			if err := b.dirty(b.tierMod, chunks); err != nil {
				return nil, err
			}
			h, err := b.tier.RequestCheckpointAsync(ctx)
			if err != nil {
				return nil, err
			}
			if _, err := b.tier.WaitCheckpointLocal(ctx, h); err != nil {
				return nil, err
			}
			handles = append(handles, h)
		}

		// The notice lands: whatever is still only in the tier would die
		// with the allocation.
		own, _, err := proxy.Backlog(ctx, b.net, b.tierAddr)
		if err != nil {
			return nil, err
		}
		r.StagedAtNotic = int(own.Checkpoints)
		r.LostNoFlush = r.StagedAtNotic

		// The grace window: flush the backlog to the (still starved) remote
		// plane — this is the bandwidth the operator actually gets.
		t0 := time.Now()
		if _, err := proxy.DrainNow(ctx, b.net, b.tierAddr); err != nil {
			return nil, err
		}
		r.FlushMillis = float64(time.Since(t0).Microseconds()) / 1000
		own, _, err = proxy.Backlog(ctx, b.net, b.tierAddr)
		if err != nil {
			return nil, err
		}
		r.LostWithFlush = int(own.Checkpoints)

		b.restore()
		if err := settleBurst(ctx, b.tier, handles); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FigPreemption renders the preemption experiment: staged backlog at notice
// time, the grace needed to flush it, and checkpoints lost either way.
func FigPreemption() Series {
	s := Series{
		Title:   "Preemption: DRAIN-NOW flush inside the grace window (remote plane starved to 8 MB/s)",
		XLabel:  "dirty MB",
		YLabel:  "checkpoints / ms",
		Columns: []string{"staged at notice", "flush ms", "lost w/o flush", "lost w/ flush"},
	}
	results, err := RunPreemption([]int{64, 256})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: r.DirtyMB, Values: []float64{
			float64(r.StagedAtNotic), r.FlushMillis, float64(r.LostNoFlush), float64(r.LostWithFlush),
		}})
		if r.LostWithFlush != 0 {
			s.Title += fmt.Sprintf(" — FAILED: %d checkpoints still staged after DRAIN-NOW at %.0f MB",
				r.LostWithFlush, r.DirtyMB)
		}
	}
	last := results[len(results)-1]
	s.Notes = append(s.Notes, fmt.Sprintf(
		"a preempted node needs %.0fms of grace to lose nothing; without the flush it loses %d checkpoint(s) of work",
		last.FlushMillis, last.LostNoFlush))
	return s
}
