// Multilevel-checkpointing experiment: the spot-preemption scenario the
// node-local write-back tier exists for, against a bandwidth-starved remote
// plane. A spot instance gets its notice at T with grace G. Checkpoints
// that are only locally safe die with the node (assume the whole allocation
// is reclaimed, partner included); the DRAIN-NOW flush publishes the staged
// backlog inside the grace window. RunPreemption reports the staged backlog
// at notice time, the grace actually needed to flush it at starved
// bandwidth, and the checkpoints lost with and without the flush.
package bench

import (
	"context"
	"encoding/binary"
	"fmt"
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

// The modelled stack the functional experiments (preemption, health) share:
// 64 KiB chunks on a 32 MiB disk, over an in-process network with a fixed
// per-call latency and a per-provider pipe bandwidth.
const (
	downtimeChunk     = 64 * 1024
	downtimeDiskMB    = 32
	downtimeLatency   = 50 * time.Microsecond
	downtimeBandwidth = 64 << 20 // bytes/s per provider pipe
)

// starvedBandwidth models the congested remote plane: 8 MB/s per data
// provider, an order of magnitude under the local/partner links.
const starvedBandwidth = 8 << 20

// tierBench is the assembled two-node experiment stack: one instance over a
// tiered proxy whose staged captures a second proxy replicates, sharing the
// repository and the bandwidth-modelled net.
type tierBench struct {
	net  *transport.Bandwidth
	repo *blobseer.Deployment
	cl   *blobseer.Client

	tier     *proxy.Client
	tierMod  *mirror.Module
	tierAddr string

	dirtied uint64 // dirty calls so far: the salt that keeps every round's content fresh
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
	b.net = transport.WithBandwidth(transport.WithLatency(transport.NewInProc(), downtimeLatency), downtimeBandwidth)
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
	partner.Stage = localtier.New(chunkstore.NewMem(), b.cl.Obs)
	partner.Net = b.net
	partner.Repo = b.cl
	psrv, err := partner.Serve(b.net, "")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.closers = append(b.closers, func() { psrv.Close() })

	// Tiered node.
	tp := proxy.New()
	tp.Obs = b.cl.Obs
	tp.Stage = localtier.New(chunkstore.NewMem(), b.cl.Obs)
	tp.Net = b.net
	tp.Repo = b.cl
	tp.PartnerAddr = psrv.Addr()
	tsrv, err := tp.Serve(b.net, "")
	if err != nil {
		b.Close()
		return nil, err
	}
	b.closers = append(b.closers, func() { tsrv.Close() })
	b.tierAddr = tsrv.Addr()

	if b.tierMod, err = mirror.Attach(ctx, b.cl, baseRef); err != nil {
		b.Close()
		return nil, err
	}
	inst := vm.New("bench-tier", b.tierMod, vm.Config{BlockSize: 512})
	if err := inst.Boot(); err != nil {
		b.Close()
		return nil, err
	}
	tp.Register("bench-tier", "tok", inst, b.tierMod)
	b.tier = &proxy.Client{Net: b.net, Addr: b.tierAddr, VMID: "bench-tier", Token: "tok"}

	// Warm the image: the clone cost is constant and paid once.
	if _, err := b.tier.RequestCheckpoint(ctx); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// dirtyDistinct overwrites the first n chunks of mod's device with bodies no
// other chunk and no other call shares: a filler pattern stamped with (salt,
// chunk index). Commits are content-addressed, so anything less lets a
// fingerprint hit hide the transfer an experiment is timing. Callers pick
// salts unique within their deployment.
func dirtyDistinct(mod *mirror.Module, n, chunkSize int, salt uint64) error {
	buf := make([]byte, chunkSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for c := 0; c < n; c++ {
		binary.LittleEndian.PutUint64(buf, salt)
		binary.LittleEndian.PutUint64(buf[8:], uint64(c))
		if _, err := mod.WriteAt(buf, int64(c)*int64(chunkSize)); err != nil {
			return err
		}
	}
	return nil
}

// dirty rewrites chunks chunks of the tiered image with content no earlier
// round of this bench wrote, so no fingerprint shortcut can hide the
// transfer cost.
func (b *tierBench) dirty(chunks int) error {
	b.dirtied++
	return dirtyDistinct(b.tierMod, chunks, downtimeChunk, b.dirtied)
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
			if err := b.dirty(chunks); err != nil {
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
