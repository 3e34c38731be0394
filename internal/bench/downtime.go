// Downtime experiment: effective VM downtime of the synchronous commit
// (suspend-clone-commit-resume, the pre-redesign CHECKPOINT verb) versus
// the asynchronous pipeline (clone-suspend-capture-resume with the upload
// in the background). It runs the real stack — blobseer deployment, mirror
// module, vm instance, checkpointing proxy — over a latency- and
// bandwidth-injecting in-process network, and reports both wall time and
// the number of network round trips that land inside the suspend window.
// The async column stays flat as the dirty set grows because no chunk
// upload happens under suspend; the sync column grows with the dirty bytes
// that must cross the bandwidth-limited pipes under suspend. The round-trip
// counts show the batched wire protocol at work: since the parallel I/O
// engine groups a commit's chunks into per-provider frames, even the sync
// column's round trips stay constant as the dirty set grows — only its
// transfer time scales.
package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// DowntimeResult is one sweep point of the downtime experiment.
type DowntimeResult struct {
	DirtyMB       float64
	SyncMillis    float64
	AsyncMillis   float64 // suspend to resume as the proxy timed it (proxy_suspend_ns)
	SyncNetCalls  uint64  // network round trips inside the suspend window
	AsyncNetCalls uint64
}

// downtimeConfig sizes the experiment; small enough to run in tests, large
// enough that the sync suspend window is dominated by chunk uploads.
const (
	downtimeChunk     = 64 * 1024
	downtimeDiskMB    = 32
	downtimeLatency   = 50 * time.Microsecond
	downtimeBandwidth = 64 << 20 // bytes/s per provider pipe
)

// RunDowntime measures effective downtime for the given dirty-set sizes
// (in chunks). Both modes ride the same deployment: a sync instance driven
// through mirror's blocking Commit, and an async instance driven through
// the proxy's CHECKPOINT verb, which resumes the VM before any upload.
func RunDowntime(dirtyChunks []int) ([]DowntimeResult, error) {
	ctx := context.Background()
	lat := transport.WithLatency(transport.NewInProc(), downtimeLatency)
	net := transport.WithBandwidth(lat, downtimeBandwidth)
	repo, err := blobseer.Deploy(net, 1, 4)
	if err != nil {
		return nil, err
	}
	defer repo.Close()
	client := repo.Client()
	// One private registry for the whole run: the proxy's METRICS verb
	// scrapes it at the end, asserting the commit pipeline actually emitted
	// its stage telemetry (the CI smoke rides this).
	client.Obs = obs.NewRegistry()

	// Base image: empty disk of downtimeDiskMB.
	base, err := client.CreateBlob(ctx, downtimeChunk)
	if err != nil {
		return nil, err
	}
	info, err := client.WriteVersion(ctx, base, map[uint64][]byte{0: make([]byte, downtimeChunk)}, downtimeDiskMB<<20)
	if err != nil {
		return nil, err
	}
	baseRef := blobseer.SnapshotRef{Blob: base, Version: info.Version}

	newInstance := func(id string) (*vm.Instance, *mirror.Module, error) {
		mod, err := mirror.Attach(ctx, client, baseRef)
		if err != nil {
			return nil, nil, err
		}
		inst := vm.New(id, mod, vm.Config{BlockSize: 512})
		// The downtime experiment writes the disk directly; booting (and its
		// file-system noise) is not needed and would only blur the numbers.
		return inst, mod, nil
	}

	syncInst, syncMod, err := newInstance("bench-sync")
	if err != nil {
		return nil, err
	}
	asyncInst, asyncMod, err := newInstance("bench-async")
	if err != nil {
		return nil, err
	}
	if err := syncInst.Boot(); err != nil {
		return nil, err
	}
	if err := asyncInst.Boot(); err != nil {
		return nil, err
	}

	p := proxy.New()
	p.Obs = client.Obs
	srv, err := p.Serve(net, "")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	p.Register("bench-async", "tok", asyncInst, asyncMod)
	asyncClient := &proxy.Client{Net: net, Addr: srv.Addr(), VMID: "bench-async", Token: "tok"}

	// Warm up both checkpoint images so Clone (a constant cost paid once per
	// VM lifetime) stays out of the measured windows.
	if err := syncMod.Clone(ctx); err != nil {
		return nil, err
	}
	if _, err := syncMod.Commit(ctx); err != nil {
		return nil, err
	}
	if _, err := asyncClient.RequestCheckpoint(ctx); err != nil {
		return nil, err
	}

	var out []DowntimeResult
	for _, chunks := range dirtyChunks {
		r := DowntimeResult{DirtyMB: float64(chunks) * downtimeChunk / (1 << 20)}

		// Synchronous: the whole commit sits inside the suspend window.
		if err := dirtyDistinct(syncMod, chunks, downtimeChunk, uint64(chunks)); err != nil {
			return nil, err
		}
		calls0 := lat.Calls()
		t0 := time.Now()
		if err := syncInst.Suspend(); err != nil {
			return nil, err
		}
		_, commitErr := syncMod.Commit(ctx)
		if err := syncInst.Resume(); err != nil {
			return nil, err
		}
		if commitErr != nil {
			return nil, commitErr
		}
		r.SyncMillis = float64(time.Since(t0).Microseconds()) / 1000
		r.SyncNetCalls = lat.Calls() - calls0

		// Asynchronous: the proxy resumes the VM after the local capture;
		// the upload happens outside the measured window.
		if err := dirtyDistinct(asyncMod, chunks, downtimeChunk, uint64(chunks)|1<<32); err != nil {
			return nil, err
		}
		// The async window contains exactly one round trip by construction —
		// the CHECKPOINT exchange itself. The background upload starts the
		// moment the capture is enqueued, so the shared counter may also see
		// its first call before this goroutine samples it: the count is
		// bounded by a small constant, never by the dirty-set size.
		// The window is the proxy's own suspend-to-resume timing, as the sync
		// side's is: the call's wall time adds the exchange's modelled latency,
		// a timer sleep that an idle runtime rounds up to a millisecond.
		calls0 = lat.Calls()
		windows := client.Obs.Histogram("proxy_suspend_ns")
		ns0 := windows.Sum()
		handle, err := asyncClient.RequestCheckpointAsync(ctx)
		if err != nil {
			return nil, err
		}
		r.AsyncMillis = float64(windows.Sum()-ns0) / 1e6
		r.AsyncNetCalls = lat.Calls() - calls0
		// Drain the pipeline before the next round so rounds don't overlap.
		if _, err := asyncClient.WaitCheckpoint(ctx, handle); err != nil {
			return nil, err
		}

		out = append(out, r)
	}
	// Scrape the proxy over the wire like an operator would and assert the
	// pipeline's stage telemetry is really there: every one of the
	// commit stages must have a non-empty span histogram, and the suspend
	// window must have been recorded. A silent instrumentation regression
	// fails the experiment, not just a dashboard.
	if err := verifyStageTelemetry(ctx, net, srv.Addr()); err != nil {
		return nil, err
	}
	return out, nil
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

// verifyStageTelemetry calls METRICS on a proxy and checks the commit
// pipeline's stage histograms and the suspend-window series are non-empty.
func verifyStageTelemetry(ctx context.Context, net transport.Network, addr string) error {
	resp, err := net.Call(ctx, addr, []byte("METRICS"))
	if err != nil {
		return fmt.Errorf("bench: scrape METRICS: %w", err)
	}
	header, body, _ := strings.Cut(string(resp), "\n")
	if header != "OK "+obs.ExpositionVersion {
		return fmt.Errorf("bench: METRICS answered %q, want OK %s", header, obs.ExpositionVersion)
	}
	points, err := obs.ParseProm(body)
	if err != nil {
		return fmt.Errorf("bench: parse METRICS exposition: %w", err)
	}
	for _, stage := range obs.CommitStages {
		p := obs.Find(points, "span_ns", obs.L("span", stage))
		if p == nil || p.Count == 0 {
			return fmt.Errorf("bench: commit pipeline emitted no %q spans — stage telemetry is broken", stage)
		}
	}
	if p := obs.Find(points, "proxy_suspend_ns"); p == nil || p.Count == 0 {
		return fmt.Errorf("bench: proxy recorded no suspend windows")
	}
	return nil
}

// FigDowntime renders the downtime experiment: effective downtime (and
// suspend-window round trips) of sync vs async commit across dirty-set
// sizes. Async downtime is flat — the capture walks the dirty index and hands
// the buffers over, copying nothing — while sync grows with the dirty set.
func FigDowntime() Series {
	s := Series{
		Title:   "Downtime: synchronous vs asynchronous commit (effective VM downtime)",
		XLabel:  "dirty MB",
		YLabel:  "ms (calls = net round trips under suspend)",
		Columns: []string{"sync ms", "async ms", "sync calls", "async calls"},
	}
	results, err := RunDowntime([]int{16, 64, 128, 256})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: r.DirtyMB, Values: []float64{
			r.SyncMillis,
			r.AsyncMillis,
			float64(r.SyncNetCalls),
			float64(r.AsyncNetCalls),
		}})
	}
	return s
}
