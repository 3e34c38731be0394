// Cluster-health-plane experiment: how fast does the federated SLO engine
// turn a throttled remote plane into a firing alert?
//
// The setup is the full production shape: a LocalTier cloud with per-node
// registries (cloud.Config.Health), a supervisor federating every proxy's
// and data provider's metrics into its own ringed registry each round
// (supervisor.Config.Health), and a drain-backlog burn-rate rule over that
// ring. A background workload checkpoints continuously; mid-run the remote
// plane is throttled to healthStarvedBW per provider, so staged captures
// pile up in the local tiers faster than the drains can publish them. The
// supervisor does not observe the throttle directly — it only sees the
// node= labeled backlog gauges its own heartbeat piggyback collects, and
// the rule fires when their growth over the window is sustained.
//
// Detection latency is measured in federation rounds, not wall-clock: the
// alert event's round= detail (stamped from federation_rounds_total at fire
// time) minus the round counter read when the throttle landed. That is the
// unit the promise is made in — "fires within 2 scrape periods" — and it is
// immune to scheduler jitter stretching the rounds themselves. After the
// throttle lifts the drains catch up, the growth leaves the window, and the
// run waits for the resolution event. Finally one metrics scrape of the
// supervisor endpoint — over the wire, like blobcr-ctl top — must answer
// with every node's series (node= label coverage), proving a single
// federated endpoint carries the fleet.
package bench

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"blobcr/internal/cloud"
	"blobcr/internal/health"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/supervisor"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

const (
	healthNodes     = 3
	healthHeartbeat = 25 * time.Millisecond
	healthFedEvery  = 4 // federation every 4th heartbeat round = 100ms period
	// healthDirtyChunks sizes each checkpoint's dirty set (x64 KB chunks).
	healthDirtyChunks = 8
	// healthStarvedBW throttles each data provider mid-run: well under the
	// staging rate, so the drain backlog must grow.
	healthStarvedBW = 2 << 20
	// healthWindow / healthGrowth: the burn-rate rule fires on more than
	// healthGrowth bytes of backlog growth over the trailing window.
	healthWindow = time.Second
	healthGrowth = 2 << 20
	// healthWarmupRounds of federation run before the throttle, so the
	// window has a full baseline and the steady state is demonstrably quiet.
	healthWarmupRounds = 15
	healthDetectBound  = 2 // acceptance: fires within this many rounds
)

// healthBenchRule is the drain-backlog burn-rate rule under test, scaled to
// the experiment's cadence (the stock DefaultRules windows assume
// production scrape periods).
func healthBenchRule() health.Rule {
	return health.Rule{
		Name:      "drain-backlog-growing",
		Signal:    health.Signal{Metric: "supervisor_drain_backlog_bytes", Agg: health.AggGaugeDelta},
		PerNode:   true,
		Windows:   []time.Duration{healthWindow},
		Threshold: healthGrowth,
		FireAfter: 1, ResolveAfter: 1,
	}
}

// HealthResult is the experiment's outcome.
type HealthResult struct {
	Nodes         int
	DetectRounds  uint64  // federation rounds from throttle to alert-firing
	DetectMillis  float64 // same gap in wall-clock
	ResolveRounds uint64  // rounds from throttle lift to alert-resolved
	ResolveMillis float64
	NodesCovered  int // nodes whose series one supervisor scrape answered for
}

// RunHealth plays the throttled-remote-plane scenario end to end and
// returns the measured detection and resolution latencies.
func RunHealth() (HealthResult, error) {
	ctx := context.Background()
	var res HealthResult
	res.Nodes = healthNodes

	lat := transport.WithLatency(transport.NewInProc(), downtimeLatency)
	net := transport.WithBandwidth(lat, downtimeBandwidth)
	cl, err := cloud.New(cloud.Config{
		Nodes:         healthNodes,
		MetaProviders: 1,
		Net:           net,
		Obs:           obs.NewRegistry(),
		LocalTier:     true,
		Health:        &health.Options{SampleEvery: 50 * time.Millisecond, HistoryCap: 128},
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()

	// Sparse base image: one written chunk, downtimeDiskMB of logical size.
	bcl := cl.Client()
	blob, err := bcl.CreateBlob(ctx, downtimeChunk)
	if err != nil {
		return res, err
	}
	info, err := bcl.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, downtimeChunk)}, downtimeDiskMB<<20)
	if err != nil {
		return res, err
	}
	base := cloud.SnapshotRef{Blob: blob, Version: info.Version}
	dep, err := cl.Deploy(ctx, healthNodes, base, vm.Config{BlockSize: 512})
	if err != nil {
		return res, err
	}
	// Warm every instance's pipeline: the first checkpoint pays the clone.
	for _, inst := range dep.Instances {
		if _, err := inst.Proxy.RequestCheckpoint(ctx); err != nil {
			return res, err
		}
	}

	supReg := obs.NewRegistry()
	sup := supervisor.New(cl, dep, supervisor.Config{
		HeartbeatEvery: healthHeartbeat,
		// The workload drives its own checkpoints; park the Young/Daly timer.
		MinInterval: time.Hour,
		MaxInterval: time.Hour,
		Obs:         supReg,
		Health: &health.Config{
			Every:      healthFedEvery,
			HistoryCap: 256,
			Rules:      []health.Rule{healthBenchRule()},
		},
	})
	srv, err := sup.Serve(net, "")
	if err != nil {
		return res, err
	}
	defer srv.Close()

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		sup.Run(runCtx) //nolint:errcheck // returns nil on cancellation
	}()
	defer func() { cancelRun(); <-runDone }()

	// The background workload: every instance keeps dirtying and
	// checkpointing, paced by local safety (the window the tier promises),
	// never by the remote plane.
	driveCtx, stopDriver := context.WithCancel(ctx)
	var driverWG sync.WaitGroup
	lastHandles := make([]uint64, len(dep.Instances))
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		for round := 1; driveCtx.Err() == nil; round++ {
			for i, inst := range dep.Instances {
				if err := dirtyDistinct(inst.Mirror, healthDirtyChunks, downtimeChunk, uint64(round)<<8|uint64(i)); err != nil {
					return
				}
				h, err := inst.Proxy.RequestCheckpointAsync(driveCtx)
				if err != nil {
					return
				}
				if _, err := inst.Proxy.WaitCheckpointLocal(driveCtx, h); err != nil {
					return
				}
				lastHandles[i] = h
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	stopDriving := func() { stopDriver(); driverWG.Wait() }
	defer stopDriving()

	rounds := func() uint64 { return supReg.Counter("federation_rounds_total").Value() }
	if err := waitFor(10*time.Second, func() bool { return rounds() >= healthWarmupRounds }); err != nil {
		return res, fmt.Errorf("bench: federation never reached %d rounds: %w", healthWarmupRounds, err)
	}
	if firing := sup.Alerts(); len(firing) != 0 {
		return res, fmt.Errorf("bench: alert %s firing before the throttle (quiet baseline violated)", firing[0].Name())
	}

	events, unsubscribe := sup.Events().Subscribe()
	defer unsubscribe()

	// Throttle the remote plane. The proxies and their partner links stay at
	// full speed — staging keeps its pace, only the drains starve.
	throttleRound := rounds()
	throttleAt := time.Now()
	for _, node := range cl.Nodes() {
		net.SetAddrBytesPerSec(node.DataAddr, healthStarvedBW)
	}
	fire, err := awaitEvent(events, supervisor.EventAlertFiring, 20*time.Second)
	if err != nil {
		return res, err
	}
	res.DetectMillis = float64(time.Since(throttleAt).Microseconds()) / 1000
	fireRound, ok := eventRound(fire.Detail)
	if !ok {
		return res, fmt.Errorf("bench: alert event carries no round=: %q", fire.Detail)
	}
	res.DetectRounds = fireRound - throttleRound

	// Lift the throttle; the drains catch up and the growth leaves the
	// window.
	liftRound := rounds()
	liftAt := time.Now()
	for _, node := range cl.Nodes() {
		net.SetAddrBytesPerSec(node.DataAddr, 0)
	}
	resolve, err := awaitEvent(events, supervisor.EventAlertResolved, 30*time.Second)
	if err != nil {
		return res, err
	}
	res.ResolveMillis = float64(time.Since(liftAt).Microseconds()) / 1000
	if r, ok := eventRound(resolve.Detail); ok && r > liftRound {
		res.ResolveRounds = r - liftRound
	}

	// Quiesce: stop the workload, publish the tail of the pipeline, wait for
	// the tiers to empty.
	stopDriving()
	for i, inst := range dep.Instances {
		if lastHandles[i] == 0 {
			continue
		}
		if _, err := inst.Proxy.WaitCheckpoint(ctx, lastHandles[i]); err != nil {
			return res, err
		}
	}
	if err := waitFor(10*time.Second, func() bool {
		for _, node := range cl.Nodes() {
			own, partner, err := proxy.Backlog(ctx, net, node.ProxyAddr)
			if err != nil || own.Checkpoints+partner.Checkpoints != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return res, fmt.Errorf("bench: tiers never drained after the throttle lifted: %w", err)
	}

	// The acceptance scrape: one metrics-get scrape of the supervisor —
	// exactly what blobcr-ctl top issues — must answer with every node's
	// liveness AND its proxy-side series.
	points, err := transport.Metrics(ctx, net, srv.Addr())
	if err != nil {
		return res, fmt.Errorf("bench: scrape federated endpoint: %w", err)
	}
	for _, node := range cl.Nodes() {
		nl := obs.L(health.NodeLabel, node.Name)
		up := obs.Find(points, "federation_node_up", nl)
		suspend := obs.Find(points, "proxy_suspend_ns", nl)
		if up != nil && up.GaugeValue == 1 && suspend != nil && suspend.Count > 0 {
			res.NodesCovered++
		}
	}
	return res, nil
}

// waitFor polls cond every 5ms until it holds or the timeout expires.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitEvent drains the subscription until an event of the wanted type.
func awaitEvent(events <-chan supervisor.Event, typ supervisor.EventType, timeout time.Duration) (supervisor.Event, error) {
	deadline := time.After(timeout)
	for {
		select {
		case e, ok := <-events:
			if !ok {
				return supervisor.Event{}, fmt.Errorf("bench: event stream closed awaiting %s", typ)
			}
			if e.Type == typ {
				return e, nil
			}
		case <-deadline:
			return supervisor.Event{}, fmt.Errorf("bench: no %s event within %v", typ, timeout)
		}
	}
}

// eventRound extracts the round= field alert events carry in their detail.
func eventRound(detail string) (uint64, bool) {
	for _, f := range strings.Fields(detail) {
		if v, found := strings.CutPrefix(f, "round="); found {
			if n, err := strconv.ParseUint(v, 10, 64); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}

// FigHealth renders the health-plane experiment and enforces the acceptance
// bounds: the alert fires within healthDetectBound federation rounds of the
// throttle, resolves after it lifts, and one federated scrape covers every
// node.
func FigHealth() Series {
	s := Series{
		Title:   "Cluster health: drain-backlog alert from the federated view (remote plane throttled to 2 MB/s)",
		XLabel:  "nodes",
		YLabel:  "rounds / ms",
		Columns: []string{"detect rounds", "detect ms", "resolve rounds", "resolve ms", "nodes covered"},
	}
	r, err := RunHealth()
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	s.Rows = append(s.Rows, Row{X: float64(r.Nodes), Values: []float64{
		float64(r.DetectRounds), r.DetectMillis,
		float64(r.ResolveRounds), r.ResolveMillis,
		float64(r.NodesCovered),
	}})
	if r.DetectRounds > healthDetectBound {
		s.Title += fmt.Sprintf(" — FAILED: alert fired %d rounds after the throttle, bound %d",
			r.DetectRounds, healthDetectBound)
	}
	if r.NodesCovered < r.Nodes {
		s.Title += fmt.Sprintf(" — FAILED: federated scrape covered %d of %d nodes",
			r.NodesCovered, r.Nodes)
	}
	s.Notes = append(s.Notes,
		fmt.Sprintf("throttle to firing alert: %d federation round(s), %.0f ms (bound: %d rounds); resolution %.0f ms after the throttle lifted",
			r.DetectRounds, r.DetectMillis, healthDetectBound, r.ResolveMillis),
		fmt.Sprintf("one supervisor scrape answered with node= series for all %d nodes", r.NodesCovered))
	return s
}
