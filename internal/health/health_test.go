package health

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// TestEngineFireResolveHysteresis walks one per-node threshold rule through
// its full life cycle: FireAfter consecutive breaches before the alert
// fires, ResolveAfter consecutive clears before it resolves, and a breach
// streak broken by one clear evaluation starting over from zero.
func TestEngineFireResolveHysteresis(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.StartHistory(0, 32)
	g := reg.Gauge("queue_depth", obs.L(NodeLabel, "n-1"))
	rule := Rule{
		Name:      "queue-deep",
		Signal:    Signal{Metric: "queue_depth", Agg: AggGaugeLast},
		PerNode:   true,
		Windows:   []time.Duration{time.Hour},
		Threshold: 100,
		FireAfter: 2, ResolveAfter: 2,
	}
	eng := NewEngine(reg, []Rule{rule})
	var fired, resolved []Alert
	eng.OnFire = func(a Alert) { fired = append(fired, a) }
	eng.OnResolve = func(a Alert) { resolved = append(resolved, a) }
	tick := func(depth int64) []Alert {
		g.Set(depth)
		h.Sample()
		return eng.Eval(h)
	}

	if active := tick(500); len(active) != 0 || len(fired) != 0 {
		t.Fatalf("fired after 1 breach with FireAfter 2: active %v", active)
	}
	active := tick(500)
	if len(fired) != 1 || len(active) != 1 {
		t.Fatalf("not firing after 2 breaches: fired %v active %v", fired, active)
	}
	a := fired[0]
	if a.Rule != "queue-deep" || a.Node != "n-1" || a.Value != 500 || a.Name() != "queue-deep(n-1)" {
		t.Errorf("fired alert %+v", a)
	}
	if a.Since.IsZero() || a.Since.After(time.Now()) {
		t.Errorf("alert Since not stamped at the breach streak's start: %v", a.Since)
	}
	snap := reg.Snapshot()
	if p := obs.Find(snap, "health_alert_active", obs.L("alert", "queue-deep"), obs.L(NodeLabel, "n-1")); p == nil || p.GaugeValue != 1 {
		t.Errorf("health_alert_active gauge not set: %+v", p)
	}
	if p := obs.Find(snap, "health_alerts_fired_total", obs.L("alert", "queue-deep")); p == nil || p.Value != 1 {
		t.Errorf("fired counter: %+v", p)
	}
	if ok, firing := eng.Status(); ok || len(firing) != 1 || firing[0] != "queue-deep(n-1)" {
		t.Errorf("Status while firing: ok=%v firing=%v", ok, firing)
	}

	if active := tick(10); len(active) != 1 || len(resolved) != 0 {
		t.Fatalf("resolved after 1 clear with ResolveAfter 2: active %v", active)
	}
	if active := tick(10); len(active) != 0 || len(resolved) != 1 {
		t.Fatalf("not resolved after 2 clears: active %v resolved %v", active, resolved)
	}
	snap = reg.Snapshot()
	if p := obs.Find(snap, "health_alert_active", obs.L("alert", "queue-deep"), obs.L(NodeLabel, "n-1")); p == nil || p.GaugeValue != 0 {
		t.Errorf("health_alert_active not cleared: %+v", p)
	}
	if p := obs.Find(snap, "health_alerts_resolved_total", obs.L("alert", "queue-deep")); p == nil || p.Value != 1 {
		t.Errorf("resolved counter: %+v", p)
	}
	if ok, _ := eng.Status(); !ok {
		t.Error("Status still degraded after resolve")
	}

	// A clear evaluation resets the breach streak: breach, clear, breach must
	// not fire with FireAfter 2.
	tick(500)
	tick(10)
	tick(500)
	if len(fired) != 1 {
		t.Errorf("interrupted breach streak fired anyway: %v", fired)
	}
}

// TestEngineMultiWindowBurnRate: with two windows that must both breach, an
// old spike stays quiet (the short window has gone clear) and only a
// sustained burn fires — the burn-rate semantics of the backlog rule.
func TestEngineMultiWindowBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.StartHistory(0, 32)
	g := reg.Gauge("backlog_bytes")
	rule := Rule{
		Name:      "backlog-growing",
		Signal:    Signal{Metric: "backlog_bytes", Agg: AggGaugeDelta},
		Windows:   []time.Duration{500 * time.Millisecond, time.Hour},
		Threshold: 1 << 20,
		FireAfter: 1, ResolveAfter: 1,
	}
	eng := NewEngine(reg, []Rule{rule})

	g.Set(0)
	h.Sample()
	g.Set(8 << 20) // the spike
	h.Sample()
	time.Sleep(750 * time.Millisecond) // let the short window forget it
	g.Set(8 << 20)
	h.Sample()
	if active := eng.Eval(h); len(active) != 0 {
		t.Fatalf("old spike fired the burn-rate rule: %v (short window should be clear)", active)
	}

	// Growth inside the short window too: both windows breach, fires.
	g.Set(16 << 20)
	h.Sample()
	if active := eng.Eval(h); len(active) != 1 {
		t.Fatalf("sustained burn did not fire: %v", active)
	}
}

// TestEngineUnevaluableNeverBreaches: absent series, empty histograms and
// zero-denominator ratios make a rule unevaluable for the window — no data
// must never fire, even for Below rules whose threshold any value under it
// would breach.
func TestEngineUnevaluableNeverBreaches(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.StartHistory(0, 8)
	reg.Counter("hits_total").Add(100)
	reg.Counter("lookups_total") // exists, never increments: zero rate
	h.Sample()
	reg.Counter("hits_total").Add(100)
	h.Sample()

	rules := []Rule{
		{
			Name:      "missing-metric",
			Signal:    Signal{Metric: "no_such_series", Agg: AggGaugeLast},
			Windows:   []time.Duration{time.Hour},
			Threshold: -1, // any value would breach
		},
		{
			Name: "zero-denominator",
			Signal: Signal{
				Metric: "hits_total", Agg: AggRate,
				Div: &Signal{Metric: "lookups_total", Agg: AggRate},
			},
			Windows:   []time.Duration{time.Hour},
			Threshold: 0.01,
		},
		{
			Name:    "below-with-no-data",
			Signal:  Signal{Metric: "no_such_ratio", Agg: AggRate},
			Windows: []time.Duration{time.Hour},
			Below:   true, Threshold: 1e12,
		},
	}
	eng := NewEngine(reg, rules)
	if active := eng.Eval(h); len(active) != 0 {
		t.Errorf("unevaluable signals fired: %v", active)
	}
}

// introspectOnly is an endpoint that answers the introspection ops from reg
// and nothing else.
func introspectOnly(reg *obs.Registry) transport.Handler {
	return transport.Introspect(func() *obs.Registry { return reg }, func(context.Context, []byte) ([]byte, error) {
		return nil, errors.New("not an introspection op")
	})
}

// TestFederatorMergeAndNodeDeath runs federation sweeps over two
// endpoints while one node's registry is concurrently updated, then
// partitions a node away mid-fleet: the survivor's fresh values keep
// arriving, the dead node keeps its last imported values with
// federation_node_up dropped to 0, and healing brings it back. The
// concurrent updates make this meaningful under -race.
func TestFederatorMergeAndNodeDeath(t *testing.T) {
	net := transport.NewInProc()
	serve := func(reg *obs.Registry) transport.Server {
		srv, err := net.Listen("", introspectOnly(reg))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	reg0, reg1 := obs.NewRegistry(), obs.NewRegistry()
	reg0.Counter("pings_total").Add(3)
	reg1.Counter("pings_total").Add(5)
	reg1.Gauge("depth").Set(17)
	srv0 := serve(reg0)
	defer srv0.Close()
	srv1 := serve(reg1)
	defer srv1.Close()

	cluster := obs.NewRegistry()
	f := &Federator{Net: net, Reg: cluster, Timeout: time.Second}
	targets := []Target{
		{Node: "n-0", Addr: srv0.Addr()},
		{Node: "n-1", Addr: srv1.Addr()},
	}
	ctx := context.Background()

	// Hammer one source registry while the sweep scrapes it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			reg0.Counter("pings_total").Inc()
			reg0.Gauge("depth").Set(int64(i))
		}
	}()
	f.Scrape(ctx, targets)
	wg.Wait()

	snap := cluster.Snapshot()
	if p := obs.Find(snap, "pings_total", obs.L(NodeLabel, "n-0")); p == nil || p.Value < 3 {
		t.Errorf("n-0 counter not federated: %+v", p)
	}
	if p := obs.Find(snap, "pings_total", obs.L(NodeLabel, "n-1")); p == nil || p.Value != 5 {
		t.Errorf("n-1 counter not federated: %+v", p)
	}
	for _, n := range []string{"n-0", "n-1"} {
		if p := obs.Find(snap, "federation_node_up", obs.L(NodeLabel, n)); p == nil || p.GaugeValue != 1 {
			t.Errorf("federation_node_up{node=%s} = %+v, want 1", n, p)
		}
	}
	if p := obs.Find(snap, "federation_rounds_total"); p == nil || p.Value != 1 {
		t.Errorf("rounds counter: %+v", p)
	}
	if p := obs.Find(snap, "federation_scrapes_total"); p == nil || p.Value != 2 {
		t.Errorf("scrapes counter: %+v", p)
	}

	// n-1 dies; n-0 keeps moving.
	net.Partition(srv1.Addr())
	reg0.Counter("pings_total").Add(1000)
	f.Scrape(ctx, targets)
	snap = cluster.Snapshot()
	if p := obs.Find(snap, "federation_node_up", obs.L(NodeLabel, "n-1")); p == nil || p.GaugeValue != 0 {
		t.Errorf("dead node still up: %+v", p)
	}
	if p := obs.Find(snap, "federation_node_up", obs.L(NodeLabel, "n-0")); p == nil || p.GaugeValue != 1 {
		t.Errorf("survivor marked down: %+v", p)
	}
	if p := obs.Find(snap, "federation_scrape_errors_total", obs.L(NodeLabel, "n-1")); p == nil || p.Value != 1 {
		t.Errorf("error counter for the dead node: %+v", p)
	}
	if p := obs.Find(snap, "pings_total", obs.L(NodeLabel, "n-0")); p == nil || p.Value < 1003 {
		t.Errorf("survivor's fresh values not imported: %+v", p)
	}
	// The dead node's last values survive: the failure detector, not the
	// scraper, decides what silence means.
	if p := obs.Find(snap, "depth", obs.L(NodeLabel, "n-1")); p == nil || p.GaugeValue != 17 {
		t.Errorf("dead node's last imported gauge lost: %+v", p)
	}

	net.Heal(srv1.Addr())
	f.Scrape(ctx, targets)
	if p := obs.Find(cluster.Snapshot(), "federation_node_up", obs.L(NodeLabel, "n-1")); p == nil || p.GaugeValue != 1 {
		t.Errorf("healed node still down: %+v", p)
	}
}

// TestFederatedRingDrivesEngine wires the full loop the supervisor runs:
// scrape → manual ring sample → rule evaluation, with a per-node rule firing
// for exactly the node whose federated series breaches.
func TestFederatedRingDrivesEngine(t *testing.T) {
	net := transport.NewInProc()
	regs := map[string]*obs.Registry{"n-0": obs.NewRegistry(), "n-1": obs.NewRegistry()}
	var targets []Target
	for node, reg := range regs {
		reg := reg
		srv, err := net.Listen("", introspectOnly(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		targets = append(targets, Target{Node: node, Addr: srv.Addr()})
	}

	cluster := obs.NewRegistry()
	h := cluster.StartHistory(0, 16)
	f := &Federator{Net: net, Reg: cluster, Timeout: time.Second}
	eng := NewEngine(cluster, []Rule{{
		Name:      "backlog-growing",
		Signal:    Signal{Metric: "backlog_bytes", Agg: AggGaugeDelta},
		PerNode:   true,
		Windows:   []time.Duration{time.Hour},
		Threshold: 1 << 20,
		FireAfter: 1, ResolveAfter: 1,
	}})
	ctx := context.Background()
	round := func() []Alert {
		f.Scrape(ctx, targets)
		h.Sample()
		return eng.Eval(h)
	}

	regs["n-0"].Gauge("backlog_bytes").Set(0)
	regs["n-1"].Gauge("backlog_bytes").Set(0)
	if active := round(); len(active) != 0 {
		t.Fatalf("quiet baseline fired: %v", active)
	}
	regs["n-1"].Gauge("backlog_bytes").Set(4 << 20) // only n-1 grows
	active := round()
	if len(active) != 1 || active[0].Node != "n-1" {
		t.Fatalf("per-node rule fired for the wrong entity: %v", active)
	}
}
