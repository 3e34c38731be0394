package transport_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/supervisor"
	"blobcr/internal/transport"
)

// endpointKinds serves one endpoint of every kind the plane runs, observed
// by reg. foreign names ops other protocols own, which the endpoint must
// refuse as unknown.
var endpointKinds = []struct {
	name    string
	serve   func(n transport.Network, reg *obs.Registry) (transport.Server, error)
	foreign []string
}{
	{"proxy", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		p := proxy.New()
		p.Obs = reg
		return p.Serve(n, "")
	}, []string{"cas-ref-batch", "EVENTS"}},
	{"supervisor", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		return supervisor.New(nil, nil, supervisor.Config{Obs: reg}).Serve(n, "")
	}, []string{"PING", "create"}},
	{"version manager", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		vm := blobseer.NewVersionManager()
		vm.Obs = reg
		return vm.Serve(n, "")
	}, []string{"DRAINFOR"}},
	{"provider manager", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		pm := blobseer.NewProviderManager()
		pm.Obs = reg
		return pm.Serve(n, "")
	}, []string{"stage-put"}},
	{"metadata provider", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		mp := blobseer.NewMetadataProvider()
		mp.Obs = reg
		return mp.Serve(n, "")
	}, []string{"FLIGHT"}},
	{"data provider", func(n transport.Network, reg *obs.Registry) (transport.Server, error) {
		dp := blobseer.NewDataProvider(cas.NewMem())
		dp.Obs = reg
		return dp.Serve(n, "")
	}, []string{"CHECKPOINT"}},
}

// opNamed finds the op byte registered under name.
func opNamed(t *testing.T, name string) byte {
	t.Helper()
	for op := 0; op < 256; op++ {
		if transport.OpName(byte(op)) == name {
			return byte(op)
		}
	}
	t.Fatalf("no op registered as %q", name)
	return 0
}

// TestIntrospectEveryEndpoint runs the five introspection ops against every
// endpoint kind over both terminal networks, through the one client: each
// endpoint answers from its own registry, and a malformed introspection
// request is refused before the endpoint's own dispatch sees it. An op
// another protocol owns is refused as unknown before anything after the op
// byte is decoded.
func TestIntrospectEveryEndpoint(t *testing.T) {
	networks := []struct {
		name string
		open func() transport.Network
	}{
		{"inproc", func() transport.Network { return transport.NewInProc() }},
		{"tcp", func() transport.Network { return transport.NewTCP() }},
	}
	for _, nc := range networks {
		for _, kind := range endpointKinds {
			t.Run(nc.name+"/"+kind.name, func(t *testing.T) {
				n := nc.open()
				if c, ok := n.(interface{ Close() error }); ok {
					t.Cleanup(func() { c.Close() })
				}
				reg := obs.NewRegistry()
				srv, err := kind.serve(n, reg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				for _, name := range kind.foreign {
					// A frame far too short for any op's fields: only the op
					// byte may be read before the refusal.
					req := []byte{opNamed(t, name), 0xFF}
					if _, err := n.Call(context.Background(), srv.Addr(), req); err == nil || !strings.Contains(err.Error(), "unknown op") {
						t.Errorf("foreign op %s (0x%02X): err = %v, want an unknown-op refusal", name, req[0], err)
					}
				}
				testIntrospectEndpoint(t, n, srv, reg)
			})
		}
	}
}

// wideSeries is a metrics exposition past 4 MiB, parsed. Histograms with
// every bucket set and kilobyte label values make it large from few lines,
// which is what rendering and parsing cost. It is built once, and every
// endpoint case imports the same series into its endpoint's registry.
var wideSeries = sync.OnceValues(func() ([]obs.Point, error) {
	reg := obs.NewRegistry()
	pad := strings.Repeat("x", 1000)
	for i := 0; i < 64; i++ {
		h := reg.Histogram("wide_ns", obs.L("instance", fmt.Sprintf("%s-%04d", pad, i)))
		for b := 0; b < 64; b++ {
			h.Observe(1 << b)
		}
	}
	reg.Counter("marker_total").Add(7)
	text := reg.PromText()
	if len(text) <= 4<<20 {
		return nil, fmt.Errorf("exposition only %d bytes, need > 4 MiB to exercise chunking", len(text))
	}
	return obs.ParseProm(text)
})

func testIntrospectEndpoint(t *testing.T, n transport.Network, srv transport.Server, reg *obs.Registry) {
	ctx := context.Background()
	addr := srv.Addr()

	// Metrics: an exposition past 4 MiB arrives whole over the
	// continuations, and is exactly the series the endpoint's registry
	// holds: its own, and the shared wide set imported beside them.
	wide, err := wideSeries()
	if err != nil {
		t.Fatal(err)
	}
	own, err := obs.ParseProm(reg.PromText())
	if err != nil {
		t.Fatal(err)
	}
	reg.Import(wide)
	points, err := transport.Metrics(ctx, n, addr)
	if err != nil {
		t.Fatal(err)
	}
	var gotWide, gotOwn []obs.Point
	for _, p := range points {
		if p.Name == "wide_ns" || p.Name == "marker_total" {
			gotWide = append(gotWide, p)
		} else {
			gotOwn = append(gotOwn, p)
		}
	}
	if !reflect.DeepEqual(gotWide, wide) || len(gotOwn) != len(own) || len(own) > 0 && !reflect.DeepEqual(gotOwn, own) {
		t.Errorf("metrics: scraped %d points that differ from the exposition's %d", len(points), len(wide)+len(own))
	}
	if p := obs.Find(points, "marker_total"); p == nil || p.Value != 7 {
		t.Errorf("metrics: marker_total = %+v, want 7", p)
	}

	// Trace by id and flight.
	tctx, trace := obs.BeginTrace(obs.WithRegistry(ctx, reg))
	_, sp := obs.StartSpan(tctx, "op/introspected")
	sp.End()
	spans, err := transport.Trace(ctx, n, addr, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "op/introspected" || spans[0].Trace != trace {
		t.Errorf("trace: %+v", spans)
	}
	if _, err := transport.Trace(ctx, n, addr, 0); err == nil {
		t.Error("trace: zero trace id accepted")
	}
	flight, err := transport.Flight(ctx, n, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(flight) == 0 || flight[len(flight)-1].Name != "op/introspected" {
		t.Errorf("flight: %+v", flight)
	}

	// History: an error without a ring, windowed deltas with one.
	if _, err := transport.History(ctx, n, addr, time.Minute); err == nil || !strings.Contains(err.Error(), "no history ring") {
		t.Errorf("history without a ring: err = %v", err)
	}
	h := reg.StartHistory(0, 8)
	reg.Counter("demo_total").Add(2)
	h.Sample()
	reg.Counter("demo_total").Add(5)
	h.Sample()
	rep, err := transport.History(ctx, n, addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window != 10*time.Second || rep.Samples != 2 {
		t.Errorf("history header: %+v", rep)
	}
	if st := rep.Find("demo_total"); st == nil || st.Delta != 5 {
		t.Errorf("history delta: %+v", st)
	}

	// Health: OK, then DEGRADED with the firing alerts.
	if ok, firing, err := transport.Health(ctx, n, addr); err != nil || !ok || len(firing) != 0 {
		t.Errorf("health: ok=%v firing=%v err=%v, want OK", ok, firing, err)
	}
	reg.SetHealth(func() (bool, []string) { return false, []string{"a(n-1)", "b"} })
	if ok, firing, err := transport.Health(ctx, n, addr); err != nil || ok || strings.Join(firing, " ") != "a(n-1) b" {
		t.Errorf("health: ok=%v firing=%v err=%v, want DEGRADED a(n-1) b", ok, firing, err)
	}

	// Malformed introspection requests: the wrapper refuses them, so the
	// endpoint's own dispatch (which answers "unknown op") never sees them.
	for _, req := range [][]byte{
		{transport.OpTraceGet, 1, 2},
		{transport.OpTraceGet, 0, 0, 0, 0, 0, 0, 0, 0},
		{transport.OpHistoryGet, 0, 0, 0, 0},
		{transport.OpMetricsGet, 0, 0},
		{transport.OpFlightGet, 1},
		{transport.OpHealthGet, 'n', 'o', 'w'},
	} {
		if _, err := n.Call(ctx, addr, req); err == nil || !strings.Contains(err.Error(), "bad "+transport.OpName(req[0])+" request") {
			t.Errorf("malformed request % x: err = %v", req, err)
		}
	}

	// A partitioned endpoint is an error on every op, not an empty answer.
	if fn, ok := n.(transport.FaultNetwork); ok {
		fn.Partition(addr)
	} else {
		srv.Close()
	}
	if _, err := transport.Metrics(ctx, n, addr); err == nil {
		t.Error("metrics from a partitioned endpoint accepted")
	}
	if _, err := transport.Trace(ctx, n, addr, trace); err == nil {
		t.Error("trace from a partitioned endpoint accepted")
	}
	if _, err := transport.Flight(ctx, n, addr); err == nil {
		t.Error("flight from a partitioned endpoint accepted")
	}
	if _, err := transport.History(ctx, n, addr, time.Minute); err == nil {
		t.Error("history from a partitioned endpoint accepted")
	}
	if _, _, err := transport.Health(ctx, n, addr); err == nil {
		t.Error("health from a partitioned endpoint accepted")
	}
}
