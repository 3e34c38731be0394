package obs

import (
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestHistoryWindowStats drives one ring through manual samples and checks
// each kind's windowed reduction: counter delta and rate, gauge
// first/last/min/max across samples, and histogram count/sum/quantiles
// restricted to the window's observations.
func TestHistoryWindowStats(t *testing.T) {
	reg := NewRegistry()
	h := reg.StartHistory(0, 8)
	c := reg.Counter("reqs_total")
	g := reg.Gauge("depth")
	hs := reg.Histogram("lat_ns")

	c.Add(5)
	g.Set(10)
	hs.Observe(100) // before the baseline: must not count in the window
	h.Sample()
	c.Add(7)
	g.Set(3)
	hs.Observe(1000)
	hs.Observe(1000)
	h.Sample()
	g.Set(20)
	h.Sample()

	rep := h.Window(time.Hour)
	if rep.Samples != 3 {
		t.Fatalf("Samples = %d, want 3", rep.Samples)
	}
	if rep.Span <= 0 {
		t.Errorf("Span = %v, want > 0", rep.Span)
	}
	cs := rep.Find("reqs_total")
	if cs == nil || cs.Kind != KindCounter {
		t.Fatalf("counter stat missing: %+v", cs)
	}
	if cs.Delta != 7 {
		t.Errorf("counter Delta = %d, want 7 (increase after the baseline)", cs.Delta)
	}
	if cs.Rate <= 0 {
		t.Errorf("counter Rate = %g, want > 0", cs.Rate)
	}
	gs := rep.Find("depth")
	if gs == nil || gs.Kind != KindGauge {
		t.Fatalf("gauge stat missing: %+v", gs)
	}
	if gs.First != 10 || gs.Last != 20 || gs.Min != 3 || gs.Max != 20 {
		t.Errorf("gauge first/last/min/max = %d/%d/%d/%d, want 10/20/3/20",
			gs.First, gs.Last, gs.Min, gs.Max)
	}
	hst := rep.Find("lat_ns")
	if hst == nil || hst.Kind != KindHistogram {
		t.Fatalf("histogram stat missing: %+v", hst)
	}
	if hst.Count != 2 || hst.Sum != 2000 {
		t.Errorf("histogram count/sum = %d/%d, want 2/2000 (baseline observation excluded)",
			hst.Count, hst.Sum)
	}
	if hst.Mean != 1000 {
		t.Errorf("histogram mean = %g, want 1000", hst.Mean)
	}
	// Both in-window observations (1000) land in the (512, 1023] bucket; the
	// interpolated quantiles must stay inside it.
	for _, q := range []float64{hst.P50, hst.P99} {
		if q <= 512 || q > 1023 {
			t.Errorf("quantile %g outside the (512, 1023] bucket of value 1000", q)
		}
	}
}

// TestHistoryRingWrapFoldsBaseline fills a ring past capacity: the evicted
// deltas must fold forward, so the oldest retained sample decodes to a
// complete baseline — including series that stopped changing long before the
// wrap (the delta encoding retains them only in folded state).
func TestHistoryRingWrapFoldsBaseline(t *testing.T) {
	reg := NewRegistry()
	h := reg.StartHistory(0, 4)
	c := reg.Counter("ticks_total")
	g := reg.Gauge("round")
	reg.Counter("static_total").Add(42) // never changes after the first sample

	for i := 1; i <= 10; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Sample()
	}

	rep := h.Window(time.Hour)
	if rep.Samples != 4 {
		t.Fatalf("Samples = %d, want the ring capacity 4", rep.Samples)
	}
	cs := rep.Find("ticks_total")
	if cs == nil || cs.Delta != 3 {
		t.Fatalf("counter delta over the retained window = %+v, want Delta 3 (samples 7..10)", cs)
	}
	gs := rep.Find("round")
	if gs == nil || gs.First != 7 || gs.Last != 10 || gs.Min != 7 || gs.Max != 10 {
		t.Fatalf("gauge window = %+v, want first/last/min/max 7/10/7/10", gs)
	}
	// The static counter only ever appeared in the long-evicted first delta;
	// folding must have carried it into the retained baseline.
	st := rep.Find("static_total")
	if st == nil {
		t.Fatal("series that stopped changing was lost on ring wrap")
	}
	if st.Delta != 0 {
		t.Errorf("static counter Delta = %d, want 0", st.Delta)
	}
}

// TestMarshalParseWindowRoundTrip: ParseWindow is MarshalWindow's exact
// inverse, including label values needing quoting and negative gauges.
func TestMarshalParseWindowRoundTrip(t *testing.T) {
	rep := WindowReport{
		Window:  time.Minute,
		Span:    5500 * time.Millisecond,
		Samples: 12,
		Stats: []WindowStat{
			{Name: "a_total", Kind: KindCounter, Delta: 42, Rate: 7.636363636363637},
			{
				Name:   "b_total",
				Labels: []Label{L("node", "n-1"), L("verb", "chunk put")},
				Kind:   KindCounter, Delta: 3, Rate: 0.5454,
			},
			{
				Name:   "g",
				Labels: []Label{L("node", `quo"ted`)},
				Kind:   KindGauge, First: -3, Last: 9, Min: -7, Max: 11,
			},
			{
				Name: "h_ns", Kind: KindHistogram,
				Count: 100, Sum: 12345, Mean: 123.45, P50: 96.5, P99: 1020.25,
			},
		},
	}
	got, err := ParseWindow(MarshalWindow(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

// TestParseWindowRejectsCorrupt: the strict parser refuses malformed and
// truncated frames outright instead of half-applying them.
func TestParseWindowRejectsCorrupt(t *testing.T) {
	const head = "window 60 span 5 samples 2\n"
	for _, tc := range []struct {
		name, frame string
	}{
		{"empty", ""},
		{"junk header", "junk\n"},
		{"negative window", "window -1 span 0 samples 0\n"},
		{"non-numeric samples", "window 60 span 5 samples x\n"},
		{"series without values", head + "counter foo\n"},
		{"unknown kind", head + "widget foo delta=1\n"},
		{"unknown key", head + "counter foo delta=1 rate=2 bogus=3\n"},
		{"missing key", head + "counter foo delta=1\n"},
		{"duplicate key", head + "counter foo delta=1 delta=2 rate=3\n"},
		{"bad value", head + "counter foo delta=abc rate=1\n"},
		{"kind mismatch values", head + "gauge g delta=1 rate=2\n"},
		{"unterminated labels", head + `gauge g{node="x first=1` + "\n"},
		{"truncated mid-line", head + "hist h_ns count=5 sum=10 mean=2 p50="},
	} {
		if _, err := ParseWindow([]byte(tc.frame)); err == nil {
			t.Errorf("%s: corrupt frame accepted", tc.name)
		}
	}
}

// TestImportFederation: Import files scraped points under the extra labels,
// maps histogram buckets onto the registry's own ring slots, skips points
// already carrying a federation label, and overwrites (counter regression
// shows the new value) rather than accumulating.
func TestImportFederation(t *testing.T) {
	src := NewRegistry()
	src.Counter("c_total").Add(9)
	src.Gauge("g").Set(-4)
	sh := src.Histogram("h_ns")
	sh.Observe(3)
	sh.Observe(300)
	sh.Observe(70000)

	dst := NewRegistry()
	dst.Import(src.Snapshot(), L("node", "n-0"))
	snap := dst.Snapshot()
	if p := Find(snap, "c_total", L("node", "n-0")); p == nil || p.Value != 9 {
		t.Errorf("counter not imported under node label: %+v", p)
	}
	if p := Find(snap, "g", L("node", "n-0")); p == nil || p.GaugeValue != -4 {
		t.Errorf("gauge not imported under node label: %+v", p)
	}
	hp := Find(snap, "h_ns", L("node", "n-0"))
	if hp == nil || hp.Count != 3 || hp.Sum != 70303 {
		t.Fatalf("histogram not imported: %+v", hp)
	}
	want := Find(src.Snapshot(), "h_ns")
	if !reflect.DeepEqual(hp.Buckets, want.Buckets) {
		t.Errorf("imported buckets %+v differ from source %+v", hp.Buckets, want.Buckets)
	}

	// Re-importing an already-federated snapshot must be a no-op: every point
	// carries node= already, so no node-labeled copies of node-labeled copies.
	before := len(dst.Snapshot())
	dst.Import(dst.Snapshot(), L("node", "n-9"))
	after := dst.Snapshot()
	if len(after) != before {
		t.Errorf("re-import minted %d new series", len(after)-before)
	}
	if p := Find(after, "c_total", L("node", "n-9")); p != nil {
		t.Errorf("already-labeled point re-filed under a second node: %+v", p)
	}

	// A restarted node scrapes lower: the value is replaced, not summed.
	dst.Import([]Point{{Name: "c_total", Kind: KindCounter, Value: 2}}, L("node", "n-0"))
	if p := Find(dst.Snapshot(), "c_total", L("node", "n-0")); p == nil || p.Value != 2 {
		t.Errorf("counter regression not overwritten: %+v", p)
	}
}

// TestHealthzEndpoint: the debug listener's /healthz flips from 200 to 503
// with the alert names when the registry's health callback degrades.
func TestHealthzEndpoint(t *testing.T) {
	reg := NewRegistry()
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get("http://" + srv.Addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthy /healthz = %d %q", code, body)
	}
	reg.SetHealth(func() (bool, []string) { return false, []string{"backlog(n-2)"} })
	if code, body := get(); code != http.StatusServiceUnavailable || body != "degraded: backlog(n-2)\n" {
		t.Errorf("degraded /healthz = %d %q", code, body)
	}
}
