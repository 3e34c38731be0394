package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
)

const specPath = "../BENCHMARK.json"

// TestSmoke runs all four workloads, traced, at a fiftieth of their size and
// checks that every metric BENCHMARK.json declares is emitted exactly once
// per workload with the declared unit, and nothing else is.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-scale", "0.02", "-trace", "-spec", specPath, "-dir", filepath.Join(dir, "scratch"),
		"-json", out, "-trace-out", filepath.Join(dir, "trace.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(sp.Workloads) || len(sp.Workloads) != len(workloads) {
		t.Fatalf("workloads: ran %d, spec declares %d, program declares %d", len(rf.Workloads), len(sp.Workloads), len(workloads))
	}
	check := func(wl, kind string, declared []specMetric, got map[string]*series) {
		t.Helper()
		if len(got) != len(declared) {
			t.Errorf("%s: %d %s metrics emitted, %d declared", wl, len(got), kind, len(declared))
		}
		for _, d := range declared {
			s := got[d.Name]
			switch {
			case s == nil:
				t.Errorf("%s: %s metric %s not emitted", wl, kind, d.Name)
			case len(s.Samples) != 1:
				t.Errorf("%s: %s emitted %d times, want once", wl, d.Name, len(s.Samples))
			case s.Unit != d.Unit || s.Better != d.Better:
				t.Errorf("%s: %s is %s/%s, declared %s/%s", wl, d.Name, s.Unit, s.Better, d.Unit, d.Better)
			case math.IsNaN(s.Samples[0]) || math.IsInf(s.Samples[0], 0):
				t.Errorf("%s: %s = %v", wl, d.Name, s.Samples[0])
			}
		}
	}
	for i, sw := range sp.Workloads {
		if sw.Name != workloads[i].Name || sw.Why != workloads[i].Why {
			t.Errorf("workload %d: spec has %q, program has %q", i, sw.Name, workloads[i].Name)
		}
		wr := rf.Workloads[sw.Name]
		if wr == nil {
			t.Errorf("%s: not run", sw.Name)
			continue
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", sw.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		check(sw.Name, "end-to-end", sp.EndToEnd, wr.EndToEnd)
		check(sw.Name, "per-layer", sp.PerLayer, wr.PerLayer)
		for _, m := range sp.EndToEnd {
			if s := wr.EndToEnd[m.Name]; s != nil && len(s.Samples) == 1 && s.Samples[0] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sw.Name, m.Name, s.Samples[0])
			}
		}
		tiered := workloads[i].Tiered
		for name, s := range wr.PerLayer {
			if strings.HasPrefix(name, "localtier.") && (s.Samples[0] != 0) != tiered {
				t.Errorf("%s: %s = %v, want it to run only on the tiered workload", sw.Name, name, s.Samples[0])
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("trace not written: %v", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "scratch")); len(entries) != 0 {
		t.Errorf("scratch not removed: %d entries left", len(entries))
	}
}

// TestDeclarationsMatchSpec keeps the program's metric tables and
// BENCHMARK.json from drifting apart, bounds included.
func TestDeclarationsMatchSpec(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, decls []metricDecl, declared []specMetric, bounded bool) {
		if len(decls) != len(declared) {
			t.Fatalf("%s: program declares %d, spec %d", kind, len(decls), len(declared))
		}
		for i, d := range decls {
			s := declared[i]
			if d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
				t.Errorf("%s %d: program %+v, spec %+v", kind, i, d, s)
			}
			if bounded && (s.Bound == nil || *s.Bound != d.Bound) {
				t.Errorf("%s: bound of %s differs", kind, d.Name)
			}
		}
	}
	same("end_to_end", endToEndDecls, sp.EndToEnd, true)
	same("per_layer", perLayerDecls, sp.PerLayer, false)
}

func TestDriverLine(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-driver", "-spec", specPath, "-dir", t.TempDir(), "-scale", "0.02",
			"--workload", "incr_sparse", "--seed", "7", "--seconds", "20", "--trace", traced}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res driverResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
		}
		want := sp.EndToEnd
		if traced == "1" {
			want = sp.PerLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d metrics=%d want %d", traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or unit %q, want %q", traced, m.Name, v.Unit, m.Unit)
			}
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"--workload x --trace 0", "--workload x -trace=0"},
		{"--trace 1 --seed 3", "-trace=1 --seed 3"},
		{"-trace -probes", "-trace -probes"},
		{"-trace", "-trace"},
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(tc.in)), " "); got != tc.want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	iv := func(pairs ...int64) []interval {
		var out []interval
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, interval{pairs[i], pairs[i+1]})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		ivs      []interval
		lo, hi   int64
		wantLen  int64
		wantSelf int64 // of a span [lo, hi) with these children
	}{
		{"no children", nil, 0, 100, 0, 100},
		{"one inside", iv(10, 30), 0, 100, 20, 80},
		{"disjoint", iv(10, 30, 50, 60), 0, 100, 30, 70},
		{"overlapping", iv(10, 40, 30, 60), 0, 100, 50, 50},
		{"nested", iv(10, 90, 20, 30), 0, 100, 80, 20},
		{"unsorted", iv(50, 60, 10, 30), 0, 100, 30, 70},
		{"clipped at both ends", iv(-20, 10, 90, 150), 0, 100, 20, 80},
		{"async child outliving its parent", iv(50, 400), 0, 100, 50, 50},
		{"entirely outside", iv(200, 300), 0, 100, 0, 100},
		{"covering", iv(-5, 500), 0, 100, 100, 0},
		{"touching", iv(0, 50, 50, 100), 0, 100, 100, 0},
	} {
		if got := unionLen(append([]interval(nil), tc.ivs...), tc.lo, tc.hi); got != tc.wantLen {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.wantLen)
		}
		var kids []span
		for _, c := range tc.ivs {
			kids = append(kids, span{Start: c.lo, End: c.hi})
		}
		if got := selfTime(span{Start: tc.lo, End: tc.hi}, kids); got != tc.wantSelf {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.wantSelf)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		pct     float64
		value   float64
		comment string
	}{
		{0, 0, 0, "no samples"},
		{19, 0, 0, "p50 of 19 has only 9 beyond"},
		{20, 50, 10, "p50 of 20 has exactly 10 beyond"},
		{39, 50, 20, "p75 of 39 would leave 9"},
		{40, 75, 30, "p75 of 40 leaves 10"},
		{100, 90, 90, "p95 of 100 would leave 5"},
		{200, 95, 190, "p99 of 200 would leave 2"},
		{1000, 99, 990, "p99.9 of 1000 would leave 1"},
		{10000, 99.9, 9990, "p99.9 of 10000 leaves 10"},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.value {
			t.Errorf("n=%d (%s): tail = p%v %v, want p%v %v", tc.n, tc.comment, pct, v, tc.pct, tc.value)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{5, 1, 9, 2, 7}, [3]float64{1.5, 5, 8}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// TestFinishResolvesParents checks the three links the interposers cannot
// record themselves.
func TestFinishResolvesParents(t *testing.T) {
	r := newRecorder()
	op := r.newOp(opRestart)
	add := func(name, addr string, start, end int64, parent, opID int32) int32 {
		id, _ := r.open()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Op: opID, Addr: addr})
		r.mu.Unlock()
		return id
	}
	restart := add("restart", "", 0, 1000, -1, op)
	first := add("restart.first_read", "", 100, 500, restart, op)
	ckpt := add("ckpt.durable", "", 0, 2000, -1, r.newOp(opCkpt))
	demand := add("rpc.chunk-get-batch", "data:1", 200, 300, -1, -1) // context.Background: no link
	other := add("rpc.chunk-get-batch", "data:2", 200, 300, first, op)
	srv := add("srv.chunk-get-batch", "data:1", 220, 280, -1, -1)
	get := add("store.get", "data:1", 230, 250, -1, -1)
	stray := add("store.put", "data:3", 230, 250, -1, -1) // compaction: nobody's child
	tr := r.finish()
	_ = ckpt
	for _, tc := range []struct {
		name   string
		id     int32
		parent int32
		kind   opKind
	}{
		{"demand read adopted by the restart leaf, not the overlapping checkpoint", demand, first, opRestart},
		{"linked call keeps its parent", other, first, opRestart},
		{"handler under the call to its own address", srv, demand, opRestart},
		{"store call under the handler", get, srv, opRestart},
		{"background store call stays an orphan", stray, -1, opNone},
	} {
		s := tr.spans[tc.id]
		if s.Parent != tc.parent || tr.kind(s) != tc.kind {
			t.Errorf("%s: parent %d kind %d, want parent %d kind %d", tc.name, s.Parent, tr.kind(s), tc.parent, tc.kind)
		}
	}
}

// fakeEngine is a backend with every optional ability, to see them through
// the interposer.
type fakeEngine struct {
	*chunkstore.Mem
	compacted, closed int
}

func (f *fakeEngine) EngineStats() chunkstore.EngineStats {
	return chunkstore.EngineStats{Backend: "fake", Fields: []chunkstore.EngineField{{Name: "fsyncs", Value: 7}}}
}

func (f *fakeEngine) CompactNow() (chunkstore.CompactResult, error) {
	f.compacted++
	return chunkstore.CompactResult{Segments: 3}, nil
}

func (f *fakeEngine) Close() error {
	f.closed++
	return errors.New("closed once")
}

func TestTracedStoreForwards(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	tracedOver := func(inner chunkstore.Store) *tracedStore {
		s := newTracedStore(inner, rec)
		s.setAddr("data:1")
		return s
	}
	inner := &fakeEngine{Mem: chunkstore.NewMem()}
	var s chunkstore.Store = tracedOver(inner)

	k := chunkstore.Key{Blob: 1, ID: 2}
	if err := s.Put(k, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err != nil || string(got) != "body" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if es := chunkstore.StatsOf(s); es.Backend != "fake" || es.Field("fsyncs") != 7 {
		t.Errorf("EngineStats not forwarded: %+v", es)
	}
	if res, err := s.(chunkstore.Compactor).CompactNow(); err != nil || res.Segments != 3 || inner.compacted != 1 {
		t.Errorf("CompactNow not forwarded: %+v %v", res, err)
	}
	if keys := s.(interface{ Keys() []chunkstore.Key }).Keys(); len(keys) != 1 || keys[0] != k {
		t.Errorf("Keys not forwarded: %v", keys)
	}
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := s.(interface{ Close() error }).Close(); err == nil || inner.closed != 1 {
		t.Errorf("Close not forwarded: %v, closed %d times", err, inner.closed)
	}
	// The CAS layer must see through the interposer too.
	if es := mustCAS(t, tracedOver(inner)).EngineStats(); es.Backend != "cas+fake" {
		t.Errorf("cas over the interposer reports %q", es.Backend)
	}
	// A backend without the abilities degrades as cas.Store's own does.
	plain := tracedOver(chunkstore.NewMem())
	if res, err := plain.CompactNow(); err != nil || res != (chunkstore.CompactResult{}) {
		t.Errorf("CompactNow over a plain store: %+v %v", res, err)
	}
	if err := plain.Close(); err != nil {
		t.Errorf("Close over a plain store: %v", err)
	}

	var names []string
	for _, sp := range rec.finish().spans {
		names = append(names, sp.Name+"@"+sp.Addr)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "store.delete@data:1 store.get@data:1 store.put@data:1"; got != want {
		t.Errorf("spans %q, want %q", got, want)
	}
}

func mustCAS(t *testing.T, backend chunkstore.Store) *cas.Store {
	t.Helper()
	s, err := cas.NewStore(backend)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, tc := range []struct {
		name       string
		better     string
		base, cand []float64
		want       verdict
	}{
		{"unchanged", "lower", steady(100), steady(100), verdictOK},
		{"faster", "lower", steady(100), steady(80), verdictOK},
		{"9% slower is inside the bound", "lower", steady(100), steady(109), verdictOK},
		{"11% slower", "lower", steady(100), steady(111), verdictWorse},
		{"throughput down 11%", "higher", steady(100), steady(89), verdictWorse},
		{"throughput up", "higher", steady(100), steady(150), verdictOK},
		{"noisy base", "lower", []float64{80, 100, 120, 90, 130}, steady(200), verdictUnresolved},
		{"noisy candidate", "lower", steady(100), []float64{80, 100, 120, 90, 130}, verdictUnresolved},
	} {
		if got, _ := judge(tc.better, 0.10, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesMixedLabels(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(disk string, ckpt float64) *resultFile {
		return &resultFile{Provenance: provenance{Disk: disk}, Workloads: map[string]*workloadResult{
			"bulk_unique": {EndToEnd: map[string]*series{"ckpt_p50_ms": {Unit: "ms", Better: "lower", Samples: []float64{ckpt, ckpt, ckpt}}}},
		}}
	}
	var out bytes.Buffer
	if _, err := compareResults(sp, mk("real-disk", 100), mk("modelled-disk", 100), &out); !errors.Is(err, errMixedLabels) {
		t.Errorf("mixed labels: err = %v", err)
	}
	if code, err := compareResults(sp, mk("real-disk", 100), mk("real-disk", 105), &out); err != nil || code != 0 {
		t.Errorf("within bound: code %d, %v", code, err)
	}
	if code, err := compareResults(sp, mk("real-disk", 100), mk("real-disk", 150), &out); err != nil || code != 1 {
		t.Errorf("worse: code %d, %v\n%s", code, err, out.String())
	}
}

// memDisk is a flat virtual disk for the generator tests.
type memDisk []byte

func (d memDisk) WriteAt(p []byte, off int64) (int, error) { return copy(d[off:], p), nil }

func TestGeneratorIsSeededAndShadowed(t *testing.T) {
	for _, w := range workloads {
		w = w.scale(0.02)
		image := func(seed int64) (memDisk, *generator) {
			d := make(memDisk, w.ImageBytes)
			g := newGenerator(w, seed)
			for i := 0; i < 5; i++ {
				if n, err := g.dirty(d); err != nil || n == 0 || n > w.dirtyChunks() {
					t.Fatalf("%s: dirty = %d, %v", w.Name, n, err)
				}
			}
			return d, g
		}
		a, ga := image(3)
		b, _ := image(3)
		c, _ := image(4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
		region := a[w.dataStart()*w.ChunkSize:]
		if bad := ga.verify(w.dataStart(), region); bad != 0 {
			t.Errorf("%s: %d chunks differ from the shadow right after writing", w.Name, bad)
		}
		if !bytes.Equal(a[:w.dataStart()*w.ChunkSize], make([]byte, w.dataStart()*w.ChunkSize)) {
			t.Errorf("%s: generator wrote below the data region", w.Name)
		}
		region[len(region)/2] ^= 1
		if bad := ga.verify(w.dataStart(), region); bad != 1 {
			t.Errorf("%s: one flipped bit reported as %d bad chunks", w.Name, bad)
		}
	}
}
