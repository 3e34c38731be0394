package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// History is a fixed-capacity overwrite-oldest ring of periodic registry
// snapshots, the time dimension the point-in-time metrics scrape lacks.
// Entries are delta-encoded: each holds only the points that changed since
// the previous sample, so an idle registry costs near-nothing to retain.
// When the ring wraps, the evicted oldest entry is folded into its successor
// before being overwritten, so the oldest retained entry always decodes to a
// complete baseline state.
//
// Window answers the questions the health plane asks of a ring: counter
// rates over the last N seconds, histogram quantiles restricted to the
// window's observations, and gauge first/last/min/max. Every endpoint's
// history-get op (transport.Introspect) serves MarshalWindow of a Window
// call.
type History struct {
	reg  *Registry
	capN int

	mu      sync.Mutex
	entries []histEntry // ring storage, len == capN
	start   int         // index of the oldest entry
	count   int
	prev    map[string]Point // full state as of the newest entry

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type histEntry struct {
	at  time.Time
	pts []Point // points changed since the previous retained entry
}

// DefaultHistoryWindow is the window Window reports over when given none.
const DefaultHistoryWindow = time.Minute

// StartHistory attaches a history ring of capN samples to the registry and
// returns it. every > 0 starts a background sampler at that period; every ==
// 0 means manual sampling only — the owner calls History().Sample() at its
// own cadence (the supervisor samples once per federation round so windows
// align with scrape rounds). A registry has at most one ring: once attached,
// later calls return the existing ring unchanged.
func (r *Registry) StartHistory(every time.Duration, capN int) *History {
	if capN < 2 {
		capN = 256
	}
	h := &History{reg: r, capN: capN, entries: make([]histEntry, capN), prev: map[string]Point{}}
	if !r.hist.CompareAndSwap(nil, h) {
		return r.hist.Load()
	}
	if every > 0 {
		h.stop = make(chan struct{})
		h.done = make(chan struct{})
		go h.run(every)
	}
	return h
}

// History returns the registry's history ring, or nil if none was started.
func (r *Registry) History() *History { return r.hist.Load() }

// SetHealth installs the readiness callback behind the health-get op and the
// /healthz debug endpoint: ok=false marks the process DEGRADED and firing
// lists the active alert names. Nil-callback registries always answer OK.
func (r *Registry) SetHealth(fn func() (ok bool, firing []string)) {
	r.health.Store(&fn)
}

// Health reports the registry's readiness (see SetHealth).
func (r *Registry) Health() (ok bool, firing []string) {
	fn := r.health.Load()
	if fn == nil || *fn == nil {
		return true, nil
	}
	return (*fn)()
}

func (h *History) run(every time.Duration) {
	defer close(h.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.Sample()
		case <-h.stop:
			return
		}
	}
}

// Close stops the background sampler, if any. The ring stays queryable.
func (h *History) Close() {
	h.stopOnce.Do(func() {
		if h.stop != nil {
			close(h.stop)
			<-h.done
		}
	})
}

// Sample records one snapshot into the ring.
func (h *History) Sample() {
	snap := h.reg.Snapshot()
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	var delta []Point
	cur := make(map[string]Point, len(snap))
	for _, p := range snap {
		k := key(p.Kind, p.Name, p.Labels)
		cur[k] = p
		if old, ok := h.prev[k]; !ok || !samePoint(old, p) {
			delta = append(delta, p)
		}
	}
	h.prev = cur
	e := histEntry{at: now, pts: delta}
	if h.count < h.capN {
		h.entries[(h.start+h.count)%h.capN] = e
		h.count++
		return
	}
	// Ring full: fold the evicted oldest entry into its successor so the
	// successor becomes a self-contained baseline, then reuse the slot.
	oldest := h.start
	succ := (oldest + 1) % h.capN
	h.entries[succ].pts = foldDelta(h.entries[oldest].pts, h.entries[succ].pts)
	h.entries[oldest] = e
	h.start = succ
}

// samePoint reports whether two snapshots of one series carry equal values.
func samePoint(a, b Point) bool {
	switch a.Kind {
	case KindCounter:
		return a.Value == b.Value
	case KindGauge:
		return a.GaugeValue == b.GaugeValue
	default:
		if a.Count != b.Count || a.Sum != b.Sum || len(a.Buckets) != len(b.Buckets) {
			return false
		}
		for i := range a.Buckets {
			if a.Buckets[i] != b.Buckets[i] {
				return false
			}
		}
		return true
	}
}

// foldDelta merges an evicted delta under its successor: points the newer
// delta does not override carry forward, so the fold preserves the decoded
// state at the successor's sample time.
func foldDelta(old, newer []Point) []Point {
	if len(old) == 0 {
		return newer
	}
	have := make(map[string]bool, len(newer))
	for _, p := range newer {
		have[key(p.Kind, p.Name, p.Labels)] = true
	}
	out := make([]Point, 0, len(old)+len(newer))
	for _, p := range old {
		if !have[key(p.Kind, p.Name, p.Labels)] {
			out = append(out, p)
		}
	}
	return append(out, newer...)
}

// WindowStat is one series' behavior over a queried window. Which fields are
// meaningful depends on Kind: counters report the increase and per-second
// rate, gauges the first/last values and the min/max across samples, and
// histograms the observations restricted to the window with their mean and
// quantiles.
type WindowStat struct {
	Name   string
	Labels []Label
	Kind   Kind

	Delta uint64  // counter: increase over the window
	Rate  float64 // counter: Delta per second

	First int64 // gauge: value at the window baseline
	Last  int64 // gauge: newest value
	Min   int64 // gauge: minimum across window samples
	Max   int64 // gauge: maximum across window samples

	Count uint64 // histogram: observations within the window
	Sum   uint64
	Mean  float64
	P50   float64
	P99   float64
}

// WindowReport is the result of a windowed history query.
type WindowReport struct {
	Window  time.Duration // requested window
	Span    time.Duration // actually covered (newest sample minus baseline)
	Samples int           // ring samples participating, baseline included
	Stats   []WindowStat
}

// Find returns the first stat with this name whose labels include all of
// want, or nil.
func (rep *WindowReport) Find(name string, want ...Label) *WindowStat {
	for i := range rep.Stats {
		st := &rep.Stats[i]
		if st.Name != name {
			continue
		}
		ok := true
		for _, l := range want {
			if statLabel(st, l.Key) != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return st
		}
	}
	return nil
}

func statLabel(st *WindowStat, k string) string {
	for _, l := range st.Labels {
		if l.Key == k {
			return l.Value
		}
	}
	return ""
}

// Window reports every series' behavior over the trailing window. The
// baseline is the newest sample at or before the window start (or the oldest
// retained sample when the ring does not reach back that far); rates and
// deltas are computed against it over the actually covered span. A report
// with fewer than two samples carries zero rates.
func (h *History) Window(window time.Duration) WindowReport {
	if window <= 0 {
		window = DefaultHistoryWindow
	}
	rep := WindowReport{Window: window}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return rep
	}
	at := func(i int) *histEntry { return &h.entries[(h.start+i)%h.capN] }
	newest := at(h.count - 1).at
	cutoff := newest.Add(-window)
	bi := 0
	for i := 1; i < h.count; i++ {
		if at(i).at.After(cutoff) {
			break
		}
		bi = i
	}
	base := make(map[string]Point)
	for i := 0; i <= bi; i++ {
		for _, p := range at(i).pts {
			base[key(p.Kind, p.Name, p.Labels)] = p
		}
	}
	type gaugeTrack struct {
		first, min, max int64
	}
	state := make(map[string]Point, len(base))
	gauges := make(map[string]gaugeTrack)
	for k, p := range base {
		state[k] = p
		if p.Kind == KindGauge {
			gauges[k] = gaugeTrack{p.GaugeValue, p.GaugeValue, p.GaugeValue}
		}
	}
	for i := bi + 1; i < h.count; i++ {
		for _, p := range at(i).pts {
			k := key(p.Kind, p.Name, p.Labels)
			state[k] = p
			if p.Kind == KindGauge {
				g, ok := gauges[k]
				if !ok {
					g = gaugeTrack{p.GaugeValue, p.GaugeValue, p.GaugeValue}
				} else {
					g.min = min(g.min, p.GaugeValue)
					g.max = max(g.max, p.GaugeValue)
				}
				gauges[k] = g
			}
		}
	}
	rep.Span = newest.Sub(at(bi).at)
	rep.Samples = h.count - bi
	secs := rep.Span.Seconds()
	rep.Stats = make([]WindowStat, 0, len(state))
	for k, p := range state {
		st := WindowStat{Name: p.Name, Labels: p.Labels, Kind: p.Kind}
		b := base[k]
		switch p.Kind {
		case KindCounter:
			if p.Value > b.Value {
				st.Delta = p.Value - b.Value
			}
			if secs > 0 {
				st.Rate = float64(st.Delta) / secs
			}
		case KindGauge:
			g := gauges[k]
			st.First, st.Last, st.Min, st.Max = g.first, p.GaugeValue, g.min, g.max
		case KindHistogram:
			d := diffHist(b, p)
			st.Count, st.Sum = d.Count, d.Sum
			if d.Count > 0 {
				st.Mean = d.Mean()
				st.P50 = d.Quantile(0.50)
				st.P99 = d.Quantile(0.99)
			}
		}
		rep.Stats = append(rep.Stats, st)
	}
	sort.Slice(rep.Stats, func(i, j int) bool {
		a, b := &rep.Stats[i], &rep.Stats[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return labelString(a.Labels) < labelString(b.Labels)
	})
	return rep
}

// diffHist subtracts the baseline histogram snapshot from the newer one,
// yielding a point whose count/sum/buckets cover only the window.
func diffHist(base, p Point) Point {
	d := Point{Name: p.Name, Labels: p.Labels, Kind: KindHistogram}
	if p.Count > base.Count {
		d.Count = p.Count - base.Count
	}
	if p.Sum > base.Sum {
		d.Sum = p.Sum - base.Sum
	}
	prior := make(map[uint64]uint64, len(base.Buckets))
	for _, b := range base.Buckets {
		prior[b.UpperBound] = b.Count
	}
	for _, b := range p.Buckets {
		if n := b.Count - prior[b.UpperBound]; n > 0 && b.Count > prior[b.UpperBound] {
			d.Buckets = append(d.Buckets, Bucket{UpperBound: b.UpperBound, Count: n})
		}
	}
	return d
}

// MarshalWindow renders a window report in the history-get wire format: one
// metadata line, then one line per series —
//
//	window <sec> span <sec> samples <n>
//	counter <name>{k="v",...} delta=<u> rate=<f>
//	gauge <name>{...} first=<i> last=<i> min=<i> max=<i>
//	hist <name>{...} count=<u> sum=<u> mean=<f> p50=<f> p99=<f>
//
// ParseWindow is its strict inverse.
func MarshalWindow(rep WindowReport) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "window %g span %g samples %d\n",
		rep.Window.Seconds(), rep.Span.Seconds(), rep.Samples)
	for i := range rep.Stats {
		st := &rep.Stats[i]
		series := st.Name
		if len(st.Labels) > 0 {
			series += "{" + labelString(st.Labels) + "}"
		}
		switch st.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "counter %s delta=%d rate=%g\n", series, st.Delta, st.Rate)
		case KindGauge:
			fmt.Fprintf(&b, "gauge %s first=%d last=%d min=%d max=%d\n",
				series, st.First, st.Last, st.Min, st.Max)
		case KindHistogram:
			fmt.Fprintf(&b, "hist %s count=%d sum=%d mean=%g p50=%g p99=%g\n",
				series, st.Count, st.Sum, st.Mean, st.P50, st.P99)
		}
	}
	return []byte(b.String())
}

// ParseWindow parses MarshalWindow output. Unlike the tolerant ParseProm,
// this is strict: any malformed, truncated or unknown line is an error, so a
// corrupt history-get reply is rejected rather than silently half-applied.
func ParseWindow(b []byte) (WindowReport, error) {
	var rep WindowReport
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return rep, fmt.Errorf("obs: empty history frame")
	}
	head := strings.Fields(sc.Text())
	if len(head) != 6 || head[0] != "window" || head[2] != "span" || head[4] != "samples" {
		return rep, fmt.Errorf("obs: bad history header %q", sc.Text())
	}
	window, ok1 := parseSeconds(head[1])
	span, ok2 := parseSeconds(head[3])
	n, err := strconv.Atoi(head[5])
	if !ok1 || !ok2 || err != nil || n < 0 {
		return rep, fmt.Errorf("obs: bad history header %q", sc.Text())
	}
	rep.Window, rep.Span, rep.Samples = window, span, n
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		kind, rest, ok := strings.Cut(line, " ")
		if !ok {
			return rep, fmt.Errorf("obs: bad history line %q", line)
		}
		name, labels, kvs, err := cutSeries(rest)
		if err != nil {
			return rep, fmt.Errorf("obs: bad history line %q: %w", line, err)
		}
		st := WindowStat{Name: name, Labels: labels}
		switch kind {
		case "counter":
			st.Kind = KindCounter
			err = parseKV(kvs, map[string]any{"delta": &st.Delta, "rate": &st.Rate})
		case "gauge":
			st.Kind = KindGauge
			err = parseKV(kvs, map[string]any{
				"first": &st.First, "last": &st.Last, "min": &st.Min, "max": &st.Max,
			})
		case "hist":
			st.Kind = KindHistogram
			err = parseKV(kvs, map[string]any{
				"count": &st.Count, "sum": &st.Sum,
				"mean": &st.Mean, "p50": &st.P50, "p99": &st.P99,
			})
		default:
			return rep, fmt.Errorf("obs: unknown history series kind %q", kind)
		}
		if err != nil {
			return rep, fmt.Errorf("obs: bad history line %q: %w", line, err)
		}
		rep.Stats = append(rep.Stats, st)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// parseSeconds reads a header duration in seconds, rejecting what a
// time.Duration cannot hold (negative, NaN, past about 292 years) and
// rounding to the nanosecond so a marshalled duration reads back exactly.
func parseSeconds(s string) (time.Duration, bool) {
	sec, err := strconv.ParseFloat(s, 64)
	ns := math.Round(sec * float64(time.Second))
	if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ns), true
}

// cutSeries splits `name{k="v",...} k=v ...` into the series identity and
// the remaining key=value text, honoring quotes inside the label block.
func cutSeries(s string) (name string, labels []Label, rest string, err error) {
	brace := strings.IndexByte(s, '{')
	space := strings.IndexByte(s, ' ')
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", nil, "", fmt.Errorf("missing values")
		}
		return s[:space], nil, s[space+1:], nil
	}
	name = s[:brace]
	inq := false
	for i := brace + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inq {
				i++
			}
		case '"':
			inq = !inq
		case '}':
			if !inq {
				labels, err = parseLabels(s[brace+1 : i])
				if err != nil {
					return "", nil, "", err
				}
				rest = strings.TrimSpace(s[i+1:])
				if rest == "" {
					return "", nil, "", fmt.Errorf("missing values")
				}
				return name, labels, rest, nil
			}
		}
	}
	return "", nil, "", fmt.Errorf("unterminated labels")
}

// parseKV parses space-separated key=value pairs into the typed targets.
// Every expected key must appear exactly once; unknown keys are errors.
func parseKV(s string, want map[string]any) error {
	seen := make(map[string]bool, len(want))
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("bad pair %q", f)
		}
		dst, known := want[k]
		if !known {
			return fmt.Errorf("unknown key %q", k)
		}
		if seen[k] {
			return fmt.Errorf("duplicate key %q", k)
		}
		seen[k] = true
		var err error
		switch dst := dst.(type) {
		case *uint64:
			*dst, err = strconv.ParseUint(v, 10, 64)
		case *int64:
			*dst, err = strconv.ParseInt(v, 10, 64)
		case *float64:
			*dst, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return fmt.Errorf("bad value %q for %q", v, k)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("want %d values, got %d", len(want), len(seen))
	}
	return nil
}
