// Package obs is the telemetry plane: a dependency-free concurrent metrics
// registry (counters, gauges, log-scaled histograms) plus lightweight span
// tracing, threaded through the repo's existing context plumbing. Every hot
// layer — transport, blobseer, mirror, proxy, supervisor, repair — records
// into a Registry; the metrics-get wire op and the -debug-addr HTTP listener
// expose snapshots in Prometheus text exposition format, and blobcr-ctl
// metrics renders them.
//
// The package is intentionally stdlib-only and allocation-light on the hot
// path: metric handles are looked up once and then updated with single
// atomic operations, histograms use fixed power-of-two buckets (bucket
// index = bits.Len64(value)), and snapshots never block writers.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry. Components accept an optional
// *Registry and fall back to Default, so single-process deployments (the
// daemons, the benches) share one scrape surface without any wiring.
var Default = NewRegistry()

// Label is one name dimension, e.g. {Key: "verb", Value: "chunk-put"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric types in a snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable signed value (last suspend window, current interval,
// resident chunks during a drain, ...).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i holds values whose
// bits.Len64 is i, i.e. bucket 0 holds 0, bucket i holds [2^(i-1), 2^i).
// 65 buckets cover the full uint64 range, so latencies in nanoseconds and
// sizes in bytes both fit without configuration.
const histBuckets = 65

// Histogram is a fixed log2-bucketed histogram safe for concurrent use.
// Observations and snapshots are lock-free; a snapshot taken during a
// storm of updates is a consistent-enough view (per-bucket atomic reads).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketBound returns the inclusive upper bound of bucket i: 0 for bucket
// 0, 2^i-1 for 0 < i < 64, and MaxUint64 for the last bucket.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []Label
	order  string // labelString(labels), the Snapshot sort key within a name
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments. Lookups take a read lock; the returned
// handles are updated with atomics only, so hot paths should cache them.
// It also owns the process's span stores (trace.go): the bounded per-trace
// collection served over trace-get and the always-on flight-recorder ring
// served over flight-get.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	spans   spanStore

	// spanInstr caches each span name's instruments (spanInstruments).
	spanMu    sync.RWMutex
	spanInstr map[string]spanInstruments

	// hist is the registry's metric history ring (history.go), attached by
	// StartHistory; nil until then. health is the readiness callback
	// (SetHealth) behind the health-get op and the /healthz endpoint.
	hist   atomic.Pointer[History]
	health atomic.Pointer[func() (ok bool, firing []string)]

	// expo is the newest rendering a multi-chunk scrape is mid-way through
	// (ExpositionAt); empty once its last chunk is served. renders counts
	// renderings, for tests.
	expoMu  sync.Mutex
	expo    string
	renders int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// key renders the identity of an instrument. The kind is part of the key so
// a name collision across kinds surfaces as duplicate series in the scrape
// (visible) rather than a runtime panic (fatal).
func key(kind Kind, name string, labels []Label) string {
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels) + 2)
	b.WriteByte(byte('0' + kind))
	b.WriteByte('\xff')
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func (r *Registry) lookup(kind Kind, name string, labels []Label) *metric {
	k := key(kind, name, labels)
	r.mu.RLock()
	m := r.metrics[k]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[k]; m != nil {
		return m
	}
	m = &metric{name: name, labels: append([]Label(nil), labels...), order: labelString(labels), kind: kind}
	switch kind {
	case KindCounter:
		m.c = new(Counter)
	case KindGauge:
		m.g = new(Gauge)
	case KindHistogram:
		m.h = new(Histogram)
	}
	r.metrics[k] = m
	return m
}

// Counter returns (creating if needed) the counter with this identity.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(KindCounter, name, labels).c
}

// Gauge returns (creating if needed) the gauge with this identity.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(KindGauge, name, labels).g
}

// Histogram returns (creating if needed) the histogram with this identity.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(KindHistogram, name, labels).h
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	UpperBound uint64 // inclusive; BucketBound of the bucket index
	Count      uint64 // observations in this bucket (not cumulative)
}

// Point is one metric in a snapshot.
type Point struct {
	Name   string
	Labels []Label
	Kind   Kind

	Value      uint64 // counter
	GaugeValue int64  // gauge

	Count   uint64 // histogram
	Sum     uint64
	Buckets []Bucket
}

// Label returns the value for a label key, or "".
func (p *Point) Label(k string) string {
	for _, l := range p.Labels {
		if l.Key == k {
			return l.Value
		}
	}
	return ""
}

// Mean returns the mean observed value of a histogram point.
func (p *Point) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Sum) / float64(p.Count)
}

// Quantile estimates the q-quantile (0..1) of a histogram point from its
// buckets, interpolating geometrically inside the containing bucket.
func (p *Point) Quantile(q float64) float64 {
	if p.Count == 0 {
		return 0
	}
	rank := q * float64(p.Count)
	var seen uint64
	for _, b := range p.Buckets {
		seen += b.Count
		if float64(seen) >= rank {
			if b.UpperBound <= 1 {
				return float64(b.UpperBound)
			}
			lo := float64(b.UpperBound)/2 + 1
			hi := float64(b.UpperBound)
			frac := 1 - (float64(seen)-rank)/float64(b.Count)
			return lo + (hi-lo)*frac
		}
	}
	return float64(p.Buckets[len(p.Buckets)-1].UpperBound)
}

// Snapshot returns a point-in-time copy of every registered metric, sorted
// by name then labels. Writers are never blocked.
func (r *Registry) Snapshot() []Point {
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		// Group by kind so WriteProm emits one TYPE line per (name, kind)
		// run when a name is reused across kinds.
		if ms[i].kind != ms[j].kind {
			return ms[i].kind < ms[j].kind
		}
		return ms[i].order < ms[j].order
	})

	points := make([]Point, 0, len(ms))
	for _, m := range ms {
		p := Point{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			p.Value = m.c.Value()
		case KindGauge:
			p.GaugeValue = m.g.Value()
		case KindHistogram:
			p.Count = m.h.count.Load()
			p.Sum = m.h.sum.Load()
			for i := range m.h.buckets {
				if n := m.h.buckets[i].Load(); n > 0 {
					p.Buckets = append(p.Buckets, Bucket{UpperBound: BucketBound(i), Count: n})
				}
			}
		}
		points = append(points, p)
	}
	return points
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return strings.Join(parts, ",")
}

// Stopwatch measures one interval for histogram observation. Instrumented
// layers use this instead of diffing time.Now() themselves, keeping all
// timing idiom inside obs (enforced by scripts/check-timing.sh).
type Stopwatch struct {
	start time.Time
}

// StartTimer starts a stopwatch.
func StartTimer() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// ElapsedNanos returns the elapsed time in nanoseconds, clamped at zero.
func (s Stopwatch) ElapsedNanos() uint64 {
	d := time.Since(s.start)
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// ObserveInto records the elapsed nanoseconds into h.
func (s Stopwatch) ObserveInto(h *Histogram) { h.Observe(s.ElapsedNanos()) }
