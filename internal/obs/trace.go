// Distributed-trace identity and the per-process span stores: a bounded
// per-trace store (so a client can collect a commit's remote spans over the
// trace-get wire op and assemble one cross-process tree) and an always-on
// flight recorder (a fixed-capacity overwrite-oldest ring of recent spans,
// dumped over flight-get for black-box post-mortems after a process dies).

package obs

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext is the distributed-trace identity carried across call chains
// and, by internal/transport, across the wire: the trace every span joins
// and the currently active span new spans parent under.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// WithSpanContext returns a context carrying sc. A zero trace ID clears the
// span context instead (nothing downstream will propagate it).
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanContextKey, sc)
}

// SpanContextFrom returns the span context carried by ctx and whether an
// active trace is present.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(spanContextKey).(SpanContext)
	return sc, ok && sc.Trace != 0
}

// BeginTrace starts a new distributed trace: the returned context carries a
// fresh trace ID with no active span, so the next StartSpan under it becomes
// the trace's root. The ID is what trace-get is queried with.
func BeginTrace(ctx context.Context) (context.Context, uint64) {
	id := nextSpanID()
	return WithSpanContext(ctx, SpanContext{Trace: id}), id
}

// HandlerContext prepares a server-side context for an incoming request:
// spans below record into the handler's own registry, and any in-memory
// *Trace attached by an in-process caller is detached (a flat Trace collects
// one process's stage decomposition; server spans reach the caller through
// the per-trace store and the trace-get op instead, exactly as over TCP). The
// distributed span context re-established by the transport is kept.
func HandlerContext(ctx context.Context, reg *Registry) context.Context {
	ctx = WithRegistry(ctx, reg)
	if TraceFrom(ctx) != nil {
		ctx = context.WithValue(ctx, traceKey, (*Trace)(nil))
	}
	return ctx
}

// Span IDs are unique across processes without coordination: random
// per-process high 32 bits, sequential low 32 bits. Trace IDs share the
// space. Zero is never issued — it means "no span" in headers and records.
var (
	spanIDHi  = mrand.Uint64() << 32
	spanIDSeq atomic.Uint64
)

func nextSpanID() uint64 {
	for {
		if id := spanIDHi | (spanIDSeq.Add(1) & 0xFFFFFFFF); id != 0 {
			return id
		}
	}
}

// Capacities of the per-process span stores. They bound memory, not
// correctness: a trace evicted FIFO or a span past the per-trace cap is
// simply absent from that endpoint's trace-get reply.
const (
	TraceStoreCap = 64  // traces retained per registry
	TraceSpanCap  = 512 // spans retained per trace
	FlightCap     = 256 // flight-recorder ring capacity
)

// spanStore is a Registry's trace-collection state. The zero value is ready
// to use (registries are constructed in several places).
type spanStore struct {
	mu     sync.Mutex
	traces map[uint64][]SpanRecord
	order  []uint64 // FIFO eviction order of traces
	flight []SpanRecord
	next   int // overwrite cursor once the flight ring is full
}

// recordSpan files one finished span into the flight ring and, when it
// belongs to a trace, into the bounded per-trace store.
func (r *Registry) recordSpan(rec SpanRecord) {
	ss := &r.spans
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.flight) < FlightCap {
		ss.flight = append(ss.flight, rec)
	} else {
		ss.flight[ss.next] = rec
		ss.next = (ss.next + 1) % FlightCap
	}
	if rec.Trace == 0 {
		return
	}
	spans, ok := ss.traces[rec.Trace]
	if !ok {
		if ss.traces == nil {
			ss.traces = make(map[uint64][]SpanRecord)
		}
		if len(ss.order) >= TraceStoreCap {
			delete(ss.traces, ss.order[0])
			ss.order = ss.order[1:]
		}
		ss.order = append(ss.order, rec.Trace)
	}
	if len(spans) < TraceSpanCap {
		ss.traces[rec.Trace] = append(spans, rec)
	}
}

// TraceSpans returns a copy of the spans this registry holds for one trace,
// in completion order. Empty when the trace is unknown or evicted.
func (r *Registry) TraceSpans(trace uint64) []SpanRecord {
	ss := &r.spans
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]SpanRecord(nil), ss.traces[trace]...)
}

// FlightSpans returns a copy of the flight-recorder ring, oldest first.
func (r *Registry) FlightSpans() []SpanRecord {
	ss := &r.spans
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SpanRecord, 0, len(ss.flight))
	if len(ss.flight) == FlightCap {
		out = append(out, ss.flight[ss.next:]...)
		out = append(out, ss.flight[:ss.next]...)
	} else {
		out = append(out, ss.flight...)
	}
	return out
}

// MarshalSpans renders spans in the line format the trace-get and
// flight-get wire ops reply with: one span per line,
//
//	span <trace> <id> <parent> <start-unixnano> <end-unixnano> <name>
//
// IDs in hex (they are random-based), times as decimal wall-clock
// nanoseconds, the name quoted. Wall clocks do not compare across machines;
// AssembleTrace re-anchors remote spans inside their parent RPC window.
func MarshalSpans(spans []SpanRecord) []byte {
	var b strings.Builder
	for _, s := range spans {
		fmt.Fprintf(&b, "span %x %x %x %d %d %s\n",
			s.Trace, s.ID, s.Parent, s.Start.UnixNano(), s.End.UnixNano(), strconv.Quote(s.Name))
	}
	return []byte(b.String())
}

// ParseSpans decodes MarshalSpans output. Blank lines are skipped; any
// malformed line is an error (a truncated reply should not silently drop
// spans).
func ParseSpans(data []byte) ([]SpanRecord, error) {
	var out []SpanRecord
	for ln, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 7)
		if len(parts) != 7 || parts[0] != "span" {
			return nil, fmt.Errorf("obs: span line %d malformed: %q", ln+1, line)
		}
		var rec SpanRecord
		var startNs, endNs int64
		var err error
		if rec.Trace, err = strconv.ParseUint(parts[1], 16, 64); err == nil {
			if rec.ID, err = strconv.ParseUint(parts[2], 16, 64); err == nil {
				if rec.Parent, err = strconv.ParseUint(parts[3], 16, 64); err == nil {
					if startNs, err = strconv.ParseInt(parts[4], 10, 64); err == nil {
						endNs, err = strconv.ParseInt(parts[5], 10, 64)
					}
				}
			}
		}
		if err == nil {
			rec.Name, err = strconv.Unquote(parts[6])
		}
		if err != nil {
			return nil, fmt.Errorf("obs: span line %d: %v", ln+1, err)
		}
		rec.Start, rec.End = time.Unix(0, startNs), time.Unix(0, endNs)
		out = append(out, rec)
	}
	return out, nil
}
