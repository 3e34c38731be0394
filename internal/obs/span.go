package obs

import (
	"context"
	"sync"
	"time"
)

// ctxKey keys the context values this package threads through call chains.
type ctxKey int

const (
	registryKey ctxKey = iota
	traceKey
	spanContextKey
)

// WithRegistry returns a context carrying reg; StartSpan and instrumented
// layers below the caller record into it instead of Default.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey, reg)
}

// RegistryFrom returns the registry carried by ctx, or Default.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx != nil {
		if reg, ok := ctx.Value(registryKey).(*Registry); ok && reg != nil {
			return reg
		}
	}
	return Default
}

// SpanRecord is one finished span in a Trace. Trace, ID and Parent carry
// the distributed-trace identity: ID is unique across processes (random
// per-process high bits plus a sequence), Parent is the ID of the span that
// was active when this one started — on the far side of an RPC, that is the
// caller's RPC span, which is how cross-process trees reassemble.
type SpanRecord struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time
}

// Duration returns the span's length.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// Trace collects finished spans in completion order. Attach one with
// WithTrace to observe the exact stage decomposition of a single operation
// (the commit-pipeline span test and bench breakdowns use this); metrics
// histograms aggregate the same spans across all operations.
type Trace struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Spans returns a copy of the finished spans, in completion order.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// ByName returns the first finished span with this name and whether one
// exists.
func (t *Trace) ByName(name string) (SpanRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanRecord{}, false
}

func (t *Trace) add(r SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// WithTrace returns a context carrying tr; spans started under it append
// their records to tr when they end.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, tr)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// Span is one in-flight named stage. End records it into the registry (a
// span_ns histogram and span_last_ns gauge labeled with the span name, the
// flight-recorder ring, and — when a distributed trace is active — the
// registry's per-trace span store) and into the context's Trace, if any.
type Span struct {
	name   string
	start  time.Time
	reg    *Registry
	tr     *Trace
	trace  uint64
	id     uint64
	parent uint64
	done   bool
}

// StartSpan begins a named span using the registry and trace carried by
// ctx. Every span gets a globally unique ID; when ctx carries a distributed
// span context the new span parents under it and the returned context
// carries the new span's identity, so spans opened below it (including on
// the far side of an RPC) nest correctly. Without an active trace the
// returned context is ctx unchanged.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{
		name:  name,
		start: time.Now(),
		reg:   RegistryFrom(ctx),
		tr:    TraceFrom(ctx),
		id:    nextSpanID(),
	}
	if sc, ok := SpanContextFrom(ctx); ok {
		s.trace, s.parent = sc.Trace, sc.Span
		ctx = WithSpanContext(ctx, SpanContext{Trace: sc.Trace, Span: s.id})
	}
	return ctx, s
}

// StartSpanIn begins a named span bound directly to reg, for layers with no
// context plumbing (the segment log's group-commit flush path). The span has
// no trace identity; it still lands in reg's metrics and flight recorder.
func StartSpanIn(reg *Registry, name string) *Span {
	if reg == nil {
		reg = Default
	}
	return &Span{name: name, start: time.Now(), reg: reg, id: nextSpanID()}
}

// ID returns the span's unique identity (nonzero once started).
func (s *Span) ID() uint64 { return s.id }

// End finishes the span. Calling End more than once records only the first.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	end := time.Now()
	d := end.Sub(s.start)
	if d < 0 {
		d = 0
	}
	in := s.reg.spanInstruments(s.name)
	in.ns.Observe(uint64(d))
	in.last.Set(int64(d))
	rec := SpanRecord{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end}
	if s.tr != nil {
		s.tr.add(rec)
	}
	s.reg.recordSpan(rec)
}

// spanInstruments is one span name's span_ns histogram and span_last_ns
// gauge.
type spanInstruments struct {
	ns   *Histogram
	last *Gauge
}

// spanInstruments resolves name's instruments once per registry, so End
// neither builds a label nor renders a metric key.
func (r *Registry) spanInstruments(name string) spanInstruments {
	r.spanMu.RLock()
	in, ok := r.spanInstr[name]
	r.spanMu.RUnlock()
	if ok {
		return in
	}
	label := L("span", name)
	in = spanInstruments{ns: r.Histogram("span_ns", label), last: r.Gauge("span_last_ns", label)}
	r.spanMu.Lock()
	if r.spanInstr == nil {
		r.spanInstr = make(map[string]spanInstruments)
	}
	r.spanInstr[name] = in
	r.spanMu.Unlock()
	return in
}

// The commit-pipeline stage names, in execution order: mirror records
// capture under the suspend window; the blobseer client records the rest —
// probe (base version, ticket), hash (the dirty set fingerprinted, on every
// core), upload (fingerprint probes and the bodies no provider holds),
// publish (the metadata tree), durable (the version-manager commit).
// SpanCommitStageLocal is the multilevel-checkpointing stage after capture:
// with a node-local write-back tier attached, a capture is staged into the
// local store (and replicated to the partner proxy) under this span before
// the remote drain runs the client's stages.
const (
	SpanCommitCapture    = "commit/capture"
	SpanCommitStageLocal = "commit/stage-local"
	SpanCommitProbe      = "commit/probe"
	SpanCommitHash       = "commit/hash"
	SpanCommitUpload     = "commit/upload"
	SpanCommitPublish    = "commit/publish"
	SpanCommitDurable    = "commit/durable"
)

// CommitStages lists the always-present pipeline stage span names in order.
// The stage-local span is not included: it only exists on modules with a
// local tier attached (CommitStagesLocalTier covers those).
var CommitStages = []string{
	SpanCommitCapture,
	SpanCommitProbe,
	SpanCommitHash,
	SpanCommitUpload,
	SpanCommitPublish,
	SpanCommitDurable,
}

// CommitStagesLocalTier lists the commit stages of a module with a
// node-local write-back tier attached, in order: the capture is acknowledged
// locally safe after stage-local, and the remaining stages run in the
// background drain.
var CommitStagesLocalTier = []string{
	SpanCommitCapture,
	SpanCommitStageLocal,
	SpanCommitProbe,
	SpanCommitHash,
	SpanCommitUpload,
	SpanCommitPublish,
	SpanCommitDurable,
}

// The restart-path stage names. An instance re-deployed from a snapshot
// attaches its mirroring module (restart/attach: the version lookup, then
// either the replay of the image's boot-set hint or the warm-up of the node
// cache); inside it, restart/hint fetches the hint and replays it with one
// prefetch. Every read of the snapshot — a demand fault, a prefetch, a
// ReadVersion — resolves its leaves (read/lookup), moves the bodies
// (read/fetch) and, inside the fetch, checks each frame's bodies against
// their content keys (read/verify).
const (
	SpanRestartAttach = "restart/attach"
	SpanRestartHint   = "restart/hint"
	SpanReadLookup    = "read/lookup"
	SpanReadFetch     = "read/fetch"
	SpanReadVerify    = "read/verify"
)

// RestartStages lists the restart-path stage span names in order.
var RestartStages = []string{
	SpanRestartAttach,
	SpanRestartHint,
	SpanReadLookup,
	SpanReadFetch,
	SpanReadVerify,
}
