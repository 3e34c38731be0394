package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestStartSpanThreadsSpanContext: under an active trace, each StartSpan
// parents under the context's span and re-arms the context with its own id,
// so nested spans chain correctly; without a trace the context is unchanged.
func TestStartSpanThreadsSpanContext(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	ctx, trace := BeginTrace(ctx)
	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := reg.TraceSpans(trace)
	if len(spans) != 3 {
		t.Fatalf("trace store holds %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root has parent %x, want none", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent %x, want root %x", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent %x, want child %x", byName["grandchild"].Parent, byName["child"].ID)
	}

	// No trace: the span records only to the flight ring, not the store.
	plain := NewRegistry()
	pctx, sp := StartSpan(WithRegistry(context.Background(), plain), "solo")
	if _, ok := SpanContextFrom(pctx); ok {
		t.Error("StartSpan invented a span context without a trace")
	}
	sp.End()
	if got := len(plain.FlightSpans()); got != 1 {
		t.Errorf("flight ring holds %d spans, want 1", got)
	}
}

// TestHandlerContextDetachesFlatTrace: server-side contexts keep the
// distributed span context but drop the in-process caller's flat *Trace, so
// handler spans reach the caller only via the TRACE store — identical
// behaviour in-process and over TCP.
func TestHandlerContextDetachesFlatTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	ctx, _ = BeginTrace(ctx)
	hctx := HandlerContext(ctx, reg)
	if TraceFrom(hctx) != nil {
		t.Error("handler context still carries the caller's flat trace")
	}
	if _, ok := SpanContextFrom(hctx); !ok {
		t.Error("handler context lost the distributed span context")
	}
	if RegistryFrom(hctx) != reg {
		t.Error("handler context not bound to the handler registry")
	}
	_, sp := StartSpan(hctx, "handler/x")
	sp.End()
	if len(tr.Spans()) != 0 {
		t.Error("handler span leaked into the caller's flat trace")
	}
}

// TestTraceStoreBounds: the per-trace store caps spans per trace and evicts
// whole traces FIFO past the store cap — memory bounds, not correctness.
func TestTraceStoreBounds(t *testing.T) {
	reg := NewRegistry()
	over := 7
	for i := 0; i < TraceSpanCap+over; i++ {
		reg.recordSpan(SpanRecord{Trace: 1, ID: uint64(i + 1), Name: "s"})
	}
	if got := len(reg.TraceSpans(1)); got != TraceSpanCap {
		t.Errorf("trace holds %d spans, want cap %d", got, TraceSpanCap)
	}
	for i := 0; i < TraceStoreCap; i++ {
		reg.recordSpan(SpanRecord{Trace: uint64(100 + i), ID: uint64(i + 1), Name: "s"})
	}
	if got := len(reg.TraceSpans(1)); got != 0 {
		t.Errorf("oldest trace not evicted: still holds %d spans", got)
	}
	if got := len(reg.TraceSpans(100 + TraceStoreCap - 1)); got != 1 {
		t.Errorf("newest trace missing: %d spans", got)
	}
}

// TestFlightRingOverwritesOldest: the recorder retains exactly FlightCap
// spans and FlightSpans returns them oldest first.
func TestFlightRingOverwritesOldest(t *testing.T) {
	reg := NewRegistry()
	total := FlightCap + 10
	for i := 0; i < total; i++ {
		reg.recordSpan(SpanRecord{ID: uint64(i + 1), Name: fmt.Sprintf("s%d", i)})
	}
	got := reg.FlightSpans()
	if len(got) != FlightCap {
		t.Fatalf("ring holds %d spans, want %d", len(got), FlightCap)
	}
	if got[0].ID != uint64(total-FlightCap+1) {
		t.Errorf("oldest retained span id %d, want %d", got[0].ID, total-FlightCap+1)
	}
	if got[len(got)-1].ID != uint64(total) {
		t.Errorf("newest span id %d, want %d", got[len(got)-1].ID, total)
	}
}

// TestMarshalParseSpansRoundTrip: the TRACE/FLIGHT line format survives a
// round trip, including names needing quoting, and malformed lines fail
// loudly instead of dropping spans.
func TestMarshalParseSpansRoundTrip(t *testing.T) {
	now := time.Now().Truncate(time.Nanosecond)
	in := []SpanRecord{
		{Trace: 0xdead, ID: 1, Parent: 0, Name: "root", Start: now, End: now.Add(time.Millisecond)},
		{Trace: 0xdead, ID: 2, Parent: 1, Name: `odd "name" with spaces`, Start: now, End: now.Add(2 * time.Millisecond)},
		{ID: 3, Name: "traceless", Start: now, End: now},
	}
	out, err := ParseSpans(MarshalSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip returned %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Trace != in[i].Trace || out[i].ID != in[i].ID || out[i].Parent != in[i].Parent ||
			out[i].Name != in[i].Name || !out[i].Start.Equal(in[i].Start) || !out[i].End.Equal(in[i].End) {
			t.Errorf("span %d mangled: %+v != %+v", i, out[i], in[i])
		}
	}
	for _, bad := range []string{
		"span deadbeef",
		"nospan 1 2 3 4 5 \"x\"",
		"span zz 2 3 4 5 \"x\"",
		"span 1 2 3 4 5 unquoted",
	} {
		if _, err := ParseSpans([]byte(bad)); err == nil {
			t.Errorf("malformed line %q parsed without error", bad)
		}
	}
}

// TestAssembleTraceAnchorsRemoteClocks: a remote subtree whose wall clock is
// skewed far outside its parent RPC's window is shifted inside it; same-clock
// children are left exact.
func TestAssembleTraceAnchorsRemoteClocks(t *testing.T) {
	base := time.Unix(1000, 0)
	const trace = 0x77
	local := []SpanRecord{
		{Trace: trace, ID: 1, Name: "root", Start: base, End: base.Add(100 * time.Millisecond)},
		{Trace: trace, ID: 2, Parent: 1, Name: "rpc/x", Start: base.Add(10 * time.Millisecond), End: base.Add(50 * time.Millisecond)},
	}
	// The remote clock runs an hour ahead; the handler span must land inside
	// the rpc window after assembly.
	skew := time.Hour
	remote := []SpanRecord{
		{Trace: trace, ID: 3, Parent: 2, Name: "handler/x",
			Start: base.Add(skew), End: base.Add(skew + 20*time.Millisecond)},
	}
	at := AssembleTrace(trace, map[string][]SpanRecord{"client": local, "server": remote})
	if at.Root == nil || at.Root.Name != "root" {
		t.Fatalf("root not found: %+v", at)
	}
	if at.Spans != 3 {
		t.Fatalf("assembled %d spans, want 3", at.Spans)
	}
	rpc := at.Root.Children[0]
	if rpc.Name != "rpc/x" || len(rpc.Children) != 1 {
		t.Fatalf("rpc span misassembled: %+v", rpc)
	}
	h := rpc.Children[0]
	if h.Start.Before(rpc.Start) || h.End.After(rpc.End) {
		t.Errorf("remote handler span [%v, %v] not anchored inside rpc window [%v, %v]",
			h.Start, h.End, rpc.Start, rpc.End)
	}
	if got := rpc.Start.Sub(at.Root.Start); got != 10*time.Millisecond {
		t.Errorf("same-clock child shifted: rpc offset %v, want 10ms", got)
	}
}

// TestCriticalPathTilesRootWindow: the segments are contiguous, chronological
// and sum exactly to the root's duration; the attributed share excludes only
// the root's own uncovered gaps.
func TestCriticalPathTilesRootWindow(t *testing.T) {
	base := time.Unix(2000, 0)
	const trace = 0x88
	ms := func(d int) time.Time { return base.Add(time.Duration(d) * time.Millisecond) }
	spans := []SpanRecord{
		{Trace: trace, ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two concurrent provider streams: the slower one gates completion.
		{Trace: trace, ID: 2, Parent: 1, Name: "fast", Start: ms(10), End: ms(40)},
		{Trace: trace, ID: 3, Parent: 1, Name: "slow", Start: ms(10), End: ms(90)},
	}
	at := AssembleTrace(trace, map[string][]SpanRecord{"p": spans})
	segs := CriticalPath(at.Root)
	if len(segs) == 0 {
		t.Fatal("no critical path")
	}
	var total time.Duration
	for i, s := range segs {
		total += s.Duration()
		if i > 0 && !s.Start.Equal(segs[i-1].End) {
			t.Errorf("segments not contiguous at %d: %v != %v", i, s.Start, segs[i-1].End)
		}
	}
	if wall := at.Root.End.Sub(at.Root.Start); total != wall {
		t.Errorf("critical path sums to %v, want wall %v", total, wall)
	}
	// The slow stream is on the path; the fast one never is.
	for _, s := range segs {
		if s.Node.Name == "fast" {
			t.Error("non-gating concurrent span on the critical path")
		}
	}
	// Attribution: root owns [0,10) and [90,100]; the slow child the rest.
	if got := PathAttributed(at.Root, segs); got != 80*time.Millisecond {
		t.Errorf("attributed %v, want 80ms", got)
	}
}

// TestConcurrentTraceCollection races span recording against TRACE and
// FLIGHT collection on one registry — the -race regression for the span
// stores (a collector scraping a live process must never tear state).
func TestConcurrentTraceCollection(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tctx, trace := BeginTrace(ctx)
				tctx, root := StartSpan(tctx, fmt.Sprintf("w%d/root", w))
				_, child := StartSpan(tctx, "child")
				child.End()
				root.End()
				_ = trace
				if i%8 == 0 {
					sp := StartSpanIn(reg, "traceless")
					sp.End()
				}
			}
		}(w)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if spans := reg.FlightSpans(); len(spans) > FlightCap {
					t.Errorf("flight ring over cap: %d", len(spans))
					return
				}
				if _, err := ParseSpans(MarshalSpans(reg.TraceSpans(uint64(i)))); err != nil {
					t.Errorf("collected spans unparseable: %v", err)
					return
				}
				if _, err := ParseSpans(MarshalSpans(reg.FlightSpans())); err != nil {
					t.Errorf("flight ring unparseable under concurrency: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
