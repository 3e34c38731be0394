package mirror

import (
	"context"
	"testing"

	"blobcr/internal/obs"
)

// TestCommitPipelineEmitsFiveStages asserts one async commit produces the
// named pipeline spans (obs.CommitStages: capture, probe, hash, upload,
// publish, durable — five when the test was named) with monotonic, non-overlapping timestamps, and that the same stages land
// in the client's metrics registry.
func TestCommitPipelineEmitsFiveStages(t *testing.T) {
	_, c, m, _ := setup(t, 8*cs)
	reg := obs.NewRegistry()
	c.Obs = reg

	if _, err := m.WriteAt(make([]byte, 3*cs), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	pc, err := m.CommitAsync(obs.WithTrace(context.Background(), tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// The trace also carries the RPC spans issued inside the stages; the
	// stage invariants are checked on the stage spans alone.
	spans := stageSpans(tr)
	if len(spans) != len(obs.CommitStages) {
		t.Fatalf("got %d stage spans %v, want %d", len(spans), spans, len(obs.CommitStages))
	}
	for i, want := range obs.CommitStages {
		got := spans[i]
		if got.Name != want {
			t.Errorf("span %d = %q, want %q", i, got.Name, want)
		}
		if got.End.Before(got.Start) {
			t.Errorf("span %q ends before it starts", got.Name)
		}
		if i > 0 && got.Start.Before(spans[i-1].End) {
			t.Errorf("span %q starts at %v, before %q ended at %v — stages overlap",
				got.Name, got.Start, spans[i-1].Name, spans[i-1].End)
		}
	}

	for _, stage := range obs.CommitStages {
		h := reg.Histogram("span_ns", obs.L("span", stage))
		if h.Count() != 1 {
			t.Errorf("registry histogram for %q has count %d, want 1", stage, h.Count())
		}
	}
	if reg.Counter("mirror_commits_total").Value() != 1 {
		t.Error("mirror_commits_total not incremented")
	}
	if reg.Counter("blobseer_commits_total").Value() != 1 {
		t.Error("blobseer_commits_total not incremented")
	}
}

// TestDetachedCommitKeepsStageTelemetry checks that the detached-commit
// path (context.WithoutCancel) still carries the registry and trace.
func TestDetachedCommitKeepsStageTelemetry(t *testing.T) {
	_, c, m, _ := setup(t, 8*cs)
	reg := obs.NewRegistry()
	c.Obs = reg

	if _, err := m.WriteAt(make([]byte, cs), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	reqCtx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	pc, err := m.CommitAsyncDetached(reqCtx)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the request dies; the detached publish must finish anyway
	if _, err := pc.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(stageSpans(tr)); got != len(obs.CommitStages) {
		t.Fatalf("detached commit recorded %d stage spans, want %d", got, len(obs.CommitStages))
	}
}

// TestDetachedCommitSpanParentage checks distributed-trace identity across
// the detach: every pipeline stage of a detached commit must still parent
// under the request's root span — context.WithoutCancel severs cancellation,
// not the span context — so an assembled trace shows one connected tree even
// when the requester died mid-commit.
func TestDetachedCommitSpanParentage(t *testing.T) {
	_, c, m, _ := setup(t, 8*cs)
	reg := obs.NewRegistry()
	c.Obs = reg

	if _, err := m.WriteAt(make([]byte, cs), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	reqCtx := obs.WithRegistry(context.Background(), reg)
	reqCtx, trace := obs.BeginTrace(reqCtx)
	reqCtx, root := obs.StartSpan(reqCtx, "request")
	reqCtx, cancel := context.WithCancel(reqCtx)
	pc, err := m.CommitAsyncDetached(reqCtx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := pc.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := reg.TraceSpans(trace)
	byName := make(map[string]obs.SpanRecord)
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, stage := range obs.CommitStages {
		rec, ok := byName[stage]
		if !ok {
			t.Errorf("stage %q missing from the trace store", stage)
			continue
		}
		if rec.Trace != trace {
			t.Errorf("stage %q carries trace %x, want %x", stage, rec.Trace, trace)
		}
		if rec.Parent != root.ID() {
			t.Errorf("stage %q parented under %x, want the request root %x — parentage lost across the detach",
				stage, rec.Parent, root.ID())
		}
	}
}

// stageSpans filters a trace down to the named commit-stage spans, in the
// order they completed (RPC spans issued inside the stages ride the same
// trace).
func stageSpans(tr *obs.Trace) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range tr.Spans() {
		for _, stage := range obs.CommitStages {
			if s.Name == stage {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// TestRestartPathEmitsStageSpans: a restart is as legible as a commit. An
// attach, a demand fault and a prefetch leave the restart-path stage spans in
// the client's registry — restart/attach and the hint fetch inside it once
// (the image has no hint yet, so nothing is replayed), the read stages once
// per engine call — with read/verify nested inside read/fetch in the
// prefetch's trace, the fault in the demand-fault histogram, and the node
// cache and metadata round trips counted.
func TestRestartPathEmitsStageSpans(t *testing.T) {
	d, _, first, _ := setup(t, 64*cs)
	reg := obs.NewRegistry()
	cold := d.Client() // the writer's cache holds the whole tree already
	cold.Obs = reg
	m, err := Attach(ctx, cold, first.Source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(make([]byte, 3*cs), 5*cs); err != nil { // one fault, three chunks
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	tctx, _ := obs.BeginTrace(obs.WithTrace(context.Background(), tr))
	if err := m.Prefetch(tctx, []uint64{40, 41, 42, 60}); err != nil {
		t.Fatal(err)
	}

	for stage, want := range map[string]uint64{
		obs.SpanRestartAttach: 1,
		obs.SpanRestartHint:   1,
		obs.SpanReadLookup:    2,
		obs.SpanReadFetch:     2,
	} {
		if got := reg.Histogram("span_ns", obs.L("span", stage)).Count(); got != want {
			t.Errorf("%s recorded %d times, want %d", stage, got, want)
		}
	}
	if reg.Histogram("span_ns", obs.L("span", obs.SpanReadVerify)).Count() < 2 {
		t.Error("read/verify not recorded for every fetch")
	}
	if got := reg.Histogram("mirror_demand_fault_ns").Count(); got != 1 {
		t.Errorf("mirror_demand_fault_ns has %d observations, want the one fault", got)
	}
	for _, name := range []string{"blobseer_node_cache_hits_total", "blobseer_node_cache_misses_total", "blobseer_read_meta_calls_total"} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("%s stayed at zero across an attach, a fault and a prefetch", name)
		}
	}
	fetch, ok := tr.ByName(obs.SpanReadFetch)
	if !ok {
		t.Fatal("the prefetch's trace has no read/fetch span")
	}
	lookup, _ := tr.ByName(obs.SpanReadLookup)
	if lookup.End.After(fetch.Start) {
		t.Error("read/fetch started before read/lookup ended")
	}
	verified := 0
	for _, s := range tr.Spans() {
		switch {
		case s.Name == obs.SpanReadVerify:
			verified++
			if s.Start.Before(fetch.Start) || s.End.After(fetch.End) {
				t.Error("a read/verify span lies outside its read/fetch")
			}
		case s.Name == "rpc/get-version":
			t.Error("a read through an attached snapshot went back to the version manager")
		}
	}
	if verified == 0 {
		t.Error("the prefetch's trace has no read/verify span")
	}
}
