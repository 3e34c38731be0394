// Critical-path experiment: assemble one commit's cross-process trace and
// explain its wall time. A 16 MiB dirty set is committed against a traced
// deployment (one obs registry per service, the in-process analogue of one
// process per service), the trace's spans are collected from every registry
// the way blobcr-ctl trace collects them over the TRACE wire verb, and the
// assembled tree's critical path is walked backward from the root's end.
// The experiment's claim — and the regression this bench asserts — is that
// the instrumentation explains at least 90% of the commit wall time at 8
// providers: the critical path runs through named spans, not through
// unattributed gaps.
package bench

import (
	"context"
	"fmt"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// TracePathResult is one sweep point of the critical-path experiment.
type TracePathResult struct {
	Providers  int
	WallMillis float64 // root span duration: CommitAsync to durable
	PathMillis float64 // critical-path time attributed to named child spans
	Coverage   float64 // PathMillis / WallMillis
	Spans      int     // nodes in the assembled tree
	Processes  int     // per-process span sets that contributed
}

// tracePathMinCoverage is the acceptance floor the 8-provider point must
// clear: the fraction of commit wall time the assembled trace's critical
// path attributes to instrumented spans.
const tracePathMinCoverage = 0.90

// RunTracePath commits a 16 MiB dirty set per provider count on a traced
// deployment, assembles the cross-process trace and measures how much of the
// wall time the critical path attributes to named spans.
func RunTracePath(providerCounts []int) ([]TracePathResult, error) {
	ctx := context.Background()
	var out []TracePathResult
	for _, np := range providerCounts {
		if np < 1 {
			return nil, fmt.Errorf("bench: provider count %d", np)
		}
		net := transport.WithBandwidth(transport.WithLatency(transport.NewInProc(), tpLatency), tpBandwidth)
		repo, err := blobseer.DeployTraced(net, 1, np)
		if err != nil {
			return nil, err
		}
		r, err := tracePathOne(ctx, repo, np)
		repo.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// tracePathOne runs the per-provider-count body: attach, warm up, then one
// traced commit whose assembled tree becomes the result.
func tracePathOne(ctx context.Context, repo *blobseer.Deployment, np int) (TracePathResult, error) {
	client := repo.Client()
	client.Parallelism = 16
	client.Obs = obs.NewRegistry()

	blob, err := client.CreateBlob(ctx, tpChunk)
	if err != nil {
		return TracePathResult{}, err
	}
	info, err := client.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, tpChunk)}, tpChunk*tpChunks)
	if err != nil {
		return TracePathResult{}, err
	}
	mod, err := mirror.Attach(ctx, client, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		return TracePathResult{}, err
	}
	if err := mod.Clone(ctx); err != nil {
		return TracePathResult{}, err
	}

	// Warm-up commit: first-touch costs (ticket path, provider connections)
	// stay out of the measured trace.
	if err := dirtyDistinct(mod, tpChunks, tpChunk, 0); err != nil {
		return TracePathResult{}, err
	}
	if _, err := mod.Commit(ctx); err != nil {
		return TracePathResult{}, err
	}
	if err := dirtyDistinct(mod, tpChunks, tpChunk, 1); err != nil {
		return TracePathResult{}, err
	}

	// One traced commit under a root span: the root's window is the measured
	// wall time, and every stage, RPC and remote handler span of the commit
	// nests somewhere below it.
	tctx := obs.WithRegistry(ctx, client.Obs)
	tctx, trace := obs.BeginTrace(tctx)
	tctx, root := obs.StartSpan(tctx, "commit")
	pc, err := mod.CommitAsync(tctx)
	if err != nil {
		return TracePathResult{}, err
	}
	if _, err := pc.Wait(ctx); err != nil {
		return TracePathResult{}, err
	}
	root.End()

	at := AssembleDeploymentTrace(client.Obs, repo, trace)
	if at.Root == nil {
		return TracePathResult{}, fmt.Errorf("bench: trace %x assembled no root span", trace)
	}
	segs := obs.CriticalPath(at.Root)
	wall := at.Root.End.Sub(at.Root.Start)
	attributed := obs.PathAttributed(at.Root, segs)
	r := TracePathResult{
		Providers:  np,
		WallMillis: float64(wall) / float64(time.Millisecond),
		PathMillis: float64(attributed) / float64(time.Millisecond),
		Spans:      at.Spans,
		Processes:  len(repo.Registries) + 1,
	}
	if wall > 0 {
		r.Coverage = float64(attributed) / float64(wall)
	}
	return r, nil
}

// AssembleDeploymentTrace collects one trace's spans from the client's
// registry and every service registry of a traced deployment, labels each
// set by the service's role, and assembles the cross-process tree — the
// in-process equivalent of querying each endpoint's TRACE verb.
func AssembleDeploymentTrace(clientReg *obs.Registry, repo *blobseer.Deployment, trace uint64) *obs.AssembledTrace {
	sets := map[string][]obs.SpanRecord{"client": clientReg.TraceSpans(trace)}
	label := make(map[string]string)
	label[repo.VMAddr] = "vmanager"
	label[repo.PMAddr] = "pmanager"
	for i, a := range repo.MetaAddrs {
		label[a] = fmt.Sprintf("meta-%d", i)
	}
	for i, a := range repo.DataAddrs {
		label[a] = fmt.Sprintf("data-%d", i)
	}
	for addr, reg := range repo.Registries {
		name := label[addr]
		if name == "" {
			name = addr
		}
		sets[name] = reg.TraceSpans(trace)
	}
	return obs.AssembleTrace(trace, sets)
}

// FigTracePath renders the critical-path experiment: one traced 16 MiB
// commit against 1, 4 and 8 providers, with the coverage assertion at 8.
func FigTracePath() Series {
	s := Series{
		Title:   "Critical path: cross-process trace of one 16 MiB commit",
		XLabel:  "providers",
		YLabel:  "ms",
		Columns: []string{"wall ms", "critical-path ms", "coverage", "spans", "processes"},
		Notes: []string{
			"coverage = critical-path time attributed to named spans / commit wall time",
			fmt.Sprintf("acceptance: coverage >= %.2f at 8 providers", tracePathMinCoverage),
		},
	}
	results, err := RunTracePath([]int{1, 4, 8})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: float64(r.Providers),
			Values: []float64{r.WallMillis, r.PathMillis, r.Coverage, float64(r.Spans), float64(r.Processes)}})
		if r.Providers == 8 && r.Coverage < tracePathMinCoverage {
			s.Title += fmt.Sprintf(" — FAILED: coverage %.3f < %.2f at %d providers",
				r.Coverage, tracePathMinCoverage, r.Providers)
		}
	}
	return s
}
