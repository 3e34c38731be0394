// Commit-stage experiment: where the asynchronous commit pipeline spends
// its time as the striping width grows. Each commit of a fixed 16 MiB dirty
// set is traced through the instrumented stages (obs.CommitStages) —
// capture (the only one inside the suspend window), probe, hash, upload,
// publish, durable — using the obs span plumbing, against 1, 4 and 8 data
// providers. The upload stage is the one that divides with the provider
// count; capture and hash are local and stay flat, which is precisely why
// the async suspend window does not grow with the dirty set.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// StageResult is one sweep point of the commit-stage experiment: the
// pipeline stage durations of one traced commit.
type StageResult struct {
	Providers   int
	StageMillis []float64 // one per obs.CommitStages, in order
	TotalMillis float64
}

// RunCommitStages traces one warm commit of a 16 MiB dirty set per provider
// count and decomposes it into the pipeline stages.
func RunCommitStages(providerCounts []int) ([]StageResult, error) {
	ctx := context.Background()
	var out []StageResult
	for _, np := range providerCounts {
		if np < 1 {
			return nil, fmt.Errorf("bench: provider count %d", np)
		}
		net := transport.WithBandwidth(transport.WithLatency(transport.NewInProc(), tpLatency), tpBandwidth)
		repo, err := blobseer.Deploy(net, 1, np)
		if err != nil {
			return nil, err
		}
		r, err := commitStagesOne(ctx, repo, np)
		repo.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// commitStagesOne runs the per-provider-count body: attach, dirty, one
// warm-up commit, then one traced commit whose spans become the result.
func commitStagesOne(ctx context.Context, repo *blobseer.Deployment, np int) (StageResult, error) {
	client := repo.Client()
	client.Parallelism = 16
	// A fresh registry per sweep point keeps each count's histograms
	// independent; the trace gives the per-stage boundaries of the one
	// measured commit.
	client.Obs = obs.NewRegistry()

	blob, err := client.CreateBlob(ctx, tpChunk)
	if err != nil {
		return StageResult{}, err
	}
	info, err := client.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, tpChunk)}, tpChunk*tpChunks)
	if err != nil {
		return StageResult{}, err
	}
	mod, err := mirror.Attach(ctx, client, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		return StageResult{}, err
	}
	if err := mod.Clone(ctx); err != nil {
		return StageResult{}, err
	}

	// Warm-up commit: first-touch costs (ticket path, provider connections)
	// stay out of the measured trace.
	if err := dirtyDistinct(mod, tpChunks, tpChunk, 0); err != nil {
		return StageResult{}, err
	}
	if _, err := mod.Commit(ctx); err != nil {
		return StageResult{}, err
	}

	if err := dirtyDistinct(mod, tpChunks, tpChunk, 1); err != nil {
		return StageResult{}, err
	}
	tr := obs.NewTrace()
	pc, err := mod.CommitAsync(obs.WithTrace(ctx, tr))
	if err != nil {
		return StageResult{}, err
	}
	if _, err := pc.Wait(ctx); err != nil {
		return StageResult{}, err
	}

	r := StageResult{Providers: np}
	for _, stage := range obs.CommitStages {
		rec, ok := tr.ByName(stage)
		if !ok {
			return StageResult{}, fmt.Errorf("bench: commit trace missing stage %q", stage)
		}
		ms := float64(rec.Duration()) / float64(time.Millisecond)
		r.StageMillis = append(r.StageMillis, ms)
		r.TotalMillis += ms
	}
	return r, nil
}

// FigStages renders the commit-stage experiment: the pipeline stage
// durations of one traced 16 MiB commit against 1, 4 and 8 providers.
func FigStages() Series {
	s := Series{
		Title:  "Commit stages: where the async pipeline spends its time (16 MiB dirty set)",
		XLabel: "providers",
		YLabel: "ms per stage",
	}
	for _, stage := range obs.CommitStages {
		s.Columns = append(s.Columns, strings.TrimPrefix(stage, "commit/")+" ms")
	}
	s.Columns = append(s.Columns, "total ms")
	results, err := RunCommitStages([]int{1, 4, 8})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: float64(r.Providers), Values: append(r.StageMillis, r.TotalMillis)})
	}
	return s
}
