package blobseer_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// TestCriticalPathExplainsCommit: one 16 MiB commit against a traced
// 8-provider deployment (one obs registry per service, the in-process
// analogue of one process per service) is assembled into its cross-process
// trace the way blobcr-ctl trace collects it over the TRACE verb, and the
// tree's critical path, walked backward from the root's end, attributes at
// least 90% of the commit wall time to named spans — the instrumentation
// explains the commit instead of leaving unattributed gaps.
func TestCriticalPathExplainsCommit(t *testing.T) {
	const (
		providers   = 8
		chunkSize   = 64 << 10
		chunks      = 256 // 16 MiB dirty set
		minCoverage = 0.90
	)
	ctx := context.Background()
	net := transport.WithBandwidth(transport.WithLatency(transport.NewInProc(), 50*time.Microsecond), 64<<20)
	repo, err := blobseer.DeployTraced(net, 1, providers)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	client := repo.Client()
	client.Parallelism = 16
	client.Obs = obs.NewRegistry()

	blob, err := client.CreateBlob(ctx, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, chunkSize)}, chunkSize*chunks)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mirror.Attach(ctx, client, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	// dirty overwrites every chunk with bodies no other chunk or round
	// shares, so no fingerprint hit hides the upload.
	buf := make([]byte, chunkSize)
	dirty := func(round uint64) {
		t.Helper()
		for c := 0; c < chunks; c++ {
			binary.LittleEndian.PutUint64(buf, round)
			binary.LittleEndian.PutUint64(buf[8:], uint64(c))
			if _, err := mod.WriteAt(buf, int64(c)*chunkSize); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Warm-up commit: first-touch costs (ticket path, provider connections)
	// stay out of the measured trace.
	dirty(0)
	if _, err := mod.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	dirty(1)

	// One traced commit under a root span: the root's window is the measured
	// wall time, and every stage, RPC and remote handler span of the commit
	// nests somewhere below it.
	tctx := obs.WithRegistry(ctx, client.Obs)
	tctx, trace := obs.BeginTrace(tctx)
	tctx, root := obs.StartSpan(tctx, "commit")
	pc, err := mod.CommitAsync(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()

	at := assembleDeploymentTrace(client.Obs, repo, trace)
	if at.Root == nil {
		t.Fatalf("trace %x assembled no root span", trace)
	}
	wall := at.Root.End.Sub(at.Root.Start)
	attributed := obs.PathAttributed(at.Root, obs.CriticalPath(at.Root))
	if wall <= 0 {
		t.Fatalf("root span has no duration: %v", wall)
	}
	if coverage := float64(attributed) / float64(wall); coverage < minCoverage {
		t.Fatalf("critical path explains %.3f of the commit (%v of %v over %d spans), want >= %.2f",
			coverage, attributed, wall, at.Spans, minCoverage)
	}
}

// assembleDeploymentTrace collects one trace's spans from the client's
// registry and every service registry of a traced deployment, labels each
// set by the service's role, and assembles the cross-process tree — the
// in-process equivalent of querying each endpoint's TRACE verb.
func assembleDeploymentTrace(clientReg *obs.Registry, repo *blobseer.Deployment, trace uint64) *obs.AssembledTrace {
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
