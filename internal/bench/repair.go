// Repair experiment: storage MTTR and re-replication throughput of the
// self-healing storage plane (internal/repair) as the repository grows.
// It runs the real stack — blobseer deployment, dynamic membership, the
// anti-entropy scrubber and the exact-refcount re-replicator — over
// bandwidth-modelled pipes: a multi-version repository is committed at
// replication 2, one data provider is killed, a spare JOINs, and one Repair
// call restores every live chunk to full replication (verified by a clean
// scrub). Storage MTTR is the wall time of that call; throughput is the
// bytes re-replicated over it. More providers mean both fewer bytes lost
// per provider and more source/target streams, so MTTR drops on both axes.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/repair"
	"blobcr/internal/transport"
)

// Repair experiment sizing (same pipe model as the throughput experiment).
const (
	rpChunk     = 64 * 1024
	rpChunks    = 64 // per version: 4 MiB
	rpVersions  = 3
	rpBandwidth = 64 << 20 // bytes/s per provider pipe
	rpLatency   = 50 * time.Microsecond
)

// RepairResult is one sweep point of the repair experiment.
type RepairResult struct {
	Providers        int     // providers before the failure
	UnderReplicated  int     // chunks below replication right after the kill
	ReplicasRestored int     // replica bodies re-placed
	RestoredMB       float64 // payload re-replicated
	StorageMTTRMs    float64 // failure to clean scrub (one Repair call)
	ThroughputMBps   float64 // RestoredMB / MTTR
}

// RunRepair measures storage MTTR and re-replication throughput for each
// provider count: kill one provider under a committed multi-version
// repository, JOIN a spare, repair to a clean scrub.
func RunRepair(providerCounts []int) ([]RepairResult, error) {
	ctx := context.Background()
	var out []RepairResult
	for _, np := range providerCounts {
		if np < 2 {
			return nil, fmt.Errorf("bench: repair needs at least 2 providers, got %d", np)
		}
		net := transport.WithBandwidth(transport.WithLatency(transport.NewInProc(), rpLatency), rpBandwidth)
		repo, err := blobseer.Deploy(net, 2, np)
		if err != nil {
			return nil, err
		}
		client := repo.Client()
		client.Replication = 2
		client.Parallelism = 16

		blob, err := client.CreateBlob(ctx, rpChunk)
		if err != nil {
			repo.Close()
			return nil, err
		}
		for v := 0; v < rpVersions; v++ {
			writes := make(map[uint64][]byte, rpChunks)
			for i := uint64(0); i < rpChunks; i++ {
				writes[i] = bytes.Repeat([]byte{byte(v + 1), byte(i), byte(i >> 8)}, rpChunk/3)
			}
			if _, err := client.WriteVersion(ctx, blob, writes, rpChunks*rpChunk); err != nil {
				repo.Close()
				return nil, err
			}
		}

		// Fail-stop one provider, JOIN a spare.
		victim := repo.DataAddrs[0]
		net.Partition(victim)
		if err := client.UnregisterProvider(ctx, victim); err != nil {
			repo.Close()
			return nil, err
		}
		if _, err := repo.AddDataProvider(ctx); err != nil {
			repo.Close()
			return nil, err
		}

		r := repair.New(repair.Config{Client: client})
		runtime.GC() // keep collector pauses out of the measured window
		t0 := time.Now()
		rep, err := r.Repair(ctx)
		mttr := time.Since(t0)
		if err != nil {
			repo.Close()
			return nil, err
		}
		if !rep.Post.Clean() {
			repo.Close()
			return nil, fmt.Errorf("bench: repair did not converge at %d providers: %s", np, rep.Post)
		}
		// The repaired repository must still restore in full.
		latest, _, err := client.Latest(ctx, blob)
		if err == nil {
			_, err = client.ReadVersion(ctx, blobseer.SnapshotRef{Blob: blob, Version: latest.Version}, 0, rpChunks*rpChunk)
		}
		repo.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: restore after repair at %d providers: %w", np, err)
		}

		const mb = 1 << 20
		restoredMB := float64(rep.BytesRestored) / mb
		out = append(out, RepairResult{
			Providers:        np,
			UnderReplicated:  rep.Pre.UnderReplicated,
			ReplicasRestored: rep.ReplicasRestored,
			RestoredMB:       restoredMB,
			StorageMTTRMs:    float64(mttr.Microseconds()) / 1000,
			ThroughputMBps:   restoredMB / mttr.Seconds(),
		})
	}
	return out, nil
}

// FigRepair renders the repair experiment: storage MTTR and re-replication
// throughput after a one-provider failure (plus a spare JOIN) at 2, 4 and 8
// providers.
func FigRepair() Series {
	s := Series{
		Title:   "Repair: storage MTTR and re-replication throughput vs provider count (kill 1, join 1)",
		XLabel:  "providers",
		YLabel:  "ms / MB / MB/s",
		Columns: []string{"storage MTTR ms", "chunks lost", "restored MB", "re-repl MB/s"},
	}
	results, err := RunRepair([]int{2, 4, 8})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: float64(r.Providers), Values: []float64{
			r.StorageMTTRMs,
			float64(r.UnderReplicated),
			r.RestoredMB,
			r.ThroughputMBps,
		}})
	}
	return s
}
