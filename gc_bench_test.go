package blobcr_test

// Functional benchmarks for the paper's future-work extension implemented
// here: transparent garbage collection of obsoleted snapshots
// (blobseer.Client.GC + cloud.Prune), the content-addressed dedup commit
// path (internal/cas), and refcount-based reclamation on snapshot retire.

import (
	"bytes"
	"context"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/transport"
)

var gctx = context.Background()

// BenchmarkGCReclaim measures the mark-and-sweep pass after a Retire: the
// reference counts already released the retired bodies, so what the sweep
// walks the whole repository to find is the retired versions' tree nodes.
func BenchmarkGCReclaim(b *testing.B) {
	const chunk = 4096
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		c := d.Client()
		blob, err := c.CreateBlob(gctx, chunk)
		if err != nil {
			b.Fatal(err)
		}
		// 8 versions x 32 chunks, all but the last retired.
		for v := 0; v < 8; v++ {
			writes := make(map[uint64][]byte)
			for idx := uint64(0); idx < 32; idx++ {
				writes[idx] = bytes.Repeat([]byte{byte(v)}, chunk)
			}
			if _, err := c.WriteVersion(gctx, blob, writes, 32*chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Retire(gctx, blob, 7); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := c.GC(gctx, d.DataAddrs)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if stats.DeletedNodes == 0 {
			b.Fatal("GC reclaimed nothing")
		}
		b.ReportMetric(float64(stats.DeletedNodes), "nodes_reclaimed")
		d.Close()
	}
}

// successiveCommits drives the Figure 5 workload functionally: `rounds`
// snapshots of a 32-chunk state buffer where `overlap` of each round's
// chunks repeat content from the previous round (re-dumped unchanged
// state) and the rest are fresh. Returns cumulative commit stats.
func successiveCommits(b *testing.B, c *blobseer.Client, rounds, chunks, chunk int, overlap float64) blobseer.CommitStats {
	b.Helper()
	blob, err := c.CreateBlob(gctx, uint64(chunk))
	if err != nil {
		b.Fatal(err)
	}
	var total blobseer.CommitStats
	repeated := int(float64(chunks) * overlap)
	for v := 0; v < rounds; v++ {
		writes := make([]blobseer.Chunk, chunks)
		for idx := range writes {
			var fill byte
			if idx < repeated {
				fill = byte(idx) // identical content every round
			} else {
				fill = byte(64 + v*chunks + idx) // fresh content each round
			}
			writes[idx] = blobseer.Chunk{Index: uint64(idx), Body: bytes.Repeat([]byte{fill}, chunk)}
		}
		_, cs, err := c.WriteChunks(gctx, blob, nil, nil, writes, uint64(chunks*chunk))
		if err != nil {
			b.Fatal(err)
		}
		total.Add(cs)
	}
	return total
}

// BenchmarkCommitSuccessiveCAS measures commit bytes shipped for four
// successive checkpoints with 50% overlapping writes: repeated content ships
// once, so bytes_transferred falls below bytes_logical (what shipping every
// body every round would cost) by the overlap fraction plus cross-round
// reuse.
func BenchmarkCommitSuccessiveCAS(b *testing.B) {
	const chunk = 4096
	var total blobseer.CommitStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		c := d.Client()
		b.StartTimer()
		total = successiveCommits(b, c, 4, 32, chunk, 0.5)
		b.StopTimer()
		d.Close()
	}
	b.ReportMetric(float64(total.TransferBytes), "bytes_transferred")
	b.ReportMetric(float64(total.LogicalBytes), "bytes_logical")
	b.ReportMetric(100*float64(total.DedupChunks)/float64(total.Chunks), "dedup_hit_pct")
}

// BenchmarkRetireRefcountReclaim measures the refcount GC: retiring 7 of 8
// snapshots releases exactly the superseded chunk writes — O(retired
// chunks), no repository sweep (compare BenchmarkGCReclaim).
func BenchmarkRetireRefcountReclaim(b *testing.B) {
	const chunk = 4096
	var stats blobseer.ReclaimStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		c := d.Client()
		blob, err := c.CreateBlob(gctx, chunk)
		if err != nil {
			b.Fatal(err)
		}
		// 8 versions x 32 chunks of per-version content, all but the last
		// retired (the BenchmarkGCReclaim workload).
		for v := 0; v < 8; v++ {
			writes := make(map[uint64][]byte)
			for idx := uint64(0); idx < 32; idx++ {
				writes[idx] = bytes.Repeat([]byte{byte(v)}, chunk)
			}
			if _, err := c.WriteVersion(gctx, blob, writes, 32*chunk); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		stats, err = c.RetireStats(gctx, blob, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if stats.ReclaimedChunks == 0 {
			b.Fatal("refcount retire reclaimed nothing")
		}
		d.Close()
	}
	b.ReportMetric(float64(stats.ReclaimedChunks), "chunks_reclaimed")
	b.ReportMetric(float64(stats.ReclaimedBytes), "bytes_reclaimed")
}
