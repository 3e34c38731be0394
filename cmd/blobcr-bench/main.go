// Command blobcr-bench regenerates every table and figure of the paper's
// evaluation section (Figures 2-6, Table 1) plus the ablation studies and
// the functional availability, repair, preemption and cluster-health
// experiments, and prints them as aligned text tables. Measured performance
// over real TCP and disks is the benchmark/ harness's job, not this one's.
//
// Usage:
//
//	blobcr-bench                # all paper experiments
//	blobcr-bench -ablations     # include the ablation studies
//	blobcr-bench -only fig2b
//	blobcr-bench -only health   # federated SLO alert detection latency
//	blobcr-bench -json out.json # also write machine-readable results
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blobcr/internal/bench"
	"blobcr/internal/simcloud"
)

func main() {
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	only := flag.String("only", "", "run a single experiment (fig2a, fig2b, fig3a, fig3b, fig4, fig5a, fig5b, fig5c, table1, fig6, availability, repair, preemption, health)")
	jsonPath := flag.String("json", "", "also write the results as machine-readable JSON to this path")
	flag.Parse()

	p := simcloud.Default()
	c := simcloud.DefaultCM1()

	byName := map[string]func() bench.Series{
		"fig2a":        func() bench.Series { return bench.Fig2aCheckpoint50MB(p) },
		"fig2b":        func() bench.Series { return bench.Fig2bCheckpoint200MB(p) },
		"fig3a":        func() bench.Series { return bench.Fig3aRestart50MB(p) },
		"fig3b":        func() bench.Series { return bench.Fig3bRestart200MB(p) },
		"fig4":         func() bench.Series { return bench.Fig4SnapshotSize(p) },
		"fig5a":        func() bench.Series { return bench.Fig5aSuccessiveTime(p) },
		"fig5b":        func() bench.Series { return bench.Fig5bSuccessiveSpace(p) },
		"fig5c":        func() bench.Series { return bench.Fig5cSuccessiveDedup(p) },
		"table1":       func() bench.Series { return bench.Table1CM1SnapshotSize(p, c) },
		"fig6":         func() bench.Series { return bench.Fig6CM1Checkpoint(p, c) },
		"availability": func() bench.Series { return bench.FigAvailability() },
		"repair":       func() bench.Series { return bench.FigRepair() },
		"preemption":   func() bench.Series { return bench.FigPreemption() },
		"health":       func() bench.Series { return bench.FigHealth() },
	}

	// A functional experiment that cannot produce its numbers renders with a
	// FAILED title; exit nonzero so CI catches it instead of a human reading
	// tables.
	failed := false
	var results []bench.Series
	render := func(s bench.Series) {
		s.Render(os.Stdout)
		results = append(results, s)
		if strings.Contains(s.Title, "FAILED") {
			failed = true
		}
	}
	// writeJSON emits everything rendered so far as the machine-readable
	// result document CI uploads as an artifact.
	writeJSON := func() {
		if *jsonPath == "" {
			return
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blobcr-bench:", err)
			os.Exit(1)
		}
		params := map[string]float64{
			"nodes":          float64(p.Nodes),
			"meta_providers": float64(p.MetaProviders),
			"disk_bw_mb_s":   p.DiskBW / simcloud.MB,
			"net_bw_mb_s":    p.NetBW / simcloud.MB,
			"chunk_size_kb":  p.ChunkSize / 1024,
		}
		if err := bench.WriteJSON(f, params, results); err != nil {
			fmt.Fprintln(os.Stderr, "blobcr-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "blobcr-bench:", err)
			os.Exit(1)
		}
	}

	if *only != "" {
		gen, ok := byName[strings.ToLower(*only)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
			os.Exit(2)
		}
		render(gen())
		writeJSON()
		if failed {
			os.Exit(1)
		}
		return
	}

	fmt.Println("BlobCR evaluation reproduction (SC'11, Nicolae & Cappello)")
	fmt.Println("Testbed model: 120 compute nodes, 55 MB/s disks, 117.5 MB/s GbE, 256 KB stripes")
	fmt.Println()
	for _, s := range bench.All(p, c) {
		render(s)
	}
	if *ablations {
		fmt.Println("Ablation studies")
		fmt.Println()
		for _, s := range bench.Ablations(p) {
			render(s)
		}
	}
	writeJSON()
	if failed {
		os.Exit(1)
	}
}
