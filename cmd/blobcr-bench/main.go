// Command blobcr-bench regenerates every table and figure of the paper's
// evaluation section (Figures 2-6, Table 1), measured on the real plane:
// BlobCR deployments of up to 64 instances over loopback TCP and seglog,
// against qcow2 images copied into PVFS, at 1/50 of the paper's sizes. It
// also runs the functional availability, repair, preemption and
// cluster-health experiments, and prints everything as aligned text tables.
// A series whose run failed, or whose restored state differs from its
// SHA-256 shadow, is titled FAILED and makes the command exit nonzero.
//
// Usage:
//
//	blobcr-bench                # all experiments
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
)

func main() {
	only := flag.String("only", "", "run a single experiment (fig2a, fig2b, fig3a, fig3b, fig4, fig5a, fig5b, fig5c, table1, fig6, availability, repair, preemption, health)")
	jsonPath := flag.String("json", "", "also write the results as machine-readable JSON to this path")
	flag.Parse()

	s := bench.Paper
	byName := map[string]func() bench.Series{}
	for _, e := range bench.Experiments(s) {
		byName[e.Name] = e.Run
	}

	// A series that cannot produce its numbers renders with a FAILED title;
	// exit nonzero so CI catches it instead of a human reading tables.
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
		if err := bench.WriteJSON(f, s.Params(), results); err != nil {
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
	fmt.Printf("Measured on the real plane at 1/50 of the paper's sizes: %v instances, %v-byte buffers\n", s.Instances, s.Buffers)
	fmt.Println()
	for _, series := range bench.All(s) {
		render(series)
	}
	writeJSON()
	if failed {
		os.Exit(1)
	}
}
