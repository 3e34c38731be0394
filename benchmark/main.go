// Command benchmark measures checkpoint and restart through the whole BlobCR
// stack — cloud, proxy, mirror, repository client, providers — over loopback
// TCP sockets and seglog on a real directory, all services in this process.
// See README.md for the metrics, the workloads and what each layer metric is
// expected to move.
//
//	go run . [-workload name] [-seed n] [-runs k] [-seconds s] [-trace] [-probes] [-dir d] [-json out]
//	go run . -compare a.json b.json
//
// run.sh is the entry BENCHMARK.json names: it builds this program inside
// the checkout and runs it with -driver, which prints the one-line result
// the driver reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	runs     int
	seconds  float64
	scale    float64
	trace    bool
	probes   bool
	driver   bool
	compare  bool
	dir      string
	jsonOut  string
	traceOut string
	spec     string
}

// normalizeArgs lets the boolean -trace also be written "--trace 0|1", the
// form the driver uses.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string, stderr io.Writer) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "workload generator seed")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload; medians and quartiles are taken across them")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	fs.Float64Var(&o.scale, "scale", 1, "shrink images, dirty sets and the window by this factor (smoke tests)")
	fs.BoolVar(&o.trace, "trace", false, "repeat each run with the interposers in place and report per-layer metrics")
	fs.BoolVar(&o.probes, "probes", false, "run the layer probes and same-box ceilings")
	fs.BoolVar(&o.driver, "driver", false, "print the one-line JSON result as the last line of standard output")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json result files against the bounds in BENCHMARK.json")
	fs.StringVar(&o.dir, "dir", "", "scratch directory (default: a fresh temporary directory), removed on exit")
	fs.StringVar(&o.jsonOut, "json", "", "write every sample and the provenance header to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the last traced run's spans here (default trace.json, nothing with -driver)")
	fs.StringVar(&o.spec, "spec", "", "path of BENCHMARK.json (default: ./ then ../)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, nil, err
	}
	return o, fs.Args(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit for the tests.
func run(args []string, stdout, stderr io.Writer) int {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.compare {
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, rest[0], rest[1], stdout, stderr)
	}
	if len(rest) != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", rest)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.seconds *= o.scale
	if o.runs < 1 {
		o.runs = 1
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	if o.driver && len(selected) != 1 {
		fmt.Fprintln(stderr, "benchmark: -driver needs -workload")
		return 2
	}

	// Scratch is removed on every exit path, signals included.
	scratch, err := makeScratch(o.dir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -driver the report goes to standard error: standard output
	// carries the result line alone.
	report := stdout
	if o.driver {
		report = stderr
	}
	prov := newProvenance(scratch)
	fmt.Fprintf(report, "# blobcr benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s fs=%s (%s) seed=%d runs=%d seconds=%.2f scale=%g\n",
		prov.NProc, prov.GOMAXPROCS, prov.GoVersion, prov.GitCommit, prov.FSType, prov.Disk, o.seed, o.runs, o.seconds, o.scale)

	out := resultFile{Provenance: prov, Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Scale: o.scale, Workloads: map[string]*workloadResult{}}
	code := 0
	var last *workloadResult
	for _, w := range selected {
		w = w.scale(o.scale)
		fmt.Fprintf(report, "\n## %s\n#  why: %s\n", w, w.Why)
		wr, err := runSeries(ctx, w, o, scratch, report)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		out.Workloads[w.Name] = wr
		last = wr
		printWorkload(report, wr)
		if wr.Failed > 0 || wr.readFailovers() > 0 {
			for _, f := range wr.Failures {
				fmt.Fprintf(stderr, "benchmark: %s: failed: %s\n", w.Name, f)
			}
			code = 1
		}
	}
	if o.probes {
		out.Probes = runProbes(ctx, scratch, report)
		if bulk := out.Workloads["bulk_unique"]; bulk != nil {
			addCeilingFractions(out.Probes, bulk)
		}
		printMetrics(report, "probes and ceilings", out.Probes)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.driver {
		if err := json.NewEncoder(stdout).Encode(last.driverLine(o.trace)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// makeScratch returns a fresh directory to deploy under: inside dir when
// one is named (created if need be), else under the system default.
func makeScratch(dir string) (string, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(dir, "blobcr-bench-")
}

// runSeries runs one workload o.runs times. Each run is untraced; with
// -trace it is followed by a traced twin, and the per-layer metrics — the
// tracing overhead among them — come from comparing the two. With -driver
// the pair shares the window, half each, so a traced invocation costs what
// an untraced one does.
func runSeries(ctx context.Context, w workload, o options, scratch string, report io.Writer) (*workloadResult, error) {
	wr := newWorkloadResult(w)
	seconds := o.seconds
	if o.driver && o.trace {
		seconds /= 2
	}
	for i := 0; i < o.runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runWorkload(ctx, w, o.seed, seconds, scratch, nil)
		if err != nil {
			return nil, err
		}
		e2e := endToEnd(r)
		wr.add(r, e2e, endToEndDecls)
		fmt.Fprintf(report, "#  run %d: %d checkpoints, %d full + %d lazy restarts, %d retires sampled; %d/%d operations failed\n",
			i+1, len(r.ckpts), len(r.fullRestarts()), len(r.restarts)-len(r.fullRestarts()), len(r.retires), r.failed, r.attempted)
		if !o.trace {
			continue
		}
		rec := newRecorder()
		tr, err := runWorkload(ctx, w, o.seed, seconds, scratch, rec)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		wr.add(tr, perLayer(tr, e2e["ckpt_p50_ms"]), perLayerDecls)
		fmt.Fprintf(report, "#  run %d traced: %d checkpoints, %d full restarts, %d spans\n",
			i+1, len(tr.ckpts), len(tr.fullRestarts()), len(tr.trace.spans))
		path := o.traceOut
		if path == "" && !o.driver {
			path = "trace.json"
		}
		if path != "" && i == o.runs-1 {
			if err := tr.trace.write(path); err != nil {
				return nil, err
			}
		}
	}
	return wr, nil
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent (the program runs from the repository root or from benchmark/).
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var firstErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if s.RunSeconds < 1 {
			return nil, fmt.Errorf("%s: run_seconds must be at least 1", p)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", firstErr)
}

func (s *spec) bound(metric string) (float64, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == metric && m.Bound != nil {
			return *m.Bound, true
		}
	}
	return 0, false
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
