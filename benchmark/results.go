package main

import (
	"fmt"
	"io"
)

// series is one metric's value in every run of a workload.
type series struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Samples []float64 `json:"samples"`
}

// opCounts is how many operations stood behind one run's medians.
type opCounts struct {
	Checkpoints  int `json:"checkpoints"`
	Restarts     int `json:"restarts"` // full: the whole data region restored
	LazyRestarts int `json:"lazy_restarts"`
	Retires      int `json:"retires"`
}

// workloadResult collects a workload's runs.
type workloadResult struct {
	Params    string             `json:"params"`
	Why       string             `json:"why"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer,omitempty"`
	Ops       []opCounts         `json:"ops"` // untraced runs
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Provenance provenance                 `json:"provenance"`
	Seed       int64                      `json:"seed"`
	Runs       int                        `json:"runs"`
	Seconds    float64                    `json:"seconds"`
	Scale      float64                    `json:"scale"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	Probes     map[string]*series         `json:"probes,omitempty"`
}

func newWorkloadResult(w workload) *workloadResult {
	return &workloadResult{Params: w.String(), Why: w.Why, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
}

// add files one run's metrics under the declarations they answer to.
func (wr *workloadResult) add(r *runResult, values map[string]float64, decls []metricDecl) {
	into := wr.EndToEnd
	if r.traced {
		into = wr.PerLayer
	} else {
		full := len(r.fullRestarts())
		wr.Ops = append(wr.Ops, opCounts{len(r.ckpts), full, len(r.restarts) - full, len(r.retires)})
	}
	for _, d := range decls {
		s := into[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit, Better: d.Better}
			into[d.Name] = s
		}
		s.Samples = append(s.Samples, values[d.Name])
	}
	wr.Attempted += r.attempted
	wr.Failed += r.failed
	wr.Failures = append(wr.Failures, r.failures...)
}

func (wr *workloadResult) readFailovers() float64 {
	if s := wr.PerLayer["blobseer.read_failovers"]; s != nil {
		return sum(s.Samples)
	}
	return 0
}

// driverValue is one metric in the driver's result line.
type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of standard output under -driver.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

// driverLine reports the end-to-end metrics of an untraced invocation, the
// per-layer metrics of a traced one.
func (wr *workloadResult) driverLine(traced bool) driverResult {
	from := wr.EndToEnd
	if traced {
		from = wr.PerLayer
	}
	out := driverResult{
		Correct:   wr.Failed == 0 && wr.readFailovers() == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   make(map[string]driverValue, len(from)),
	}
	for name, s := range from {
		out.Metrics[name] = driverValue{Value: median(s.Samples), Unit: s.Unit}
	}
	return out
}

func printWorkload(w io.Writer, wr *workloadResult) {
	var ops opCounts
	for _, o := range wr.Ops {
		ops.Checkpoints += o.Checkpoints
		ops.Restarts += o.Restarts
		ops.LazyRestarts += o.LazyRestarts
		ops.Retires += o.Retires
	}
	fmt.Fprintf(w, "#  samples behind the medians: %d checkpoints, %d full + %d lazy restarts, %d retires over %d run(s); %d/%d operations failed\n",
		ops.Checkpoints, ops.Restarts, ops.LazyRestarts, ops.Retires, len(wr.Ops), wr.Failed, wr.Attempted)
	printDecls(w, "end-to-end (untraced)", endToEndDecls, wr.EndToEnd)
	if len(wr.PerLayer) > 0 {
		printDecls(w, "per layer (traced)", perLayerDecls, wr.PerLayer)
	}
}

func printDecls(w io.Writer, title string, decls []metricDecl, m map[string]*series) {
	fmt.Fprintf(w, "%-44s %-7s %4s %12s %12s %12s %7s\n", title, "unit", "runs", "median", "q1", "q3", "spread")
	for _, d := range decls {
		if s := m[d.Name]; s != nil {
			printSeries(w, d.Name, s)
		}
	}
}

func printMetrics(w io.Writer, title string, m map[string]*series) {
	fmt.Fprintf(w, "\n%-44s %-7s %4s %12s %12s %12s %7s\n", title, "unit", "runs", "median", "q1", "q3", "spread")
	for _, name := range sortedKeys(m) {
		printSeries(w, name, m[name])
	}
}

func printSeries(w io.Writer, name string, s *series) {
	q := quartiles(s.Samples)
	fmt.Fprintf(w, "%-44s %-7s %4d %12.4f %12.4f %12.4f %6.1f%%\n", name, s.Unit, len(s.Samples), q[1], q[0], q[2], 100*spread(s.Samples))
}
