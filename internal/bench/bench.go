// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation section, each producing the same series
// the paper plots, plus ablation experiments for the design choices called
// out in DESIGN.md. cmd/blobcr-bench and the root bench_test.go drive it.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"blobcr/internal/simcloud"
)

// Series is one experiment's output: a labeled table whose first column is
// the sweep variable and whose remaining columns are the approaches (or
// metrics) the paper plots.
type Series struct {
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	Rows    []Row
	Notes   []string // free-form findings rendered under the table
}

// Row is one sweep point.
type Row struct {
	X      float64
	Values []float64
}

// Render writes the series as an aligned text table.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "  %-14s", s.XLabel)
	for _, c := range s.Columns {
		fmt.Fprintf(w, " %16s", c)
	}
	fmt.Fprintf(w, "   [%s]\n", s.YLabel)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "  %-14.0f", r.X)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %16.2f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range s.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w, strings.Repeat("-", 24+17*len(s.Columns)))
}

// JSONSeries is the machine-readable form of one Series, for the -json
// output cmd/blobcr-bench writes (and CI uploads as an artifact): the
// experiment name, its axes and unit, and every row's values — everything
// the rendered table holds, parseable without scraping aligned text.
type JSONSeries struct {
	Name    string    `json:"name"`
	XLabel  string    `json:"x_label"`
	Unit    string    `json:"unit"`
	Columns []string  `json:"columns"`
	Rows    []JSONRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
	// Failed mirrors the FAILED convention in titles, so result consumers
	// need not substring-match.
	Failed bool `json:"failed,omitempty"`
}

// JSONRow is one sweep point of a JSONSeries.
type JSONRow struct {
	X      float64   `json:"x"`
	Values []float64 `json:"values"`
}

// JSON converts the series to its machine-readable form.
func (s *Series) JSON() JSONSeries {
	out := JSONSeries{
		Name:    s.Title,
		XLabel:  s.XLabel,
		Unit:    s.YLabel,
		Columns: s.Columns,
		Notes:   s.Notes,
		Failed:  strings.Contains(s.Title, "FAILED"),
	}
	for _, r := range s.Rows {
		out.Rows = append(out.Rows, JSONRow{X: r.X, Values: r.Values})
	}
	return out
}

// WriteJSON writes the full result document: the model parameters the run
// used, then every series in order.
func WriteJSON(w io.Writer, params map[string]float64, series []Series) error {
	doc := struct {
		Params map[string]float64 `json:"params,omitempty"`
		Series []JSONSeries       `json:"series"`
	}{Params: params}
	for i := range series {
		doc.Series = append(doc.Series, series[i].JSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// approachColumns returns the paper's column headers.
func approachColumns(as []simcloud.Approach) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// instanceSweep is the instance-count axis of Figures 2 and 3.
var instanceSweep = []int{1, 30, 60, 90, 120}

// checkpointSeries builds one of Figure 2's panels.
func checkpointSeries(p simcloud.Params, title string, state float64) Series {
	s := Series{
		Title:   title,
		XLabel:  "instances",
		YLabel:  "completion time, s",
		Columns: approachColumns(simcloud.Approaches),
	}
	for _, n := range instanceSweep {
		row := Row{X: float64(n)}
		for _, a := range simcloud.Approaches {
			row.Values = append(row.Values, simcloud.CheckpointTime(p, a, n, state, 1))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Fig2aCheckpoint50MB reproduces Figure 2(a).
func Fig2aCheckpoint50MB(p simcloud.Params) Series {
	return checkpointSeries(p, "Figure 2(a): checkpoint time, 50 MB buffer", 50*simcloud.MB)
}

// Fig2bCheckpoint200MB reproduces Figure 2(b).
func Fig2bCheckpoint200MB(p simcloud.Params) Series {
	return checkpointSeries(p, "Figure 2(b): checkpoint time, 200 MB buffer", 200*simcloud.MB)
}

func restartSeries(p simcloud.Params, title string, state float64) Series {
	s := Series{
		Title:   title,
		XLabel:  "hosts",
		YLabel:  "completion time, s",
		Columns: approachColumns(simcloud.Approaches),
	}
	for _, n := range instanceSweep {
		row := Row{X: float64(n)}
		for _, a := range simcloud.Approaches {
			row.Values = append(row.Values, simcloud.RestartTime(p, a, n, state, 1))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Fig3aRestart50MB reproduces Figure 3(a).
func Fig3aRestart50MB(p simcloud.Params) Series {
	return restartSeries(p, "Figure 3(a): restart time, 50 MB buffer", 50*simcloud.MB)
}

// Fig3bRestart200MB reproduces Figure 3(b).
func Fig3bRestart200MB(p simcloud.Params) Series {
	return restartSeries(p, "Figure 3(b): restart time, 200 MB buffer", 200*simcloud.MB)
}

// Fig4SnapshotSize reproduces Figure 4: per-VM snapshot size for 50 MB and
// 200 MB buffers under all five approaches.
func Fig4SnapshotSize(p simcloud.Params) Series {
	s := Series{
		Title:   "Figure 4: snapshot size per VM instance",
		XLabel:  "buffer MB",
		YLabel:  "snapshot size, MB",
		Columns: approachColumns(simcloud.Approaches),
	}
	for _, state := range []float64{50 * simcloud.MB, 200 * simcloud.MB} {
		row := Row{X: state / simcloud.MB}
		for _, a := range simcloud.Approaches {
			row.Values = append(row.Values, p.SnapshotBytes(a, state, 1)/simcloud.MB)
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Fig5aSuccessiveTime reproduces Figure 5(a): completion time of four
// successive checkpoints of one VM with a 200 MB buffer.
func Fig5aSuccessiveTime(p simcloud.Params) Series {
	return successiveSeries(p, "Figure 5(a): successive checkpoints, completion time", func(r simcloud.SuccessiveResult) float64 {
		return r.TimeSeconds
	}, "time, s")
}

// Fig5bSuccessiveSpace reproduces Figure 5(b): cumulative storage of the
// same experiment.
func Fig5bSuccessiveSpace(p simcloud.Params) Series {
	return successiveSeries(p, "Figure 5(b): successive checkpoints, storage utilization", func(r simcloud.SuccessiveResult) float64 {
		return r.StorageBytes / simcloud.MB
	}, "storage, MB")
}

func successiveSeries(p simcloud.Params, title string, metric func(simcloud.SuccessiveResult) float64, ylabel string) Series {
	s := Series{
		Title:   title,
		XLabel:  "checkpoint #",
		YLabel:  ylabel,
		Columns: approachColumns(simcloud.Approaches),
	}
	const rounds = 4
	results := make([][]simcloud.SuccessiveResult, len(simcloud.Approaches))
	for i, a := range simcloud.Approaches {
		results[i] = simcloud.SuccessiveCheckpoints(p, a, rounds, 200*simcloud.MB)
	}
	for r := 0; r < rounds; r++ {
		row := Row{X: float64(r + 1)}
		for i := range simcloud.Approaches {
			row.Values = append(row.Values, metric(results[i][r]))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Fig5cSuccessiveDedup extends the Figure 5 successive-checkpoint
// experiment with the content-addressed repository (internal/cas): per
// round, the logical commit volume, the bytes actually shipped after
// fingerprint dedup, the cumulative physical storage, and the dedup hit
// rate, at the calibrated chunk-overlap fraction.
func Fig5cSuccessiveDedup(p simcloud.Params) Series {
	s := Series{
		Title:   "Figure 5(c): successive checkpoints with CAS dedup (200 MB buffer)",
		XLabel:  "checkpoint #",
		YLabel:  "MB (hit-rate in %)",
		Columns: []string{"logical MB", "transfer MB", "storage MB", "hit-rate %"},
	}
	const rounds = 4
	results := simcloud.SuccessiveDedupCheckpoints(p, rounds, 200*simcloud.MB, p.DedupOverlap)
	for _, r := range results {
		s.Rows = append(s.Rows, Row{X: float64(r.Round), Values: []float64{
			r.LogicalBytes / simcloud.MB,
			r.TransferBytes / simcloud.MB,
			r.StorageBytes / simcloud.MB,
			100 * r.HitRate,
		}})
	}
	return s
}

// Table1CM1SnapshotSize reproduces Table 1: CM1 per-disk-snapshot size.
func Table1CM1SnapshotSize(p simcloud.Params, c simcloud.CM1Params) Series {
	s := Series{
		Title:   "Table 1: CM1 per disk snapshot size",
		XLabel:  "-",
		YLabel:  "size, MB",
		Columns: approachColumns(simcloud.Approaches[:4]),
	}
	row := Row{X: 0}
	for _, a := range simcloud.Approaches[:4] {
		row.Values = append(row.Values, simcloud.CM1SnapshotBytes(p, c, a)/simcloud.MB)
	}
	s.Rows = append(s.Rows, row)
	return s
}

// Fig6CM1Checkpoint reproduces Figure 6: CM1 checkpoint performance for an
// increasing number of processes (4 per quad-core VM).
func Fig6CM1Checkpoint(p simcloud.Params, c simcloud.CM1Params) Series {
	s := Series{
		Title:   "Figure 6: CM1 checkpoint time (4 processes per VM)",
		XLabel:  "processes",
		YLabel:  "completion time, s",
		Columns: approachColumns(simcloud.Approaches[:4]),
	}
	for _, n := range []int{4, 40, 100, 200, 300, 400} {
		row := Row{X: float64(n)}
		for _, a := range simcloud.Approaches[:4] {
			row.Values = append(row.Values, simcloud.CM1CheckpointTime(p, c, a, n))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// All returns every paper experiment in order, plus the functional
// availability, repair, preemption and cluster-health experiments that ride
// the real stack.
func All(p simcloud.Params, c simcloud.CM1Params) []Series {
	return []Series{
		Fig2aCheckpoint50MB(p),
		Fig2bCheckpoint200MB(p),
		Fig3aRestart50MB(p),
		Fig3bRestart200MB(p),
		Fig4SnapshotSize(p),
		Fig5aSuccessiveTime(p),
		Fig5bSuccessiveSpace(p),
		Fig5cSuccessiveDedup(p),
		Table1CM1SnapshotSize(p, c),
		Fig6CM1Checkpoint(p, c),
		FigAvailability(),
		FigRepair(),
		FigPreemption(),
		FigHealth(),
	}
}
