// Package bench is the experiment harness: one generator per table and
// figure of the paper's evaluation section, each measuring the series the
// paper plots on the real plane (plane.go), plus the availability, repair,
// preemption and cluster-health experiments. cmd/blobcr-bench drives it.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
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

// WriteJSON writes the full result document: the parameters the run used,
// then every series in order.
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

// grid is a sweep's reports, [instance count][approach], and its errors.
type grid struct {
	n    []int
	reps [][]*report
	err  error
}

// measure runs w under the first k approaches at every instance count in ns.
func measure(ns []int, k int, w workload, rounds int) grid {
	g := grid{n: ns}
	for _, n := range ns {
		row := make([]*report, k)
		for a := range row {
			var err error
			if row[a], err = run(approach(a), n, w, rounds); err != nil {
				g.err = errors.Join(g.err, fmt.Errorf("%s at %d instances: %w", approachNames[a], n, err))
			}
		}
		g.reps = append(g.reps, row)
	}
	return g
}

// paperSeries starts one of the paper's tables over g: it carries the
// scale, and a failed run or a restored state that differs from its shadow
// titles it FAILED.
func paperSeries(title, xlabel, ylabel string, g grid) Series {
	s := Series{Title: title, XLabel: xlabel, YLabel: ylabel, Columns: approachNames[:len(g.reps[0])], Notes: []string{scaleNote}}
	var bad int64
	for _, row := range g.reps {
		for _, r := range row {
			bad += r.mismatches.Load()
		}
	}
	switch {
	case g.err != nil:
		s.Title += " FAILED"
		s.Notes = append(s.Notes, g.err.Error())
	case bad > 0:
		s.Title += " FAILED"
		s.Notes = append(s.Notes, fmt.Sprintf("%d restored states differ from their SHA-256 shadows", bad))
	default:
		s.Notes = append(s.Notes, "every restored state matched its SHA-256 shadow")
	}
	return s
}

// add appends the row x: f of each report, 0 where a failed run left none.
func (s *Series) add(x float64, reps []*report, f func(r *report) []float64, i int) {
	row := Row{X: x}
	for _, r := range reps {
		row.Values = append(row.Values, 0)
		if v := f(r); i < len(v) {
			row.Values[len(row.Values)-1] = v[i]
		}
	}
	s.Rows = append(s.Rows, row)
}

// bySweep is a series of g with one row per instance count (times perVM
// processes): column values are f(report)[0].
func bySweep(title, xlabel, ylabel string, g grid, perVM int, f func(r *report) []float64) Series {
	s := paperSeries(title, xlabel, ylabel, g)
	for i, n := range g.n {
		s.add(float64(perVM*n), g.reps[i], f, 0)
	}
	return s
}

func ckptTimes(r *report) []float64 { return r.ckpt }
func storedMiB(r *report) []float64 { return r.stored }

const (
	successiveRounds = 4 // Figure 5's checkpoints of one instance
	// dedupOverlap is Figure 5(c)'s share of each round's buffer left as the
	// previous round wrote it (stdchk measures 0.25-0.80 for checkpoint
	// streams).
	dedupOverlap = 0.4
)

// Experiment is one table or figure, by its cmd/blobcr-bench -only name.
type Experiment struct {
	Name string
	Run  func() Series
}

// Experiments lists every experiment at scale s, in order: the paper's
// tables and figures measured on the real plane, then the functional
// availability, repair, preemption and cluster-health experiments.
// Experiments that share a sweep measure it once.
func Experiments(s Scale) []Experiment {
	sweeps := map[int]grid{}
	sweep := func(b int) grid {
		if _, ok := sweeps[b]; !ok {
			sweeps[b] = measure(s.Instances, 5, buffer(b, 0), 1)
		}
		return sweeps[b]
	}
	// Figure 5: one instance, four checkpoints of the large buffer, refilled
	// with fresh bytes every round.
	successive := sync.OnceValue(func() grid { return measure([]int{1}, 5, buffer(s.large(), 0), successiveRounds) })
	cm1s := sync.OnceValue(func() grid { return measure(s.Instances, 4, cm1Job(), 1) })
	label := func(b int, paper string) string {
		return fmt.Sprintf("%g MiB buffer (the paper's %s)", float64(b)/mib, paper)
	}
	ckpt := func(fig string, b int, paper string) Series {
		g := sweep(b)
		out := bySweep("Figure "+fig+": checkpoint time, "+label(b, paper), "instances", "completion time, s", g, 1, ckptTimes)
		out.Notes = append(out.Notes, fmt.Sprintf("BlobCR-app at %d instances: %.1f version-manager calls per instance checkpoint",
			s.most(), g.reps[len(g.reps)-1][blobcrApp].vmCalls))
		return out
	}
	restart := func(fig string, b int, paper string) Series {
		return bySweep("Figure "+fig+": restart time, "+label(b, paper), "instances", "redeploy + read-back time, s", sweep(b), 1,
			func(r *report) []float64 { return []float64{r.restart} })
	}
	rounds := func(title, ylabel string, f func(r *report) []float64) Series {
		g := successive()
		out := paperSeries(title, "checkpoint #", ylabel, g)
		for i := 0; i < successiveRounds; i++ {
			out.add(float64(i+1), g.reps[0], f, i)
		}
		return out
	}
	return []Experiment{
		{"fig2a", func() Series { return ckpt("2(a)", s.small(), "50 MB") }},
		{"fig2b", func() Series { return ckpt("2(b)", s.large(), "200 MB") }},
		{"fig3a", func() Series { return restart("3(a)", s.small(), "50 MB") }},
		{"fig3b", func() Series { return restart("3(b)", s.large(), "200 MB") }},
		{"fig4", func() Series {
			// The sweeps' largest instance count, one row per buffer.
			sizes := grid{}
			for _, b := range s.Buffers {
				g := sweep(b)
				sizes.reps, sizes.err = append(sizes.reps, g.reps[len(g.reps)-1]), errors.Join(sizes.err, g.err)
			}
			out := paperSeries(fmt.Sprintf("Figure 4: snapshot size per VM instance (%d instances)", s.most()), "buffer MiB", "repository MiB per instance", sizes)
			for i, b := range s.Buffers {
				out.add(float64(b)/mib, sizes.reps[i], storedMiB, 0)
			}
			return out
		}},
		{"fig5a", func() Series {
			return rounds("Figure 5(a): successive checkpoints, completion time, "+label(s.large(), "200 MB"), "time, s", ckptTimes)
		}},
		{"fig5b", func() Series {
			return rounds("Figure 5(b): successive checkpoints, storage utilization, "+label(s.large(), "200 MB"), "repository MiB",
				storedMiB)
		}},
		{"fig5c", func() Series { return fig5c(s) }},
		{"table1", func() Series {
			g := cm1s()
			out := paperSeries(fmt.Sprintf("Table 1: CM1 per disk snapshot size (%d instances)", s.most()), "-", "repository MiB per instance", g)
			out.add(0, g.reps[len(g.reps)-1], storedMiB, 0)
			return out
		}},
		{"fig6", func() Series {
			return bySweep("Figure 6: CM1 checkpoint time (4 processes per VM)", "processes", "completion time, s", cm1s(), 4, ckptTimes)
		}},
		{"availability", FigAvailability},
		{"repair", FigRepair},
		{"preemption", FigPreemption},
		{"health", FigHealth},
	}
}

// fig5c extends Figure 5 with the content-addressed repository: BlobCR-app's
// successive checkpoints when part of each round's buffer is left as the
// previous round wrote it. Per round it reads the CAS counters: the bytes
// the commit referenced and newly stored, the bytes held, the hit rate.
func fig5c(s Scale) Series {
	g := measure([]int{1}, 1, buffer(s.large(), dedupOverlap), successiveRounds)
	out := paperSeries(fmt.Sprintf("Figure 5(c): successive checkpoints with CAS dedup (%g MiB buffer, %.0f%% kept per round)",
		float64(s.large())/mib, 100*dedupOverlap), "checkpoint #", "MiB (hit-rate in %)", g)
	out.Columns = []string{"logical MiB", "transfer MiB", "storage MiB", "hit-rate %"}
	st := g.reps[0][0].cas
	for i := 1; i < len(st); i++ {
		hits, probes := st[i].Hits-st[i-1].Hits, st[i].Hits+st[i].Misses-st[i-1].Hits-st[i-1].Misses
		out.Rows = append(out.Rows, Row{X: float64(i), Values: []float64{
			float64(st[i].LogicalBytes-st[i-1].LogicalBytes) / mib,
			float64(st[i].PhysicalBytes-st[i-1].PhysicalBytes) / mib,
			float64(st[i].PhysicalBytes-st[0].PhysicalBytes) / mib,
			100 * float64(hits) / float64(max(probes, 1)),
		}})
	}
	return out
}

// All runs every experiment at scale s, in order.
func All(s Scale) []Series {
	var out []Series
	for _, e := range Experiments(s) {
		out = append(out, e.Run())
	}
	return out
}
