package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// errMixedLabels refuses to judge a measured disk against a modelled one.
var errMixedLabels = errors.New("results mix real-disk and modelled-disk runs")

// verdict is the outcome of one (metric, workload) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved" // spread wider than the bound: no claim either way
)

// judge applies one metric's bound to a base and a candidate sample set. A
// row whose run-to-run spread exceeds the bound on either side is
// unresolved, never "unchanged".
func judge(better string, bound float64, base, cand []float64) (verdict, float64) {
	mb, mc := median(base), median(cand)
	worse := ratio(mc-mb, mb) // share of the base median by which the candidate is worse
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread(base) > bound || spread(cand) > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	}
	return verdictOK, worse
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present in
// both files and returns 1 if any row is worse, 2 if the files cannot be
// compared at all.
func compareFiles(sp *spec, basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err == nil {
		var cand *resultFile
		if cand, err = readResults(candPath); err == nil {
			code, cerr := compareResults(sp, base, cand, stdout)
			if cerr == nil {
				return code
			}
			err = cerr
		}
	}
	fmt.Fprintln(stderr, "benchmark: compare:", err)
	return 2
}

func compareResults(sp *spec, base, cand *resultFile, w io.Writer) (int, error) {
	if base.Provenance.Disk != cand.Provenance.Disk {
		return 2, fmt.Errorf("%w: %s vs %s", errMixedLabels, base.Provenance.Disk, cand.Provenance.Disk)
	}
	fmt.Fprintf(w, "# base %s (%s)  candidate %s (%s)  %s\n", base.Provenance.GitCommit, base.Provenance.FSType,
		cand.Provenance.GitCommit, cand.Provenance.FSType, cand.Provenance.Disk)
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "candidate", "worse", "bound", "verdict")
	code := 0
	for _, sw := range sp.Workloads {
		bw, cw := base.Workloads[sw.Name], cand.Workloads[sw.Name]
		if bw == nil || cw == nil {
			continue
		}
		if cw.Failed > 0 {
			fmt.Fprintf(w, "%-14s %-18s %12d %12d %8s %6s  %s\n", sw.Name, "failed", bw.Failed, cw.Failed, "", "0", verdictWorse)
			code = 1
		}
		for _, m := range sp.EndToEnd {
			bs, cs := bw.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			bound, ok := sp.bound(m.Name)
			if bs == nil || cs == nil || !ok {
				continue
			}
			v, worse := judge(m.Better, bound, bs.Samples, cs.Samples)
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", sw.Name, m.Name,
				median(bs.Samples), median(cs.Samples), 100*worse, 100*bound, v)
			if v == verdictWorse {
				code = 1
			}
		}
	}
	return code, nil
}
