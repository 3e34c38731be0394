package bench

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testScale is the sweep the tests measure: two instance counts, one buffer.
var testScale = Scale{Instances: []int{1, 4}, Buffers: []int{1 << 20}}

// allSeries runs every experiment once at testScale; the tests below share it.
var allSeries = sync.OnceValue(func() []Series { return All(testScale) })

// series returns the test run's series whose title starts with prefix.
func series(t *testing.T, prefix string) Series {
	t.Helper()
	for _, s := range allSeries() {
		if strings.HasPrefix(s.Title, prefix) {
			return s
		}
	}
	t.Fatalf("no series titled %q...", prefix)
	return Series{}
}

// column returns the values of one column of s, in row order.
func column(t *testing.T, s Series, name string) []float64 {
	t.Helper()
	for i, c := range s.Columns {
		if c == name {
			var out []float64
			for _, r := range s.Rows {
				out = append(out, r.Values[i])
			}
			return out
		}
	}
	t.Fatalf("%s: no column %q", s.Title, name)
	return nil
}

// TestAllSeriesWellFormed: every experiment produces a complete table, and
// no paper figure's run failed or restored a state that differs from its
// SHA-256 shadow (either titles the series FAILED).
func TestAllSeriesWellFormed(t *testing.T) {
	all := allSeries()
	if len(all) != 14 {
		t.Fatalf("All returned %d series, want 14 (every table and figure, the CAS dedup extension, and the availability, repair, preemption and cluster-health experiments)", len(all))
	}
	for _, s := range all {
		if strings.Contains(s.Title, "FAILED") {
			t.Errorf("%s: %v", s.Title, s.Notes)
		}
		if s.Title == "" || len(s.Columns) == 0 || len(s.Rows) == 0 {
			t.Errorf("series %q malformed", s.Title)
		}
		for _, r := range s.Rows {
			if len(r.Values) != len(s.Columns) {
				t.Errorf("%s: row %v has %d values for %d columns", s.Title, r.X, len(r.Values), len(s.Columns))
			}
			for i, v := range r.Values {
				if v < 0 {
					t.Errorf("%s: negative value %f in column %s", s.Title, v, s.Columns[i])
				}
			}
		}
	}
}

// TestSnapshotSizeOrdering is Figure 4's shape: BlobCR stores less per
// instance than copying the qcow2 image, and the image copy stores less
// than the image with a savevm snapshot in it.
func TestSnapshotSizeOrdering(t *testing.T) {
	s := series(t, "Figure 4")
	blob, disk, full := column(t, s, "BlobCR-app")[0], column(t, s, "qcow2-disk-app")[0], column(t, s, "qcow2-full")[0]
	if !(0 < blob && blob < disk && disk < full) {
		t.Errorf("per-instance MiB: BlobCR-app %.2f, qcow2-disk-app %.2f, qcow2-full %.2f; want 0 < BlobCR < qcow2-disk < qcow2-full", blob, disk, full)
	}
}

// TestSuccessiveStorage is Figure 5's shape: every qcow2-disk checkpoint is
// a new full image copy, so its storage grows every round, while a BlobCR
// round adds no more than twice the bytes the application dirtied.
func TestSuccessiveStorage(t *testing.T) {
	s := series(t, "Figure 5(b)")
	dirty := float64(testScale.Buffers[0]) / mib
	for _, c := range []string{"qcow2-disk-app", "qcow2-disk-blcr"} {
		v := column(t, s, c)
		for i := 1; i < len(v); i++ {
			if v[i] <= v[i-1] {
				t.Errorf("%s: storage %.2f MiB after round %d, %.2f after round %d; want growth", c, v[i], i+1, v[i-1], i)
			}
		}
	}
	for _, c := range []string{"BlobCR-app", "BlobCR-blcr"} {
		v := column(t, s, c)
		prev := 0.0
		for i, held := range v {
			if inc := held - prev; inc <= 0 || inc > 2*dirty {
				t.Errorf("%s: round %d added %.2f MiB for %.2f MiB dirtied", c, i+1, inc, dirty)
			}
			prev = held
		}
	}
}

func TestRenderProducesTable(t *testing.T) {
	s := Series{Title: "Figure 4: snapshot size per VM instance", XLabel: "buffer MiB", YLabel: "MiB",
		Columns: approachNames, Rows: []Row{{X: 1, Values: []float64{1, 2, 3, 4, 5}}}}
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 4") {
		t.Error("render missing title")
	}
	if !strings.Contains(out, "BlobCR-app") || !strings.Contains(out, "qcow2-full") {
		t.Error("render missing approach columns")
	}
	if len(strings.Split(out, "\n")) < 4 {
		t.Error("render too short")
	}
}

// TestAvailabilityPartialBeatsFull is the acceptance check for the
// autonomous supervisor: both recovery modes ride out an unannounced
// single-node failure with MTTR accounted, and partial restart — which
// re-deploys only the failed member while healthy members roll back in
// place — resumes the job faster than tearing everything down. The gap is
// structural (one cold redeploy instead of three) and the injected 500µs
// per round trip makes it wide; the modes run interleaved, one failure per
// run, and their median MTTRs are compared, so a burst of load on the box
// lands on both sides and no single sample decides.
func TestAvailabilityPartialBeatsFull(t *testing.T) {
	const trials = 5
	var fullMTTR, partialMTTR []float64
	for i := 0; i < trials; i++ {
		full, err := RunAvailability(false, 1)
		if err != nil {
			t.Fatalf("full restart run: %v", err)
		}
		partial, err := RunAvailability(true, 1)
		if err != nil {
			t.Fatalf("partial restart run: %v", err)
		}
		for _, r := range []AvailabilityResult{full, partial} {
			if len(r.MTTRMillis) != 1 || r.MeanMTTRMillis <= 0 {
				t.Fatalf("%s: MTTR not accounted: %+v", r.Mode, r)
			}
			if r.UsefulWorkFraction <= 0 || r.UsefulWorkFraction >= 1 {
				t.Errorf("%s: useful-work fraction %.2f, want in (0, 1) with lost rounds re-done", r.Mode, r.UsefulWorkFraction)
			}
			if r.CheckpointsDurable < 2 {
				t.Errorf("%s: only %d durable checkpoints", r.Mode, r.CheckpointsDurable)
			}
		}
		// Structural: partial redeploys only the failed member.
		if full.RedeployedVMs != availInstances {
			t.Errorf("full restart redeployed %d VMs, want %d", full.RedeployedVMs, availInstances)
		}
		if partial.RedeployedVMs != 1 || partial.InPlaceVMs != availInstances-1 {
			t.Errorf("partial restart redeployed %d / in-place %d, want 1 / %d",
				partial.RedeployedVMs, partial.InPlaceVMs, availInstances-1)
		}
		fullMTTR = append(fullMTTR, full.MeanMTTRMillis)
		partialMTTR = append(partialMTTR, partial.MeanMTTRMillis)
	}
	// Time-to-resume: partial beats full for a single-node failure.
	full, partial := median(fullMTTR), median(partialMTTR)
	t.Logf("median MTTR over %d failures each: full %.2fms, partial %.2fms", trials, full, partial)
	if partial >= full {
		t.Errorf("partial restart median MTTR %.2fms not below full restart %.2fms (full %v, partial %v)",
			partial, full, fullMTTR, partialMTTR)
	}
}

// median returns the middle of xs (the upper middle for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// TestRepairMTTRShrinksWithProviders: the repair experiment converges to a
// clean scrub at every sweep point, and storage MTTR drops as the provider
// count grows — each provider holds a smaller share of the replicas, and
// both the survey fetches and the re-replication streams spread wider.
func TestRepairMTTRShrinksWithProviders(t *testing.T) {
	results, err := RunRepair([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	two, eight := results[0], results[1]
	if two.ReplicasRestored == 0 || eight.ReplicasRestored == 0 {
		t.Fatalf("repair restored nothing: %+v %+v", two, eight)
	}
	if two.StorageMTTRMs <= eight.StorageMTTRMs {
		t.Errorf("storage MTTR did not shrink with providers: %.1fms at 2 -> %.1fms at 8",
			two.StorageMTTRMs, eight.StorageMTTRMs)
	}
	if two.UnderReplicated <= eight.UnderReplicated {
		t.Errorf("chunks lost per provider should shrink with providers: %d at 2 -> %d at 8",
			two.UnderReplicated, eight.UnderReplicated)
	}
}
