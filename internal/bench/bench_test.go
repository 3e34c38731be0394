package bench

import (
	"bytes"
	"strings"
	"testing"

	"blobcr/internal/simcloud"
)

func TestAllSeriesWellFormed(t *testing.T) {
	p := simcloud.Default()
	c := simcloud.DefaultCM1()
	series := All(p, c)
	if len(series) != 14 {
		t.Fatalf("All returned %d series, want 14 (every table and figure, the CAS dedup extension, and the availability, repair, preemption and cluster-health experiments)", len(series))
	}
	for _, s := range series {
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

func TestRenderProducesTable(t *testing.T) {
	p := simcloud.Default()
	s := Fig4SnapshotSize(p)
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 4") {
		t.Error("render missing title")
	}
	if !strings.Contains(out, "BlobCR-app") || !strings.Contains(out, "qcow2-full") {
		t.Error("render missing approach columns")
	}
	if len(strings.Split(out, "\n")) < 5 {
		t.Error("render too short")
	}
}

func TestAblationsWellFormed(t *testing.T) {
	p := simcloud.Default()
	abl := Ablations(p)
	if len(abl) != 5 {
		t.Fatalf("Ablations returned %d series, want 5", len(abl))
	}
	for _, s := range abl {
		for _, r := range s.Rows {
			if len(r.Values) != len(s.Columns) {
				t.Errorf("%s: ragged row", s.Title)
			}
		}
	}
}

func TestAblationStripeSizeTradeoff(t *testing.T) {
	p := simcloud.Default()
	s := AblationStripeSize(p)
	// Larger stripes -> larger snapshots (coarser rounding).
	first := s.Rows[0].Values[1]
	last := s.Rows[len(s.Rows)-1].Values[1]
	if last <= first {
		t.Errorf("snapshot size did not grow with stripe size: %f -> %f", first, last)
	}
}

func TestAblationReplicationCost(t *testing.T) {
	p := simcloud.Default()
	s := AblationReplication(p)
	if s.Rows[2].Values[0] <= s.Rows[0].Values[0] {
		t.Error("3x replication not slower than 1x")
	}
	if s.Rows[1].Values[1] != 2*s.Rows[0].Values[1] {
		t.Error("2x replication does not double stored bytes")
	}
}

func TestAblationLazyBeatsFullBroadcast(t *testing.T) {
	p := simcloud.Default()
	s := AblationRestartTransfer(p)
	for _, r := range s.Rows {
		if r.Values[0] >= r.Values[1] {
			t.Errorf("hosts=%v: lazy (%f) not faster than full broadcast (%f)", r.X, r.Values[0], r.Values[1])
		}
	}
}

func TestAblationMetadataProvidersHelp(t *testing.T) {
	p := simcloud.Default()
	s := AblationMetadataProviders(p)
	if s.Rows[0].Values[0] <= s.Rows[4].Values[0] {
		t.Error("1 metadata provider not slower than 20 under 120-writer concurrency")
	}
}

func TestAblationGranularityTaxSmallAndShrinking(t *testing.T) {
	p := simcloud.Default()
	s := AblationGranularity(p)
	// The paper: <5% at 200 MB, and the absolute overhead stays constant
	// (so the percentage shrinks with size).
	var at200 float64
	for _, r := range s.Rows {
		if r.X == 200 {
			at200 = r.Values[2]
		}
	}
	if at200 <= 0 || at200 > 5 {
		t.Errorf("granularity tax at 200MB = %.2f%%, want (0, 5]", at200)
	}
	if s.Rows[0].Values[2] <= s.Rows[len(s.Rows)-1].Values[2] {
		t.Error("relative overhead should shrink as buffers grow")
	}
}

// TestAvailabilityPartialBeatsFull is the acceptance check for the
// autonomous supervisor: both recovery modes ride out an unannounced
// single-node failure with MTTR accounted, and partial restart — which
// re-deploys only the failed member while healthy members roll back in
// place — resumes the job faster than tearing everything down. The gap is
// structural (one cold redeploy instead of three) and the injected 500µs
// per round trip makes it wide, so the comparison is robust to scheduler
// noise.
func TestAvailabilityPartialBeatsFull(t *testing.T) {
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
	// Time-to-resume: partial beats full for a single-node failure.
	if partial.MeanMTTRMillis >= full.MeanMTTRMillis {
		t.Errorf("partial restart MTTR %.2fms not below full restart %.2fms",
			partial.MeanMTTRMillis, full.MeanMTTRMillis)
	}
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
