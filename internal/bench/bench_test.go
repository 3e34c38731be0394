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
	series := All(p, c, t.TempDir())
	if len(series) != 20 {
		t.Fatalf("All returned %d series, want 20 (every table and figure, the CAS dedup extension, and the downtime, commit-stage, trace-critical-path, availability, throughput, disk-log, repair, local-tier, preemption and cluster-health experiments)", len(series))
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

// TestDowntimeAsyncIndependentOfDirtySet is the acceptance check for the
// asynchronous checkpoint pipeline: the work that lands inside the suspend
// window is constant for async commits regardless of the dirty-set size — in
// round trips and, since the capture hands buffers over instead of copying
// them, in time: 32 times the dirty bytes may cost at most twice the window
// plus a millisecond of scheduling slack —
// while the synchronous path's downtime grows with the dirty bytes that
// must cross the bandwidth-limited pipes under suspend. With the batched
// wire protocol, even the sync path's *round trips* stay constant as the
// dirty set grows — a commit costs O(providers) frames — so the growth
// shows up in transfer milliseconds, not in call counts.
func TestDowntimeAsyncIndependentOfDirtySet(t *testing.T) {
	results, err := RunDowntime([]int{8, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		// The async window holds the CHECKPOINT exchange (1 round trip); the
		// background upload may race one extra call onto the shared counter.
		// What matters is a constant bound, independent of the dirty set.
		if r.AsyncNetCalls > 3 {
			t.Errorf("async round trips under suspend scale with dirty set: %d at %v MB", r.AsyncNetCalls, r.DirtyMB)
		}
		// The batched engine groups a commit into per-provider frames: the
		// sync window's round trips are O(providers), never O(chunks) —
		// 256 dirty chunks must not mean 256 calls.
		if r.SyncNetCalls > 40 {
			t.Errorf("sync round trips scale with dirty set at %v MB: %d calls (batching broken?)", r.DirtyMB, r.SyncNetCalls)
		}
		// The sync downtime itself still grows with the dirty bytes shipped
		// under suspend.
		if i > 0 && r.SyncMillis < results[i-1].SyncMillis {
			t.Errorf("sync downtime did not grow with dirty set: %.2fms then %.2fms", results[i-1].SyncMillis, r.SyncMillis)
		}
	}
	first, last := results[0], results[len(results)-1]
	if last.AsyncMillis > 2*first.AsyncMillis+1 {
		t.Errorf("async downtime grows with the dirty set: %.2fms at %v MB, %.2fms at %v MB",
			first.AsyncMillis, first.DirtyMB, last.AsyncMillis, last.DirtyMB)
	}
	if last.AsyncMillis >= last.SyncMillis {
		t.Errorf("async downtime %.2fms not below sync %.2fms at %v MB dirty", last.AsyncMillis, last.SyncMillis, last.DirtyMB)
	}
}

// TestThroughputCommitScalesWithProviders is the acceptance check for the
// parallel striped I/O engine: committing a fixed dirty set against 4
// bandwidth-limited providers must be well over twice as fast as against 1,
// because the engine groups chunks by provider and runs the per-provider
// batched streams concurrently. The sweep is sleep-dominated (the modeled
// pipe is far slower than in-process copies), so the ratio is stable.
func TestThroughputCommitScalesWithProviders(t *testing.T) {
	results, err := RunThroughput([]int{1, 4}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	one, four := results[0], results[1]
	ratio := one.CommitMillis / four.CommitMillis
	if ratio < 2.2 {
		t.Errorf("commit speedup 1->4 providers = %.2fx (%.1fms -> %.1fms), want > 2.2x",
			ratio, one.CommitMillis, four.CommitMillis)
	}
	if one.RestoreMillis <= four.RestoreMillis {
		t.Errorf("restore did not speed up with providers: %.1fms -> %.1fms",
			one.RestoreMillis, four.RestoreMillis)
	}
}

// TestDiskLogSeglogBeatsFilesBackend is the acceptance check for the
// log-structured storage engine: on a real disk, with concurrent committers
// feeding one provider, the segment log's group commit must sustain higher
// durable commit bandwidth than the file-per-chunk store, and its fsync
// count must sit well below its put count (one batched fsync covers many
// riders). A single-committer smoke run keeps CI honest about the counters
// without depending on disk speed.
func TestDiskLogSeglogBeatsFilesBackend(t *testing.T) {
	results, err := RunDiskLog(t.TempDir(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.SeglogPuts == 0 || r.FilesPuts == 0 {
		t.Fatalf("engine counters empty: %+v", r)
	}
	if r.SeglogFsyncs*2 >= r.SeglogPuts {
		t.Errorf("group commit not batching: %d fsyncs for %d puts", r.SeglogFsyncs, r.SeglogPuts)
	}
	if r.SeglogMBps <= r.FilesMBps {
		t.Errorf("seglog %.1f MB/s not above files %.1f MB/s at %d committers",
			r.SeglogMBps, r.FilesMBps, r.Committers)
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
