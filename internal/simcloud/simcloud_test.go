package simcloud

import (
	"math"
	"testing"
)

// The tests assert the paper's qualitative results (who wins, by roughly
// what factor, what grows how) rather than absolute seconds.

func TestApproachStrings(t *testing.T) {
	want := map[Approach]string{
		BlobCRApp:     "BlobCR-app",
		Qcow2DiskApp:  "qcow2-disk-app",
		BlobCRBlcr:    "BlobCR-blcr",
		Qcow2DiskBlcr: "qcow2-disk-blcr",
		Qcow2Full:     "qcow2-full",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestSnapshotSizesMatchFigure4(t *testing.T) {
	p := Default()
	// Paper, Figure 4 (MB): minor OS updates ~13 (BlobCR) vs ~7 (qcow2);
	// blcr adds < 2 MB; full adds ~118 MB.
	cases := []struct {
		a        Approach
		state    float64
		min, max float64 // acceptable band in MB
	}{
		{BlobCRApp, 50 * MB, 60, 66},
		{Qcow2DiskApp, 50 * MB, 55, 59},
		{BlobCRBlcr, 50 * MB, 62, 68},
		{Qcow2DiskBlcr, 50 * MB, 56, 61},
		{Qcow2Full, 50 * MB, 170, 180},
		{BlobCRApp, 200 * MB, 210, 216},
		{Qcow2DiskApp, 200 * MB, 205, 209},
		{Qcow2Full, 200 * MB, 320, 330},
	}
	for _, c := range cases {
		got := p.SnapshotBytes(c.a, c.state, 1) / MB
		if got < c.min || got > c.max {
			t.Errorf("%s @%gMB: snapshot = %.1f MB, want in [%g, %g]", c.a, c.state/MB, got, c.min, c.max)
		}
	}
	// blcr overhead over app is small (< 2 MB + rounding).
	d := p.SnapshotBytes(BlobCRBlcr, 200*MB, 1) - p.SnapshotBytes(BlobCRApp, 200*MB, 1)
	if d < 0 || d > 3*MB {
		t.Errorf("blcr size overhead = %.1f MB, want (0, 3]", d/MB)
	}
	// Full VM overhead is ~118 MB regardless of buffer size.
	for _, s := range []float64{50 * MB, 200 * MB} {
		d := p.SnapshotBytes(Qcow2Full, s, 1) - s
		if d < 115*MB || d > 130*MB {
			t.Errorf("full overhead @%gMB = %.1f MB, want ~118-125", s/MB, d/MB)
		}
	}
}

func TestCheckpointScalesWithConcurrency(t *testing.T) {
	p := Default()
	for _, a := range Approaches {
		t1 := CheckpointTime(p, a, 1, 200*MB, 1)
		t120 := CheckpointTime(p, a, 120, 200*MB, 1)
		if t120 <= t1 {
			t.Errorf("%s: no increase with concurrency (%.1f -> %.1f)", a, t1, t120)
		}
	}
}

func TestFigure2Orderings(t *testing.T) {
	p := Default()
	at := func(a Approach, n int, s float64) float64 { return CheckpointTime(p, a, n, s, 1) }

	// qcow2-full is the worst everywhere.
	for _, n := range []int{1, 60, 120} {
		for _, s := range []float64{50 * MB, 200 * MB} {
			full := at(Qcow2Full, n, s)
			for _, a := range Approaches[:4] {
				if at(a, n, s) >= full {
					t.Errorf("n=%d s=%gMB: %s >= qcow2-full", n, s/MB, a)
				}
			}
		}
	}

	// 200MB @120: BlobCR-app substantially faster than qcow2-disk-app
	// (paper: 60%), BlobCR-blcr ~2x faster than qcow2-disk-blcr, full >= 6x
	// BlobCR.
	bApp, qApp := at(BlobCRApp, 120, 200*MB), at(Qcow2DiskApp, 120, 200*MB)
	if r := qApp / bApp; r < 1.3 || r > 2.0 {
		t.Errorf("app ratio @120x200MB = %.2f, want ~1.6", r)
	}
	bBlcr, qBlcr := at(BlobCRBlcr, 120, 200*MB), at(Qcow2DiskBlcr, 120, 200*MB)
	if r := qBlcr / bBlcr; r < 1.8 || r > 3.0 {
		t.Errorf("blcr ratio @120x200MB = %.2f, want ~2x", r)
	}
	if r := at(Qcow2Full, 120, 200*MB) / bApp; r < 5 || r > 9 {
		t.Errorf("full ratio @120x200MB = %.2f, want ~6x", r)
	}

	// 50MB: the app variants are close (paper: "very close"), the blcr gap
	// is wider.
	rApp50 := at(Qcow2DiskApp, 120, 50*MB) / at(BlobCRApp, 120, 50*MB)
	rBlcr50 := at(Qcow2DiskBlcr, 120, 50*MB) / at(BlobCRBlcr, 120, 50*MB)
	if rApp50 > 1.6 {
		t.Errorf("app ratio @120x50MB = %.2f, want close to 1", rApp50)
	}
	if rBlcr50 <= rApp50 {
		t.Errorf("blcr gap (%.2f) not wider than app gap (%.2f) at 50MB", rBlcr50, rApp50)
	}
}

func TestFigure3RestartOrderings(t *testing.T) {
	p := Default()
	at := func(a Approach, n int, s float64) float64 { return RestartTime(p, a, n, s, 1) }

	// App-level and process-level restart are very close (paper).
	for _, s := range []float64{50 * MB, 200 * MB} {
		b := at(BlobCRApp, 120, s)
		bb := at(BlobCRBlcr, 120, s)
		if math.Abs(b-bb)/b > 0.1 {
			t.Errorf("BlobCR app vs blcr restart differ by >10%% at %gMB", s/MB)
		}
	}
	// BlobCR faster than qcow2-disk: >25% at 50MB, ~2x at 200MB.
	if r := at(Qcow2DiskApp, 120, 50*MB) / at(BlobCRApp, 120, 50*MB); r < 1.2 || r > 1.7 {
		t.Errorf("restart ratio @50MB = %.2f, want ~1.25-1.5", r)
	}
	if r := at(Qcow2DiskApp, 120, 200*MB) / at(BlobCRApp, 120, 200*MB); r < 1.6 || r > 2.5 {
		t.Errorf("restart ratio @200MB = %.2f, want ~2", r)
	}
	// Full VM restart is the worst at scale despite skipping the reboot.
	if at(Qcow2Full, 120, 200*MB) < 4*at(BlobCRApp, 120, 200*MB) {
		t.Error("full restart not >=4x slower at 120x200MB")
	}
	// ...but at n=1 the avoided reboot makes full competitive (the paper's
	// point is that contention cancels this advantage).
	if at(Qcow2Full, 1, 50*MB) > at(Qcow2DiskApp, 1, 50*MB) {
		t.Error("full restart at n=1 should benefit from skipping the reboot")
	}
}

func TestFigure5SuccessiveCheckpoints(t *testing.T) {
	p := Default()
	const S = 200 * MB

	blob := SuccessiveCheckpoints(p, BlobCRApp, 4, S)
	disk := SuccessiveCheckpoints(p, Qcow2DiskApp, 4, S)
	full := SuccessiveCheckpoints(p, Qcow2Full, 4, S)

	// BlobCR: flat times (perfect scalability in the paper's words).
	for i := 1; i < 4; i++ {
		if math.Abs(blob[i].TimeSeconds-blob[1].TimeSeconds) > 0.5 {
			t.Errorf("BlobCR round %d time %.1f differs from flat %.1f", i+1, blob[i].TimeSeconds, blob[1].TimeSeconds)
		}
	}
	// qcow2-disk and qcow2-full: clearly growing times.
	for _, rs := range [][]SuccessiveResult{disk, full} {
		for i := 1; i < 4; i++ {
			if rs[i].TimeSeconds <= rs[i-1].TimeSeconds {
				t.Errorf("round %d time did not grow (%.1f -> %.1f)", i+1, rs[i-1].TimeSeconds, rs[i].TimeSeconds)
			}
		}
	}
	// Growth per round for qcow2-disk is ~S/copyRate.
	growth := disk[3].TimeSeconds - disk[2].TimeSeconds
	if growth < 5 || growth > 20 {
		t.Errorf("qcow2-disk per-round growth = %.1f s, implausible", growth)
	}

	// Storage: BlobCR linear in S; qcow2-disk super-linear accumulation
	// (sum of growing files); full linear with a large base.
	if got := blob[3].StorageBytes; got > 4*S+2*p.BlobNoiseBytes() {
		t.Errorf("BlobCR storage after 4 = %.0f MB, want ~4x200", got/MB)
	}
	if disk[3].StorageBytes < 2.2*blob[3].StorageBytes {
		t.Errorf("qcow2-disk storage (%.0f MB) not >2.2x BlobCR (%.0f MB)", disk[3].StorageBytes/MB, blob[3].StorageBytes/MB)
	}
	// Paper's Figure 5(b) axis: qcow2-disk approaches ~2000 MB at round 4.
	if d := disk[3].StorageBytes / MB; d < 1800 || d > 2300 {
		t.Errorf("qcow2-disk storage @4 = %.0f MB, want ~2030", d)
	}
	// full: linear increments.
	inc1 := full[1].StorageBytes - full[0].StorageBytes
	inc3 := full[3].StorageBytes - full[2].StorageBytes
	if math.Abs(inc1-inc3) > 1*MB {
		t.Errorf("full storage increments not linear: %.0f vs %.0f MB", inc1/MB, inc3/MB)
	}
}

func TestTable1CM1SnapshotSizes(t *testing.T) {
	p := Default()
	c := DefaultCM1()
	// Paper Table 1 (MB): 52 / 45 / 127 / 120.
	cases := []struct {
		a    Approach
		want float64
		tol  float64
	}{
		{BlobCRApp, 52, 4},
		{Qcow2DiskApp, 45, 4},
		{BlobCRBlcr, 127, 6},
		{Qcow2DiskBlcr, 120, 6},
	}
	for _, cse := range cases {
		got := CM1SnapshotBytes(p, c, cse.a) / MB
		if math.Abs(got-cse.want) > cse.tol {
			t.Errorf("%s: CM1 snapshot = %.0f MB, want %.0f±%.0f", cse.a, got, cse.want, cse.tol)
		}
	}
}

func TestFigure6CM1Checkpoint(t *testing.T) {
	p := Default()
	c := DefaultCM1()
	at := func(a Approach, n int) float64 { return CM1CheckpointTime(p, c, a, n) }

	// All four approaches grow with process count.
	for _, a := range Approaches[:4] {
		if at(a, 400) <= at(a, 4) {
			t.Errorf("%s: no growth from 4 to 400 processes", a)
		}
	}
	// At 400 processes: BlobCR-app beats qcow2-disk-app by >=~10%;
	// BlobCR-blcr beats qcow2-disk-blcr by ~2x.
	if r := at(Qcow2DiskApp, 400) / at(BlobCRApp, 400); r < 1.05 {
		t.Errorf("CM1 app ratio @400 = %.2f, want >= ~1.1", r)
	}
	if r := at(Qcow2DiskBlcr, 400) / at(BlobCRBlcr, 400); r < 1.6 {
		t.Errorf("CM1 blcr ratio @400 = %.2f, want ~2", r)
	}
	// blcr checkpoints cost more than app-level (bigger dumps).
	if at(BlobCRBlcr, 400) <= at(BlobCRApp, 400) {
		t.Error("CM1 blcr not slower than app-level for BlobCR")
	}
}

func TestNoiseAccounting(t *testing.T) {
	p := Default()
	b, q := p.BlobNoiseBytes()/MB, p.Qcow2NoiseBytes()/MB
	if b < 11 || b > 15 {
		t.Errorf("BlobCR noise = %.1f MB, want ~13", b)
	}
	if q < 6 || q > 8 {
		t.Errorf("qcow2 noise = %.1f MB, want ~7", q)
	}
	if b <= q {
		t.Error("chunk-granular noise must exceed cluster-granular noise")
	}
}

func TestDumpBytes(t *testing.T) {
	p := Default()
	if p.DumpBytes(Qcow2Full, 50*MB) != 0 {
		t.Error("full VM approach must not dump state files")
	}
	if p.DumpBytes(BlobCRBlcr, 50*MB) <= p.DumpBytes(BlobCRApp, 50*MB) {
		t.Error("blcr dump must exceed app dump")
	}
}

func TestZeroVMs(t *testing.T) {
	p := Default()
	if CheckpointTime(p, BlobCRApp, 0, MB, 1) != 0 {
		t.Error("zero VMs should cost zero")
	}
	if RestartTime(p, BlobCRApp, 0, MB, 1) != 0 {
		t.Error("zero VMs restart should cost zero")
	}
}

func TestOptimalCheckpointIntervalAtScale(t *testing.T) {
	p := Default()
	iv := p.OptimalCheckpointInterval(BlobCRApp, 120, 200*MB, 1)
	cost := CheckpointTime(p, BlobCRApp, 120, 200*MB, 1)
	if iv <= 0 {
		t.Fatalf("interval = %v", iv)
	}
	// Sanity: the interval dwarfs the checkpoint cost for a 4h MTBF, and
	// BlobCR's cheaper checkpoints buy a shorter (more protective) interval
	// than qcow2-full's expensive ones.
	if iv < 10*cost {
		t.Errorf("interval %v suspiciously close to cost %v", iv, cost)
	}
	if full := p.OptimalCheckpointInterval(Qcow2Full, 120, 200*MB, 1); full <= iv {
		t.Errorf("qcow2-full interval %v not longer than BlobCR's %v", full, iv)
	}
}
