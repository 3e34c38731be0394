package repair

import (
	"bytes"
	"sync"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

// seglogDeploy starts a dedup deployment whose providers sit on segment
// logs (auto-compaction on, small segments so compaction actually runs).
func seglogDeploy(t *testing.T, nData int) (*blobseer.Deployment, *blobseer.Client) {
	t.Helper()
	net := transport.NewInProc()
	d, err := blobseer.DeployWith(net, 2, nData,
		blobseer.SeglogStores(t.TempDir(), seglog.Options{SegmentBytes: 32 * 1024, Registry: obs.NewRegistry()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2
	return d, c
}

// TestScrubCompactsSeglogStores: the scrubber's cadence carries engine
// compaction — after Retire+GC leave dead bytes in the logs, a Scrub must
// reclaim segments and report a healthy plane.
func TestScrubCompactsSeglogStores(t *testing.T) {
	d, c := seglogDeploy(t, 3)
	blob, want := commitVersions(t, c, 1024, 8, 5)
	if err := c.Retire(ctx, blob, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(ctx, d.DataAddrs); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := New(Config{Client: c, Obs: reg})
	rep, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub not clean after GC: %s", rep)
	}
	// The surviving version is intact after compaction rewrote the logs.
	got, _, err := c.ReadVersionStats(ctx, blobseer.SnapshotRef{Blob: blob, Version: 4}, 0, uint64(len(want[4])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[4]) {
		t.Fatal("surviving version corrupted by scrub-time compaction")
	}
}

// TestCompactionRacingRetireAndScrub runs Retire/GC (engine deletes),
// scrubs (engine compaction + full replica verification) and direct
// wire-level compactions concurrently against seglog-backed providers. Under
// -race this is the stack-level proof that compaction neither resurrects
// nor loses chunks while the delete and read planes are live.
func TestCompactionRacingRetireAndScrub(t *testing.T) {
	d, c := seglogDeploy(t, 3)
	blob, want := commitVersions(t, c, 1024, 8, 6)
	r := New(Config{Client: c, Obs: obs.NewRegistry()})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the delete plane: retire old versions, sweep
		defer wg.Done()
		for keep := uint64(2); keep <= 5; keep++ {
			if err := c.Retire(ctx, blob, keep); err != nil {
				t.Errorf("Retire(%d): %v", keep, err)
				return
			}
			if _, err := c.GC(ctx, d.DataAddrs); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()
	go func() { // the scrub plane: surveys + compaction passes
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := r.Scrub(ctx); err != nil {
				t.Errorf("Scrub: %v", err)
				return
			}
		}
	}()
	go func() { // direct compaction pressure on every provider
		defer wg.Done()
		for i := 0; i < 5; i++ {
			for _, addr := range d.DataAddrs {
				if _, err := c.CompactChunkStore(ctx, addr); err != nil {
					t.Errorf("CompactChunkStore(%s): %v", addr, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settled state: only version 5 lives; it must be byte-perfect and the
	// plane clean.
	rep, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("plane not clean after racing compaction: %s", rep)
	}
	got, _, err := c.ReadVersionStats(ctx, blobseer.SnapshotRef{Blob: blob, Version: 5}, 0, uint64(len(want[5])))
	if err != nil {
		t.Fatalf("surviving version unreadable: %v", err)
	}
	if !bytes.Equal(got, want[5]) {
		t.Fatal("surviving version corrupted")
	}
}
