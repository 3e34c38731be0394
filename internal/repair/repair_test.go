package repair

import (
	"bytes"
	"context"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/transport"
)

var ctx = context.Background()

// deploy starts a dedup deployment with nData providers and replication 2.
func deploy(t *testing.T, nData int) (*transport.InProc, *blobseer.Deployment, *blobseer.Client) {
	t.Helper()
	net := transport.NewInProc()
	d, err := blobseer.Deploy(net, 2, nData)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2
	return net, d, c
}

// commitVersions publishes n versions of a fresh blob, each overwriting a
// sliding window of chunks, and returns the blob id and the expected content
// of every version.
func commitVersions(t *testing.T, c *blobseer.Client, chunk uint64, nChunks, n int) (uint64, [][]byte) {
	t.Helper()
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, uint64(nChunks)*chunk)
	var want [][]byte
	for v := 0; v < n; v++ {
		writes := make(map[uint64][]byte)
		for i := 0; i < nChunks; i++ {
			if v > 0 && i%2 == (v%2) {
				continue // half the chunks carry over from the previous version
			}
			body := bytes.Repeat([]byte{byte('a' + v), byte(i)}, int(chunk)/2)
			writes[uint64(i)] = body
			copy(content[uint64(i)*chunk:], body)
		}
		if _, err := c.WriteVersion(ctx, blob, writes, uint64(nChunks)*chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]byte(nil), content...))
	}
	return blob, want
}

// killProvider fail-stops one data provider: partitioned and unregistered,
// exactly as cloud.FailNode does.
func killProvider(t *testing.T, net *transport.InProc, c *blobseer.Client, addr string) {
	t.Helper()
	net.Partition(addr)
	if err := c.UnregisterProvider(ctx, addr); err != nil {
		t.Fatal(err)
	}
}

// readAll verifies every version of the blob against its expected content.
func readAll(t *testing.T, c *blobseer.Client, blob uint64, want [][]byte) blobseer.ReadStats {
	t.Helper()
	var total blobseer.ReadStats
	for v, content := range want {
		got, stats, err := c.ReadVersionStats(ctx, blobseer.SnapshotRef{Blob: blob, Version: uint64(v)}, 0, uint64(len(content)))
		if err != nil {
			t.Fatalf("read version %d: %v", v, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("version %d corrupted after repair", v)
		}
		total.Add(stats)
	}
	return total
}

// TestScrubCleanOnHealthyRepository: a freshly committed repository scrubs
// clean and reports the right shape.
func TestScrubCleanOnHealthyRepository(t *testing.T) {
	_, _, c := deploy(t, 4)
	commitVersions(t, c, 1024, 8, 3)
	r := New(Config{Client: c})
	rep, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy repository scrubs dirty: %s", rep)
	}
	if rep.Chunks == 0 || rep.Versions != 3 || rep.ActiveProviders != 4 {
		t.Fatalf("scrub shape wrong: %s", rep)
	}
	if rep.Healthy < rep.Chunks*2 {
		t.Fatalf("expected every chunk at 2 verified replicas: %s", rep)
	}
}

// TestRepairRestoresReplicationAfterProviderDeath is the acceptance
// criterion: after killing one of N providers under a committed
// multi-version repository, a repair pass restores every live chunk to the
// replication factor (scrub: zero under-replicated, zero corrupt), and a
// full restart-style read of every version succeeds using only the
// surviving + repaired providers — even after a second original provider
// dies, which forces reads through the ranked-membership fallback.
func TestRepairRestoresReplicationAfterProviderDeath(t *testing.T) {
	net, d, c := deploy(t, 4)
	blob, want := commitVersions(t, c, 1024, 16, 3)

	killProvider(t, net, c, d.DataAddrs[0])

	r := New(Config{Client: c})
	pre, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pre.UnderReplicated == 0 {
		t.Fatalf("killing a provider left nothing under-replicated: %s", pre)
	}

	rep, err := r.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Post.Clean() {
		t.Fatalf("repair did not converge: %s", rep.Post)
	}
	if rep.ReplicasRestored == 0 || rep.RefsRelocated == 0 {
		t.Fatalf("repair restored nothing: %s", rep)
	}
	// Scrub-after-repair must agree (zero under-replicated, zero corrupt).
	post, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Clean() {
		t.Fatalf("post-repair scrub dirty: %s", post)
	}
	// Full restart-style read from the surviving + repaired providers only.
	readAll(t, c, blob, want)

	// A second failure: chunks whose leaf-recorded replicas are now both
	// dead are served from the repaired homes via the ranked fallback.
	killProvider(t, net, c, d.DataAddrs[1])
	stats := readAll(t, c, blob, want)
	if stats.RankedFallbacks == 0 {
		t.Fatalf("expected some reads through the ranked fallback, got %+v", stats)
	}
	// And the plane heals again on the remaining two providers.
	rep, err = r.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Post.Clean() {
		t.Fatalf("second repair did not converge: %s", rep.Post)
	}
	readAll(t, c, blob, want)
}

// TestScrubDetectsAndRepairFixesCorruptReplica: a replica whose bytes rot is
// detected by the scrub's fingerprint recomputation, never served to a
// reader, destroyed by repair, and re-placed from a good replica.
func TestScrubDetectsAndRepairFixesCorruptReplica(t *testing.T) {
	_, d, c := deploy(t, 4)
	blob, want := commitVersions(t, c, 1024, 8, 2)

	// Rot one stored replica in place: the latest version's first chunk, on
	// the provider a reader tries first (each holder in turn, restoring the
	// ones the replica rotation never reads).
	chunkBody := want[len(want)-1][:1024]
	victim := cas.Sum(chunkBody)
	var stats blobseer.ReadStats
	for _, store := range d.DataProviderStores() {
		if !store.Has(victim.Key()) {
			continue
		}
		// Mem.Get hands back the live slice: flip a bit in place, the way
		// silent disk corruption would, leaving the dedup index and its
		// reference count untouched.
		body, err := store.Get(victim.Key())
		if err != nil {
			t.Fatal(err)
		}
		body[0] ^= 0xFF
		// The read path must fail the corrupt replica over, not deliver it.
		stats = readAll(t, c, blob, want)
		if stats.CorruptReplicas > 0 {
			break // corrupt exactly one replica
		}
		body[0] ^= 0xFF
	}
	if stats.CorruptReplicas == 0 {
		t.Fatalf("reads never saw a corrupt replica: %+v", stats)
	}

	r := New(Config{Client: c})
	pre, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt replicas, want 1: %s", pre.Corrupt, pre)
	}
	rep, err := r.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptDropped != 1 || !rep.Post.Clean() {
		t.Fatalf("repair did not fix the corruption: %s", rep)
	}
	readAll(t, c, blob, want)
}

// TestRetireStaysExactAfterRepair: after a provider death and repair, the
// version manager's relocated write events release exactly the references
// the repaired providers hold — retiring every old version leaves precisely
// the latest version's references, with zero failed releases at live
// providers.
func TestRetireStaysExactAfterRepair(t *testing.T) {
	net, d, c := deploy(t, 4)
	const nChunks = 16
	blob, want := commitVersions(t, c, 1024, nChunks, 3)

	killProvider(t, net, c, d.DataAddrs[0])
	r := New(Config{Client: c})
	if rep, err := r.Repair(ctx); err != nil || !rep.Post.Clean() {
		t.Fatalf("repair: %v %s", err, rep.Post)
	}

	latest, _, err := c.Latest(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.RetireStats(ctx, blob, latest.Version)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("%d releases failed after repair relocated the references: %+v", stats.Failed, stats)
	}
	if stats.ReleasedRefs == 0 {
		t.Fatalf("retire released nothing: %+v", stats)
	}
	// Remaining references: one write event per chunk index (the latest
	// write), two replicas each — nothing more, nothing less.
	var totalRefs uint64
	for i, store := range d.DataProviderStores() {
		if i == 0 {
			continue // dead provider, its store is unreachable garbage
		}
		totalRefs += store.(*cas.Store).Stats().Refs
	}
	if wantRefs := uint64(nChunks * 2); totalRefs != wantRefs {
		t.Fatalf("live refs after retire = %d, want %d", totalRefs, wantRefs)
	}
	// The surviving version still reads back whole.
	got, _, err := c.ReadVersionStats(ctx, blobseer.SnapshotRef{Blob: blob, Version: latest.Version}, 0, uint64(len(want[len(want)-1])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[len(want)-1]) {
		t.Fatal("latest version corrupted after retire")
	}
}
