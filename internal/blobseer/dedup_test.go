package blobseer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"blobcr/internal/cas"
)

func chunkOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestDefaultClientIsContentAddressed: Deployment.Client() with no field set
// already runs the one write path — two identical chunks in one commit
// transfer one body — and the read path verifies content: a replica
// corrupted in the backing store is failed over, never delivered.
func TestDefaultClientIsContentAddressed(t *testing.T) {
	const chunk = 4096
	d, c := deploy(t, 1, 2) // deploy hands back Deployment.Client() untouched
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	body := chunkOf('d', chunk)
	info, cs, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: body}, {Index: 1, Body: body}}, 2*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DedupChunks != 1 || cs.TransferBytes != chunk {
		t.Fatalf("two identical chunks: %d dedup hits, %d bytes shipped; want 1 and %d", cs.DedupChunks, cs.TransferBytes, chunk)
	}

	// A second replica so the read has somewhere to fail over to, then rot
	// the first in place (Mem.Get hands back the live slice).
	key := cas.Sum(body).Key()
	stores := d.DataProviderStores()
	holder, spare := stores[0], stores[1]
	if !holder.Has(key) {
		holder, spare = spare, holder
	}
	if _, err := spare.(*cas.Store).PutContent(cas.Sum(body), body); err != nil {
		t.Fatal(err)
	}
	stored, err := holder.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	stored[0] ^= 0xFF
	got, rs, err := c.ReadVersionStats(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, chunk)
	if err != nil {
		t.Fatalf("read past the corrupt replica: %v", err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("corrupt replica delivered to the reader")
	}
	if rs.CorruptReplicas != 1 {
		t.Fatalf("CorruptReplicas = %d, want 1 (%+v)", rs.CorruptReplicas, rs)
	}
}

// TestDedupSecondCommitShipsNothing is the headline property: committing the
// same chunk content twice — here across two snapshots of one blob — stores
// exactly one body and skips the duplicate's network transfer.
func TestDedupSecondCommitShipsNothing(t *testing.T) {
	const chunk = 4096
	d, c := deploy(t, 2, 3)
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	content := chunkOf('x', chunk)

	_, cs1, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: content}}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs1.DedupChunks != 0 || cs1.TransferBytes != chunk {
		t.Fatalf("first commit: %+v, want full transfer", cs1)
	}

	// Same content again, at a different chunk index, in a new snapshot.
	_, cs2, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 1, Body: content}}, 2*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.DedupChunks != 1 || cs2.TransferBytes != 0 {
		t.Fatalf("duplicate commit shipped bytes: %+v", cs2)
	}
	if cs2.LogicalBytes != chunk {
		t.Fatalf("LogicalBytes = %d, want %d", cs2.LogicalBytes, chunk)
	}

	// Exactly one body in the whole repository.
	_, chunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("repository holds %d chunk bodies, want 1", chunks)
	}

	// Both snapshots read back correctly through the shared body.
	for v := uint64(0); v < 2; v++ {
		got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: v}, 0, chunk)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("version %d read mismatch: %v", v, err)
		}
	}

	st, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cas stats hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.LogicalBytes != 2*chunk || st.PhysicalBytes != chunk {
		t.Errorf("logical/physical = %d/%d, want %d/%d", st.LogicalBytes, st.PhysicalBytes, 2*chunk, chunk)
	}
}

// TestDedupAcrossBlobs: two mirrored devices (two checkpoint images)
// committing identical content share one body.
func TestDedupAcrossBlobs(t *testing.T) {
	const chunk = 2048
	d, c := deploy(t, 2, 4)
	content := chunkOf('s', chunk)

	var blobs []uint64
	for i := 0; i < 2; i++ {
		blob, err := c.CreateBlob(ctx, chunk)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	_, cs, err := c.WriteChunks(ctx, blobs[0], nil, nil, []Chunk{{Index: 0, Body: content}}, chunk)
	if err != nil || cs.TransferBytes != chunk {
		t.Fatalf("blob A commit: %+v err=%v", cs, err)
	}
	_, cs, err = c.WriteChunks(ctx, blobs[1], nil, nil, []Chunk{{Index: 0, Body: content}}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs.DedupChunks != 1 || cs.TransferBytes != 0 {
		t.Fatalf("blob B duplicate commit shipped bytes: %+v", cs)
	}
	_, chunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("repository holds %d bodies for identical cross-blob content, want 1", chunks)
	}
}

// TestDedupReplicationPlacesPerContent: with replication, all replicas of
// identical content land on the same (rendezvous-chosen) providers, and the
// duplicate commit skips every replica transfer.
func TestDedupReplicationPlacesPerContent(t *testing.T) {
	const chunk = 1024
	d, c := deploy(t, 2, 5)
	c.Replication = 2
	content := chunkOf('r', chunk)

	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	_, cs, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: content}}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Both replica bodies cross the network, but the commit's payload is one
	// chunk: LogicalBytes counts once per chunk, independent of replication.
	if cs.TransferBytes != 2*chunk || cs.LogicalBytes != chunk {
		t.Fatalf("first replicated commit: %+v", cs)
	}
	_, cs, err = c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 1, Body: content}}, 2*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs.TransferBytes != 0 || cs.DedupChunks != 1 {
		t.Fatalf("replicated duplicate shipped bytes: %+v", cs)
	}
	_, chunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 2 { // one body per replica provider
		t.Fatalf("repository holds %d bodies, want 2 (replication)", chunks)
	}
}

// TestRetireReleasesByRefcount: retiring snapshots reclaims exactly the
// superseded chunk writes through reference counts — no repository sweep —
// while the live snapshot stays readable.
func TestRetireReleasesByRefcount(t *testing.T) {
	const chunk = 4096
	const rounds = 6
	d, c := deploy(t, 2, 3)
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Each round overwrites chunk 0 with distinct content.
	for v := 0; v < rounds; v++ {
		content := chunkOf(byte('0'+v), chunk)
		if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: content}, chunk); err != nil {
			t.Fatal(err)
		}
	}
	_, chunksBefore, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksBefore != rounds {
		t.Fatalf("stored %d bodies before retire, want %d", chunksBefore, rounds)
	}

	stats, err := c.RetireStats(ctx, blob, rounds-1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReleasedRefs != rounds-1 || stats.ReclaimedChunks != rounds-1 {
		t.Fatalf("retire reclaimed %+v, want %d refs and chunks", stats, rounds-1)
	}
	if stats.ReclaimedBytes != uint64((rounds-1)*chunk) {
		t.Fatalf("ReclaimedBytes = %d, want %d", stats.ReclaimedBytes, (rounds-1)*chunk)
	}
	_, chunksAfter, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfter != 1 {
		t.Fatalf("%d bodies after retire, want 1", chunksAfter)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: rounds - 1}, 0, chunk)
	if err != nil || !bytes.Equal(got, chunkOf(byte('0'+rounds-1), chunk)) {
		t.Fatalf("live snapshot unreadable after refcount retire: %v", err)
	}

	// Retiring again releases nothing new (exactly-once release).
	stats, err = c.RetireStats(ctx, blob, rounds-1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReleasedRefs != 0 {
		t.Fatalf("second retire released %d refs, want 0", stats.ReleasedRefs)
	}
}

// TestSharedContentSurvivesOtherBlobsRetire: blob B references content blob A
// wrote; retiring A's snapshot must decrement, not delete, the shared body.
func TestSharedContentSurvivesOtherBlobsRetire(t *testing.T) {
	const chunk = 2048
	_, c := deploy(t, 2, 3)
	shared := chunkOf('S', chunk)

	a, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteVersion(ctx, a, map[uint64][]byte{0: shared}, chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteVersion(ctx, b, map[uint64][]byte{0: shared}, chunk); err != nil {
		t.Fatal(err)
	}
	// A supersedes its write, then retires it.
	if _, err := c.WriteVersion(ctx, a, map[uint64][]byte{0: chunkOf('T', chunk)}, chunk); err != nil {
		t.Fatal(err)
	}
	stats, err := c.RetireStats(ctx, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReleasedRefs != 1 || stats.ReclaimedChunks != 0 {
		t.Fatalf("retire of shared content: %+v, want 1 release, 0 reclaims", stats)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: b, Version: 0}, 0, chunk)
	if err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("blob B lost shared content after A's retire: %v", err)
	}
}

// TestClonePinPreventsRelease: content shared with a clone is never released
// by the origin's retire, so the clone stays readable.
func TestClonePinPreventsRelease(t *testing.T) {
	const chunk = 4096
	_, c := deploy(t, 2, 3)
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	orig := chunkOf('c', chunk)
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: orig}, chunk); err != nil {
		t.Fatal(err)
	}
	clone, err := c.Clone(ctx, SnapshotRef{Blob: blob, Version: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Supersede and retire the cloned-from version in the origin.
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: chunkOf('d', chunk)}, chunk); err != nil {
		t.Fatal(err)
	}
	stats, err := c.RetireStats(ctx, blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReleasedRefs != 0 {
		t.Fatalf("retire released %d refs pinned by a clone", stats.ReleasedRefs)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: clone, Version: 0}, 0, chunk)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("clone lost pinned content: %v", err)
	}
}

// TestMarkSweepGCComposesWithDedup: the full mark-and-sweep fallback still
// works over content-addressed chunks — it never touches live CAS bodies,
// and it collects references the refcount path leaked (here: a manually
// leaked extra reference keeping a dead body alive past its retire).
func TestMarkSweepGCComposesWithDedup(t *testing.T) {
	const chunk = 4096
	d, c := deploy(t, 2, 3)
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: chunkOf(byte('a'+v), chunk)}, chunk); err != nil {
			t.Fatal(err)
		}
	}
	providers, err := c.Providers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Leak one extra reference on version 2's content, the way a crashed
	// commit would: refcount retire alone can no longer reclaim that body.
	leakedFP := cas.Sum(chunkOf('c', chunk))
	leakedAddr := casPlacementRanked(leakedFP, providers)[0]
	held, _, err := c.casRefBatch(ctx, leakedAddr, []cas.Fingerprint{leakedFP})
	if err != nil || !held[0] {
		t.Fatalf("leak ref: held=%v err=%v", held, err)
	}

	stats, err := c.RetireStats(ctx, blob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReclaimedChunks != 2 {
		t.Fatalf("refcount retire reclaimed %d chunks, want 2 (one leaked)", stats.ReclaimedChunks)
	}
	_, chunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 2 { // live body + leaked body
		t.Fatalf("%d bodies before sweep, want 2", chunks)
	}

	// The sweep collects the leaked body (unreachable from live roots) and
	// leaves the live one alone.
	gcStats, err := c.GC(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if gcStats.DeletedChunks != 1 {
		t.Fatalf("sweep deleted %d chunks, want 1 (the leaked body)", gcStats.DeletedChunks)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: 3}, 0, chunk)
	if err != nil || !bytes.Equal(got, chunkOf('d', chunk)) {
		t.Fatalf("live version unreadable after sweep: %v", err)
	}
	// The sweep dropped the dedup index entry too: re-committing the swept
	// content stores a fresh body rather than resurrecting a stale count.
	_, cs, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: chunkOf('c', chunk)}}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if cs.TransferBytes != chunk {
		t.Fatalf("re-commit after sweep shipped %d bytes, want %d", cs.TransferBytes, chunk)
	}
}

// TestDedupCommitRetireRaceStress races parallel dedup commits sharing a
// small content pool against concurrent snapshot retires (refcount GC),
// in the style of internal/core/stress_test.go. A chunk referenced by any
// live snapshot must never be reclaimed: every writer re-reads its latest
// snapshot in full after each commit. Run with -race.
func TestDedupCommitRetireRaceStress(t *testing.T) {
	const (
		chunk   = 1024
		writers = 6
		rounds  = 25
		stripes = 4 // chunks per commit
		pool    = 3 // distinct contents — heavy cross-writer sharing
	)
	_, c := deploy(t, 3, 4)

	contents := make([][]byte, pool)
	for i := range contents {
		contents[i] = chunkOf(byte('A'+i), chunk)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One checkpoint image per writer, as in the checkpoint workload.
			blob, err := c.CreateBlob(ctx, chunk)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				writes := make([]Chunk, stripes)
				want := make([]byte, 0, stripes*chunk)
				for s := 0; s < stripes; s++ {
					body := contents[(w+r+s)%pool]
					writes[s] = Chunk{Index: uint64(s), Body: body}
					want = append(want, body...)
				}
				info, _, err := c.WriteChunks(ctx, blob, nil, nil, writes, stripes*chunk)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: commit: %w", w, r, err)
					return
				}
				// The snapshot just published must be fully readable even
				// while other writers retire snapshots sharing its chunks.
				got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, stripes*chunk)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: read: %w", w, r, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("writer %d round %d: snapshot corrupted", w, r)
					return
				}
				// Retire everything older than the snapshot just taken.
				if _, err := c.RetireStats(ctx, blob, info.Version); err != nil {
					errs <- fmt.Errorf("writer %d round %d: retire: %w", w, r, err)
					return
				}
			}
			// Final snapshot still intact after all retires settle.
			info, _, err := c.Latest(ctx, blob)
			if err != nil {
				errs <- err
				return
			}
			if _, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, stripes*chunk); err != nil {
				errs <- fmt.Errorf("writer %d: final snapshot lost: %w", w, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriteChunksRejectsUnsortedList: a chunk list that is not strictly
// ascending by index is rejected before a version is ticketed and before
// any content-addressed reference is taken. A repeated index would
// otherwise put two manifest entries on one chunk, and retiring the version
// would release a reference it never held.
func TestWriteChunksRejectsUnsortedList(t *testing.T) {
	const chunk = 4096
	d, c := deploy(t, 2, 2)
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: chunkOf('a', chunk)}}, 4*chunk)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	for name, chunks := range map[string][]Chunk{
		"duplicate index":  {{Index: 1, Body: chunkOf('b', chunk)}, {Index: 1, Body: chunkOf('c', chunk)}},
		"descending index": {{Index: 2, Body: chunkOf('b', chunk)}, {Index: 1, Body: chunkOf('c', chunk)}},
	} {
		if _, _, err := c.WriteChunks(ctx, blob, nil, nil, chunks, 4*chunk); err == nil {
			t.Errorf("%s: commit accepted", name)
		}
	}
	after, err := c.CasStats(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if after.Refs != before.Refs || after.Chunks != before.Chunks {
		t.Errorf("CAS refs/chunks = %d/%d after the rejected commits, want %d/%d", after.Refs, after.Chunks, before.Refs, before.Chunks)
	}
	// An aborted ticket publishes its number, so the next commit would skip
	// one per rejected list that reached the version manager.
	next, _, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 1, Body: chunkOf('d', chunk)}}, 4*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if next.Version != first.Version+1 {
		t.Errorf("next commit published version %d after %d: a rejected list was ticketed", next.Version, first.Version)
	}
}
