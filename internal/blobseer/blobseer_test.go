package blobseer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// ctx is the default context for test operations.
var ctx = context.Background()

const testChunkSize = 256

// deploy starts an in-proc deployment for tests.
func deploy(t *testing.T, nMeta, nData int) (*Deployment, *Client) {
	t.Helper()
	d, err := Deploy(transport.NewInProc(), nMeta, nData)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	t.Cleanup(d.Close)
	return d, d.Client()
}

func TestCreateAndWriteRead(t *testing.T) {
	_, c := deploy(t, 3, 4)
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*testChunkSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	info, err := c.WriteAt(ctx, blob, 0, data)
	if err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if info.Size != uint64(len(data)) {
		t.Errorf("Size = %d, want %d", info.Size, len(data))
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, uint64(len(data)))
	if err != nil {
		t.Fatalf("ReadVersion: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch")
	}
}

func TestUnalignedWriteReadModifyWrite(t *testing.T) {
	_, c := deploy(t, 2, 3)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	base := bytes.Repeat([]byte{0xAA}, 2*testChunkSize)
	if _, err := c.WriteAt(ctx, blob, 0, base); err != nil {
		t.Fatal(err)
	}
	// Overwrite a range crossing the chunk boundary, unaligned on both ends.
	patch := bytes.Repeat([]byte{0xBB}, 100)
	info, err := c.WriteAt(ctx, blob, testChunkSize-50, patch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 2*testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	copy(want[testChunkSize-50:], patch)
	if !bytes.Equal(got, want) {
		t.Error("unaligned RMW produced wrong content")
	}
}

func TestVersioningIsolation(t *testing.T) {
	_, c := deploy(t, 2, 3)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	v0, err := c.WriteAt(ctx, blob, 0, bytes.Repeat([]byte{1}, testChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.WriteAt(ctx, blob, 0, bytes.Repeat([]byte{2}, testChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	got0, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: v0.Version}, 0, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: v1.Version}, 0, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if got0[0] != 1 || got1[0] != 2 {
		t.Errorf("version isolation broken: v0[0]=%d v1[0]=%d", got0[0], got1[0])
	}
}

func TestHolesReadAsZeros(t *testing.T) {
	_, c := deploy(t, 2, 3)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	// Write only chunk 3; chunks 0-2 are holes.
	writes := map[uint64][]byte{3: bytes.Repeat([]byte{7}, testChunkSize)}
	info, err := c.WriteVersion(ctx, blob, writes, 4*testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 4*testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*testChunkSize; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, got[i])
		}
	}
	for i := 3 * testChunkSize; i < 4*testChunkSize; i++ {
		if got[i] != 7 {
			t.Fatalf("data byte %d = %d, want 7", i, got[i])
		}
	}
}

func TestReadPastEndTruncates(t *testing.T) {
	_, c := deploy(t, 2, 2)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	info, err := c.WriteAt(ctx, blob, 0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	got, err = c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("read past end returned %d bytes", len(got))
	}
}

func TestIncrementalCommitMovesOnlyDiffs(t *testing.T) {
	d, c := deploy(t, 2, 3)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	// Version 0: 64 chunks.
	full := make(map[uint64][]byte)
	for i := uint64(0); i < 64; i++ {
		full[i] = bytes.Repeat([]byte{byte(i)}, testChunkSize)
	}
	if _, err := c.WriteVersion(ctx, blob, full, 64*testChunkSize); err != nil {
		t.Fatal(err)
	}
	bytesAfterV0, chunksAfterV0, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfterV0 != 64 {
		t.Fatalf("v0 stored %d chunks, want 64", chunksAfterV0)
	}
	// Version 1: only 2 chunks change.
	delta := map[uint64][]byte{
		10: bytes.Repeat([]byte{0xFF}, testChunkSize),
		20: bytes.Repeat([]byte{0xFE}, testChunkSize),
	}
	if _, err := c.WriteVersion(ctx, blob, delta, 64*testChunkSize); err != nil {
		t.Fatal(err)
	}
	bytesAfterV1, chunksAfterV1, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfterV1-chunksAfterV0 != 2 {
		t.Errorf("incremental commit stored %d new chunks, want 2", chunksAfterV1-chunksAfterV0)
	}
	if bytesAfterV1-bytesAfterV0 != 2*testChunkSize {
		t.Errorf("incremental commit stored %d new bytes, want %d", bytesAfterV1-bytesAfterV0, 2*testChunkSize)
	}
}

func TestCloneSharesAndDiverges(t *testing.T) {
	d, c := deploy(t, 2, 3)
	src, _ := c.CreateBlob(ctx, testChunkSize)
	content := bytes.Repeat([]byte{0x5A}, 8*testChunkSize)
	v0, err := c.WriteAt(ctx, src, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	_, chunksBefore, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}

	clone, err := c.Clone(ctx, SnapshotRef{Blob: src, Version: v0.Version})
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	// Clone is readable immediately and identical (shares all content).
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: clone, Version: 0}, 0, uint64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("clone content differs from origin")
	}
	_, chunksAfterClone, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfterClone != chunksBefore {
		t.Errorf("clone stored %d new chunks, want 0 (must share)", chunksAfterClone-chunksBefore)
	}

	// Writes to the clone do not affect the origin.
	patch := bytes.Repeat([]byte{0x11}, testChunkSize)
	cv, err := c.WriteAt(ctx, clone, 0, patch)
	if err != nil {
		t.Fatal(err)
	}
	cloneGot, err := c.ReadVersion(ctx, SnapshotRef{Blob: clone, Version: cv.Version}, 0, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if cloneGot[0] != 0x11 {
		t.Error("clone write not visible in clone")
	}
	srcGot, err := c.ReadVersion(ctx, SnapshotRef{Blob: src, Version: v0.Version}, 0, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if srcGot[0] != 0x5A {
		t.Error("clone write leaked into origin")
	}
}

func TestReplication(t *testing.T) {
	d, _ := deploy(t, 2, 3)
	c := d.Client()
	c.Replication = 2
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	// Four chunks of distinct content: identical bodies would be stored once.
	data := make([]byte, 4*testChunkSize)
	for i := range data {
		data[i] = byte(9 + i/testChunkSize)
	}
	info, err := c.WriteAt(ctx, blob, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	_, chunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 8 { // 4 chunks x 2 replicas
		t.Errorf("stored %d chunk copies, want 8", chunks)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 4*testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("replicated read failed")
	}
}

func TestReplicaFailover(t *testing.T) {
	net := transport.NewInProc()
	d, err := Deploy(net, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.Client()
	c.Replication = 2
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	info, err := c.WriteAt(ctx, blob, 0, bytes.Repeat([]byte{3}, 6*testChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	// Kill one data provider; every chunk still has a replica elsewhere.
	net.Partition(d.DataAddrs[0])
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 6*testChunkSize)
	if err != nil {
		t.Fatalf("read with one provider down: %v", err)
	}
	if got[0] != 3 {
		t.Error("failover read returned wrong data")
	}
}

func TestConcurrentWritersDistinctBlobs(t *testing.T) {
	_, c := deploy(t, 4, 8)
	const writers = 16
	blobs := make([]uint64, writers)
	for i := range blobs {
		id, err := c.CreateBlob(ctx, testChunkSize)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = id
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i + 1)}, 8*testChunkSize)
			info, err := c.WriteAt(ctx, blobs[i], 0, data)
			if err != nil {
				errs <- fmt.Errorf("writer %d: %w", i, err)
				return
			}
			got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blobs[i], Version: info.Version}, 0, uint64(len(data)))
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("writer %d: read-back mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentVersionsSameBlobSerialize(t *testing.T) {
	_, c := deploy(t, 2, 4)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	if _, err := c.WriteAt(ctx, blob, 0, bytes.Repeat([]byte{1}, 4*testChunkSize)); err != nil {
		t.Fatal(err)
	}
	// Concurrent whole-chunk writers to disjoint chunks of the same blob.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			writes := map[uint64][]byte{uint64(i): bytes.Repeat([]byte{byte(0x10 + i)}, testChunkSize)}
			if _, err := c.WriteVersion(ctx, blob, writes, 4*testChunkSize); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	info, _, err := c.Latest(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 {
		t.Errorf("latest version = %d, want 4 (5 versions published)", info.Version)
	}
}

func TestGCReclaimsRetiredVersions(t *testing.T) {
	d, c := deploy(t, 2, 3)
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	// 5 versions, each rewriting all 8 chunks: 40 chunks stored.
	for v := 0; v < 5; v++ {
		writes := make(map[uint64][]byte)
		for i := uint64(0); i < 8; i++ {
			writes[i] = bytes.Repeat([]byte{byte(v*16 + int(i))}, testChunkSize)
		}
		if _, err := c.WriteVersion(ctx, blob, writes, 8*testChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	_, chunksBefore, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksBefore != 40 {
		t.Fatalf("stored %d chunks, want 40", chunksBefore)
	}
	// Retire versions 0-3, keep only version 4.
	// Retire releases the superseded bodies by reference count; the sweep
	// collects whatever is left (here: only the retired tree nodes).
	retired, err := c.RetireStats(ctx, blob, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.GC(ctx, d.DataAddrs)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if got := retired.ReclaimedChunks + stats.DeletedChunks; got != 32 {
		t.Errorf("Retire + GC reclaimed %d chunks (%d by refcount, %d swept), want 32",
			got, retired.ReclaimedChunks, stats.DeletedChunks)
	}
	if stats.DeletedNodes == 0 {
		t.Error("GC swept no retired metadata nodes")
	}
	_, chunksAfter, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfter != 8 {
		t.Errorf("after GC %d chunks remain, want 8", chunksAfter)
	}
	// The surviving version is intact.
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: 4}, 0, 8*testChunkSize)
	if err != nil {
		t.Fatalf("read after GC: %v", err)
	}
	for i := 0; i < testChunkSize; i++ {
		if got[i] != 4*16 {
			t.Fatalf("post-GC content corrupted at %d", i)
		}
	}
}

func TestGCKeepsSharedChunksOfClones(t *testing.T) {
	d, c := deploy(t, 2, 3)
	src, _ := c.CreateBlob(ctx, testChunkSize)
	v0, err := c.WriteAt(ctx, src, 0, bytes.Repeat([]byte{1}, 8*testChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := c.Clone(ctx, SnapshotRef{Blob: src, Version: v0.Version})
	if err != nil {
		t.Fatal(err)
	}
	// Retire ALL versions of the source; the clone still references its
	// chunks, so GC must not delete them.
	if err := c.Retire(ctx, src, v0.Version+1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(ctx, d.DataAddrs); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: clone, Version: 0}, 0, 8*testChunkSize)
	if err != nil {
		t.Fatalf("clone read after origin GC: %v", err)
	}
	if got[0] != 1 {
		t.Error("GC deleted chunks still referenced by a clone")
	}
}

func TestLargeRandomizedReadsAcrossVersions(t *testing.T) {
	_, c := deploy(t, 4, 6)
	rng := rand.New(rand.NewSource(7))
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	const size = 40 * testChunkSize
	shadow := make([]byte, size)
	rng.Read(shadow)
	if _, err := c.WriteAt(ctx, blob, 0, shadow); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 15; iter++ {
		off := uint64(rng.Intn(size - 1))
		n := uint64(rng.Intn(size-int(off))) + 1
		patch := make([]byte, n)
		rng.Read(patch)
		if _, err := c.WriteAt(ctx, blob, off, patch); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		copy(shadow[off:], patch)
		info, _, err := c.Latest(ctx, blob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("iter %d: content diverged from shadow model", iter)
		}
	}
}

func TestListBlobs(t *testing.T) {
	_, c := deploy(t, 2, 2)
	b1, _ := c.CreateBlob(ctx, 128)
	b2, _ := c.CreateBlob(ctx, 512)
	if _, err := c.WriteAt(ctx, b2, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	blobs, err := c.ListBlobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Fatalf("ListBlobs returned %d, want 2", len(blobs))
	}
	if blobs[0].ID != b1 || blobs[0].ChunkSize != 128 || blobs[0].Versions != 0 {
		t.Errorf("blob1 = %+v", blobs[0])
	}
	if blobs[1].ID != b2 || blobs[1].ChunkSize != 512 || blobs[1].Versions != 1 {
		t.Errorf("blob2 = %+v", blobs[1])
	}
}

func TestTCPDeployment(t *testing.T) {
	tcp := transport.NewTCP()
	defer tcp.Close()
	d, err := Deploy(tcp, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.Client()
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xC3}, 3*testChunkSize)
	info, err := c.WriteAt(ctx, blob, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("TCP deployment round-trip failed")
	}
}

func TestMetaUsageGrowsSublinearlyForIncrementalCommits(t *testing.T) {
	// The whole point of shadowing: metadata for an incremental commit is
	// O(log span), not O(span). The publish stage's counters read what the
	// metadata providers gained.
	_, c := deploy(t, 2, 2)
	c.Obs = obs.NewRegistry()
	published := func() (uint64, uint64) {
		return c.Obs.Counter("blobseer_publish_node_bytes_total").Value(), c.Obs.Counter("blobseer_publish_nodes_total").Value()
	}
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	full := make(map[uint64][]byte)
	for i := uint64(0); i < 256; i++ {
		full[i] = bytes.Repeat([]byte{1}, testChunkSize)
	}
	if _, err := c.WriteVersion(ctx, blob, full, 256*testChunkSize); err != nil {
		t.Fatal(err)
	}
	_, nodesFull, err := c.MetaUsage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{13: bytes.Repeat([]byte{2}, testChunkSize)}, 256*testChunkSize); err != nil {
		t.Fatal(err)
	}
	_, nodesIncr, err := c.MetaUsage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	added := nodesIncr - nodesFull
	if added != 2 { // the path to chunk 13: its bottom node and the root over 16 of them
		t.Errorf("incremental commit added %d metadata nodes, want 2", added)
	}
	bytesIncr, _, err := c.MetaUsage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b, n := published(); n != nodesIncr || b != bytesIncr {
		t.Errorf("publish counters read %d nodes, %d bytes; the metadata providers hold %d, %d", n, b, nodesIncr, bytesIncr)
	}
}

func TestUnregisterProviderLeavesPlacement(t *testing.T) {
	d, c := deploy(t, 2, 3)
	if err := c.UnregisterProvider(ctx, d.DataAddrs[0]); err != nil {
		t.Fatal(err)
	}
	provs, err := c.Providers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(provs) != 2 {
		t.Fatalf("providers = %v, want 2 after unregister", provs)
	}
	for _, p := range provs {
		if p == d.DataAddrs[0] {
			t.Error("unregistered provider still in placement")
		}
	}
	// Writes after unregister succeed and land only on live providers.
	blob, _ := c.CreateBlob(ctx, testChunkSize)
	info, err := c.WriteAt(ctx, blob, 0, bytes.Repeat([]byte{1}, 8*testChunkSize))
	if err != nil {
		t.Fatalf("write after unregister: %v", err)
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 8*testChunkSize)
	if err != nil || got[0] != 1 {
		t.Errorf("read after unregister: %v", err)
	}
	if d.DataProviderStores()[0].Len() != 0 {
		t.Error("unregistered provider received chunks")
	}
	// Unregistering an unknown address is a no-op.
	if err := c.UnregisterProvider(ctx, "nonexistent"); err != nil {
		t.Errorf("unregister unknown: %v", err)
	}
}
