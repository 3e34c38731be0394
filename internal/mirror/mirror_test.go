package mirror

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/transport"
)

// ctx is the default context for test operations.
var ctx = context.Background()

const cs = 256 // chunk size for tests

// setup deploys BlobSeer, uploads a base image, and attaches a module.
func setup(t *testing.T, imageSize int) (*blobseer.Deployment, *blobseer.Client, *Module, []byte) {
	t.Helper()
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, imageSize)
	rng := rand.New(rand.NewSource(5))
	rng.Read(content)
	info, err := c.WriteAt(ctx, base, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	return d, c, m, content
}

func TestLazyReadMatchesBase(t *testing.T) {
	_, _, m, content := setup(t, 16*cs)
	got := make([]byte, len(content))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("lazy read diverged from base image")
	}
}

func TestLazyFetchIsOnDemand(t *testing.T) {
	_, _, m, _ := setup(t, 16*cs)
	buf := make([]byte, cs)
	if _, err := m.ReadAt(buf, 3*cs); err != nil {
		t.Fatal(err)
	}
	remote, _, _ := m.Stats()
	if remote != 1 {
		t.Errorf("reading one chunk fetched %d chunks", remote)
	}
	// Re-reading hits the cache.
	if _, err := m.ReadAt(buf, 3*cs); err != nil {
		t.Fatal(err)
	}
	remote2, hits, _ := m.Stats()
	if remote2 != 1 || hits == 0 {
		t.Errorf("cache not effective: remote=%d hits=%d", remote2, hits)
	}
}

func TestWriteReadBack(t *testing.T) {
	_, _, m, content := setup(t, 16*cs)
	patch := bytes.Repeat([]byte{0xF0}, cs+100)
	off := int64(2*cs - 50) // unaligned, crosses boundaries
	if _, err := m.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), content...)
	copy(want[off:], patch)
	got := make([]byte, len(content))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("write not visible through read")
	}
}

func TestWholeChunkWriteSkipsFetch(t *testing.T) {
	_, _, m, _ := setup(t, 16*cs)
	if _, err := m.WriteAt(bytes.Repeat([]byte{1}, cs), 4*cs); err != nil {
		t.Fatal(err)
	}
	remote, _, _ := m.Stats()
	if remote != 0 {
		t.Errorf("whole-chunk write fetched %d chunks from repository", remote)
	}
	// Partial write does fetch (copy-on-write fill).
	if _, err := m.WriteAt([]byte{2}, 5*cs+10); err != nil {
		t.Fatal(err)
	}
	remote, _, _ = m.Stats()
	if remote != 1 {
		t.Errorf("partial write fetched %d chunks, want 1", remote)
	}
}

func TestCommitRequiresClone(t *testing.T) {
	_, _, m, _ := setup(t, 8*cs)
	if _, err := m.Commit(ctx); err != ErrNoCheckpointImage {
		t.Errorf("Commit before Clone = %v, want ErrNoCheckpointImage", err)
	}
}

func TestCloneCommitRoundTrip(t *testing.T) {
	_, c, m, content := setup(t, 16*cs)
	patch := bytes.Repeat([]byte{0xAB}, 2*cs)
	if _, err := m.WriteAt(patch, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, ok := m.CheckpointImage()
	if !ok {
		t.Fatal("no checkpoint image after Clone")
	}
	// The snapshot seen from the repository equals base + patch.
	want := append([]byte(nil), content...)
	copy(want, patch)
	got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, 0, uint64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("committed snapshot content wrong")
	}
}

func TestCloneIsIdempotent(t *testing.T) {
	_, _, m, _ := setup(t, 8*cs)
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	first, _ := m.CheckpointImage()
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	second, _ := m.CheckpointImage()
	if first != second {
		t.Errorf("second Clone created a new image: %d != %d", first, second)
	}
}

func TestSuccessiveCommitsAreIncremental(t *testing.T) {
	d, c, m, _ := setup(t, 64*cs)
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	_, baseChunks, err := c.Usage(ctx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	var versions []uint64
	for ck := 0; ck < 4; ck++ {
		// Each checkpoint dirties exactly 3 chunks, each with its own
		// content (identical bodies would be stored once).
		for j := 0; j < 3; j++ {
			idx := int64(ck*3 + j)
			if _, err := m.WriteAt(bytes.Repeat([]byte{byte(ck + 1), byte(j)}, cs/2), idx*cs); err != nil {
				t.Fatal(err)
			}
		}
		info, err := m.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, info.Version)
		_, chunks, err := c.Usage(ctx, d.DataAddrs)
		if err != nil {
			t.Fatal(err)
		}
		want := baseChunks + uint64(3*(ck+1))
		if chunks != want {
			t.Errorf("after checkpoint %d: %d chunks stored, want %d (incremental broken)", ck, chunks, want)
		}
	}
	// Every snapshot remains independently readable (standalone images):
	// snapshot i contains checkpoint i's writes at chunk 3i, and must NOT
	// contain later checkpoints' writes.
	ckpt, _ := m.CheckpointImage()
	for i, v := range versions {
		got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: v}, uint64(3*i)*cs, cs)
		if err != nil {
			t.Fatalf("snapshot %d unreadable: %v", i, err)
		}
		if got[0] != byte(i+1) {
			t.Errorf("snapshot %d chunk %d = %d, want %d", i, 3*i, got[0], i+1)
		}
		if i+1 < len(versions) {
			later, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: v}, uint64(3*(i+1))*cs, cs)
			if err != nil {
				t.Fatal(err)
			}
			if later[0] == byte(i+2) {
				t.Errorf("snapshot %d leaked a later checkpoint's write", i)
			}
		}
	}
}

func TestEmptyCommit(t *testing.T) {
	_, _, m, _ := setup(t, 8*cs)
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	info1, err := m.Commit(ctx)
	if err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	info2, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = info1
	_ = info2 // both succeed; no data moved
}

func TestRestartFromSnapshot(t *testing.T) {
	_, c, m, content := setup(t, 16*cs)
	// Simulate a running VM: write, checkpoint.
	state := bytes.Repeat([]byte{0x77}, 4*cs)
	if _, err := m.WriteAt(state, 0); err != nil {
		t.Fatal(err)
	}
	m.Clone(ctx)
	info, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()

	// Post-checkpoint damage that must be rolled back.
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xEE}, cs), 0); err != nil {
		t.Fatal(err)
	}

	// "Failure": redeploy a fresh module from the snapshot on another node.
	m2, err := AttachCheckpoint(ctx, c, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16*cs)
	if _, err := m2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), content...)
	copy(want, state)
	if !bytes.Equal(got, want) {
		t.Error("restart did not roll back to the snapshot state")
	}

	// The restarted instance can keep checkpointing into the same image.
	if _, err := m2.WriteAt(bytes.Repeat([]byte{0x99}, cs), 8*cs); err != nil {
		t.Fatal(err)
	}
	info2, err := m2.Commit(ctx)
	if err != nil {
		t.Fatalf("commit after restart: %v", err)
	}
	if info2.Version <= info.Version {
		t.Errorf("post-restart snapshot version %d not newer than %d", info2.Version, info.Version)
	}
}

func TestDirtyAccounting(t *testing.T) {
	_, _, m, _ := setup(t, 16*cs)
	if m.DirtyChunks() != 0 {
		t.Error("fresh module has dirty chunks")
	}
	m.WriteAt(bytes.Repeat([]byte{1}, 2*cs), 0)
	m.WriteAt([]byte{2}, 0) // same chunk again
	if m.DirtyChunks() != 2 {
		t.Errorf("DirtyChunks = %d, want 2", m.DirtyChunks())
	}
	if m.DirtyBytes() != 2*cs {
		t.Errorf("DirtyBytes = %d, want %d", m.DirtyBytes(), 2*cs)
	}
	m.Clone(ctx)
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if m.DirtyChunks() != 0 || m.DirtyBytes() != 0 {
		t.Error("dirty state not cleared by Commit")
	}
}

func TestTailChunkTrimOnCommit(t *testing.T) {
	// Image size not a multiple of the chunk size: the final partial chunk
	// must round-trip through commit.
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, _ := c.CreateBlob(ctx, cs)
	content := bytes.Repeat([]byte{0x3C}, 5*cs+77)
	info, err := c.WriteAt(ctx, base, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	// Touch the tail chunk.
	if _, err := m.WriteAt([]byte{0xEE}, int64(len(content)-1)); err != nil {
		t.Fatal(err)
	}
	m.Clone(ctx)
	ci, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()
	got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: ci.Version}, 0, uint64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(content) {
		t.Fatalf("snapshot size %d, want %d", len(got), len(content))
	}
	if got[len(got)-1] != 0xEE {
		t.Error("tail write lost")
	}
}

// TestRandomizedShadowModel drives random writes and commits — synchronous
// ones and asynchronous ones the writes keep racing — over a device with a
// short tail chunk, and checks the device and every snapshot against a
// shadow: each snapshot must be the shadow as it was at its capture.
func TestRandomizedShadowModel(t *testing.T) {
	_, c, m, content := setup(t, 32*cs+77)
	shadow := append([]byte(nil), content...)
	rng := rand.New(rand.NewSource(44))
	m.Clone(ctx)
	type snap struct {
		pc    *PendingCommit
		state []byte
	}
	var snaps []snap
	for iter := 0; iter < 240; iter++ {
		if rng.Intn(8) == 0 {
			pc, err := m.CommitAsync(ctx)
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{pc, append([]byte(nil), shadow...)})
			if rng.Intn(2) == 0 {
				if _, err := pc.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		off := rng.Intn(len(shadow) - 1)
		n := rng.Intn(min(len(shadow)-off, 3*cs)) + 1
		patch := make([]byte, n)
		rng.Read(patch)
		if _, err := m.WriteAt(patch, int64(off)); err != nil {
			t.Fatal(err)
		}
		copy(shadow[off:], patch)
	}
	// Device view matches shadow.
	got := make([]byte, len(shadow))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("device content diverged")
	}
	// Every committed snapshot matches its recorded state.
	for i, s := range snaps {
		ref, err := s.pc.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadVersion(ctx, ref, 0, uint64(len(s.state)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.state) {
			t.Errorf("snapshot %d diverged", i)
		}
	}
}

// TestCommitDedupAccounting drives the mirroring module against a
// dedup-enabled repository: re-dirtying chunks with identical content across
// successive commits ships the bodies only once, and CommitStats exposes
// the savings.
func TestCommitDedupAccounting(t *testing.T) {
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteAt(ctx, base, 0, make([]byte, 8*cs))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: base, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}

	// Two checkpoints of the same application state, rewritten in place.
	state := bytes.Repeat([]byte{0x5A}, 4*cs)
	for round := 0; round < 2; round++ {
		if _, err := m.WriteAt(state, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := m.CommitStats()
	if st.Chunks != 8 {
		t.Fatalf("committed %d chunks, want 8", st.Chunks)
	}
	// Round 1 ships one distinct body (4 identical chunks: 1 miss + 3 hits);
	// round 2 ships nothing.
	if st.DedupChunks != 7 {
		t.Errorf("dedup chunks = %d, want 7", st.DedupChunks)
	}
	if st.TransferBytes != cs {
		t.Errorf("transferred %d bytes, want %d (one body)", st.TransferBytes, cs)
	}
	if st.LogicalBytes != 8*cs {
		t.Errorf("logical %d bytes, want %d", st.LogicalBytes, 8*cs)
	}

	// The snapshots remain byte-correct.
	ckpt, _ := m.CheckpointImage()
	latest, _, err := c.Latest(ctx, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: latest.Version}, 0, uint64(len(state)))
	if err != nil || !bytes.Equal(got, state) {
		t.Fatalf("dedup snapshot diverged: %v", err)
	}
}
