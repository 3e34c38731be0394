package mirror

import (
	"bytes"
	"errors"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/transport"
)

// rollbackSetup attaches a cloned module over a plain in-process deployment
// with one committed checkpoint holding known content.
func rollbackSetup(t *testing.T) (*blobseer.Client, *Module, blobseer.SnapshotRef) {
	t.Helper()
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
	info, err := c.WriteAt(ctx, base, 0, make([]byte, 16*cs))
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
	if _, err := m.WriteAt(bytes.Repeat([]byte{0x11}, cs), 0); err != nil {
		t.Fatal(err)
	}
	ckptInfo, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()
	return c, m, blobseer.SnapshotRef{Blob: ckpt, Version: ckptInfo.Version}
}

func TestRollbackToRevertsInPlace(t *testing.T) {
	_, m, ckptRef := rollbackSetup(t)

	// Warm the cache with a read-only chunk, then diverge past the
	// checkpoint: an uncommitted write and a committed one.
	var warm [cs]byte
	if _, err := m.ReadAt(warm[:], 8*cs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(bytes.Repeat([]byte{0x22}, cs), 2*cs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(bytes.Repeat([]byte{0x33}, cs), 3*cs); err != nil {
		t.Fatal(err)
	}

	remoteBefore, localBefore, _ := m.Stats()
	if err := m.RollbackTo(ctx, ckptRef); err != nil {
		t.Fatalf("RollbackTo: %v", err)
	}
	if m.DirtyChunks() != 0 {
		t.Errorf("DirtyChunks = %d after rollback", m.DirtyChunks())
	}
	// The post-checkpoint writes are gone; the checkpointed write survives.
	var got [cs]byte
	if _, err := m.ReadAt(got[:], 2*cs); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("rolled-back chunk 2 reads %#x, want zeros", got[0])
	}
	if _, err := m.ReadAt(got[:], 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 {
		t.Errorf("checkpointed chunk reads %#x, want 0x11", got[0])
	}
	// The read-only chunk is still cached: no remote fetch to serve it.
	remoteMid, _, _ := m.Stats()
	if _, err := m.ReadAt(got[:], 8*cs); err != nil {
		t.Fatal(err)
	}
	remoteAfter, localAfter, _ := m.Stats()
	if remoteAfter != remoteMid {
		t.Errorf("read-only chunk was refetched after rollback (%d -> %d remote reads)", remoteMid, remoteAfter)
	}
	if localAfter <= localBefore {
		t.Errorf("expected a local hit serving the warm chunk (hits %d -> %d, remote %d)", localBefore, localAfter, remoteBefore)
	}
}

// TestCommitAfterRollbackIgnoresNewerOrphan is the rollback-safety property:
// a commit made after rolling back must overlay the rollback target, not the
// blob's latest version — otherwise a newer orphaned snapshot (a commit that
// was still publishing when its deployment failed over) would resurrect the
// rolled-back writes.
func TestCommitAfterRollbackIgnoresNewerOrphan(t *testing.T) {
	c, m, ckptRef := rollbackSetup(t)

	// An "orphan": a newer committed version holding a write that the
	// rollback must undo.
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xEE}, cs), 5*cs); err != nil {
		t.Fatal(err)
	}
	orphan, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if orphan.Version <= ckptRef.Version {
		t.Fatalf("orphan version %d not newer than checkpoint %d", orphan.Version, ckptRef.Version)
	}

	if err := m.RollbackTo(ctx, ckptRef); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(bytes.Repeat([]byte{0x44}, cs), 6*cs); err != nil {
		t.Fatal(err)
	}
	next, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The new snapshot holds the new write and the checkpointed one, but NOT
	// the orphan's chunk 5 — even though the orphan was the latest version.
	ref := blobseer.SnapshotRef{Blob: ckptRef.Blob, Version: next.Version}
	got, err := c.ReadVersion(ctx, ref, 5*cs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 0xEE {
		t.Fatal("post-rollback snapshot resurrected the orphaned write")
	}
	got, err = c.ReadVersion(ctx, ref, 6*cs, cs)
	if err != nil || got[0] != 0x44 {
		t.Fatalf("post-rollback snapshot lost its own write: %#x, %v", got[0], err)
	}
	got, err = c.ReadVersion(ctx, ref, 0, cs)
	if err != nil || got[0] != 0x11 {
		t.Fatalf("post-rollback snapshot lost checkpointed content: %#x, %v", got[0], err)
	}
}

func TestRollbackToRefusesForeignSnapshots(t *testing.T) {
	c, m, _ := rollbackSetup(t)
	other, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteAt(ctx, other, 0, make([]byte, cs))
	if err != nil {
		t.Fatal(err)
	}
	err = m.RollbackTo(ctx, blobseer.SnapshotRef{Blob: other, Version: info.Version})
	if !errors.Is(err, ErrBadRollback) {
		t.Fatalf("rollback to foreign blob: %v, want ErrBadRollback", err)
	}
}

// TestCommitAfterRollbackToSourceStaysOnCheckpointImage: once Clone has made
// the checkpoint image, rolling back to the backing source and committing
// again must publish onto the checkpoint image, and the published ref must
// read as the source plus the new write.
func TestCommitAfterRollbackToSourceStaysOnCheckpointImage(t *testing.T) {
	c, m, ckptRef := rollbackSetup(t)
	src := m.src
	if err := m.RollbackTo(ctx, src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(bytes.Repeat([]byte{0x55}, cs), 4*cs); err != nil {
		t.Fatal(err)
	}
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pc.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Blob != ckptRef.Blob {
		t.Fatalf("commit after rollback published onto blob %d, want the checkpoint image %d", ref.Blob, ckptRef.Blob)
	}
	want, err := c.ReadVersion(ctx, src, 0, 16*cs)
	if err != nil {
		t.Fatal(err)
	}
	copy(want[4*cs:], bytes.Repeat([]byte{0x55}, cs))
	got, err := c.ReadVersion(ctx, ref, 0, 16*cs)
	if err != nil {
		t.Fatalf("read the committed ref %s: %v", ref, err)
	}
	if !bytes.Equal(got, want) {
		t.Error("snapshot committed after rollback to the source is not the source plus the write")
	}
}
