package localtier

import (
	"errors"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
)

func newTestStage(t *testing.T) *Stage {
	t.Helper()
	return New(chunkstore.NewMem(), obs.NewRegistry())
}

func TestPutWritesRoundtrip(t *testing.T) {
	s := newTestStage(t)
	chunks := []blobseer.Chunk{
		{Index: 0, Body: []byte("chunk-zero")},
		{Index: 3, Body: []byte("chunk-three")},
		{Index: 7, Body: []byte("chunk-seven")},
	}
	base := blobseer.SnapshotRef{Blob: 4, Version: 9}
	c, err := s.Put("vm-0", 1, base, 512, 64, chunks, false)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if c.Owner != "vm-0" || c.Seq != 1 || c.Base != base || c.Size != 512 || c.ChunkSize != 64 {
		t.Fatalf("capture metadata = %+v", c)
	}
	if got, want := c.Bytes(), uint64(len("chunk-three")+len("chunk-zero")+len("chunk-seven")); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
	back, err := s.Chunks(c)
	if err != nil {
		t.Fatalf("Chunks: %v", err)
	}
	if len(back) != len(chunks) {
		t.Fatalf("Chunks returned %d chunks, want %d", len(back), len(chunks))
	}
	for i, ch := range chunks {
		if back[i].Index != ch.Index || string(back[i].Body) != string(ch.Body) {
			t.Errorf("chunk %d = %d:%q, want %d:%q", i, back[i].Index, back[i].Body, ch.Index, ch.Body)
		}
	}
}

func TestPutReplacesDuplicateSeq(t *testing.T) {
	s := newTestStage(t)
	if _, err := s.Put("vm-0", 5, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: []byte("old")}}, true); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	c2, err := s.Put("vm-0", 5, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 1, Body: []byte("newer")}}, true)
	if err != nil {
		t.Fatalf("second Put: %v", err)
	}
	pending := s.Pending("vm-0")
	if len(pending) != 1 || pending[0] != c2 {
		t.Fatalf("Pending = %v, want exactly the replacement capture", pending)
	}
	own, partner := s.Backlog()
	if own.Checkpoints != 0 {
		t.Errorf("own backlog = %+v, want empty", own)
	}
	if partner.Checkpoints != 1 || partner.Chunks != 1 || partner.Bytes != uint64(len("newer")) {
		t.Errorf("partner backlog = %+v, want the replacement only", partner)
	}
}

func TestBacklogSplitsRoles(t *testing.T) {
	s := newTestStage(t)
	if _, err := s.Put("vm-0", 1, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: make([]byte, 10)}, {Index: 1, Body: make([]byte, 20)}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("vm-1", 1, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 2, Body: make([]byte, 40)}}, true); err != nil {
		t.Fatal(err)
	}
	own, partner := s.Backlog()
	if own.Checkpoints != 1 || own.Chunks != 2 || own.Bytes != 30 {
		t.Errorf("own = %+v, want 1 ckpt / 2 chunks / 30 bytes", own)
	}
	if partner.Checkpoints != 1 || partner.Chunks != 1 || partner.Bytes != 40 {
		t.Errorf("partner = %+v, want 1 ckpt / 1 chunk / 40 bytes", partner)
	}
	if b := s.OwnerBacklog("vm-0"); b.Checkpoints != 1 || b.Chunks != 2 || b.Bytes != 30 {
		t.Errorf("OwnerBacklog(vm-0) = %+v", b)
	}
	owners := s.Owners()
	if len(owners) != 2 || owners[0] != "vm-0" || owners[1] != "vm-1" {
		t.Errorf("Owners() = %v", owners)
	}
}

func TestMarkDrainedAdvancesMemoAndFreesChunks(t *testing.T) {
	s := newTestStage(t)
	c1, err := s.Put("vm-0", 1, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: []byte("a")}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("vm-0", 2, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 1, Body: []byte("b")}}, false); err != nil {
		t.Fatal(err)
	}
	ref1 := blobseer.SnapshotRef{Blob: 1, Version: 3}
	s.MarkDrained("vm-0", 1, ref1)
	if seq, ref, ok := s.LastDrained("vm-0"); !ok || seq != 1 || ref != ref1 {
		t.Fatalf("LastDrained = %d %v %v, want 1 %v true", seq, ref, ok, ref1)
	}
	if _, err := s.Chunks(c1); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("Chunks after drain: err = %v, want ErrNotStaged", err)
	}
	if pending := s.Pending("vm-0"); len(pending) != 1 || pending[0].Seq != 2 {
		t.Fatalf("Pending after drain = %v, want only seq 2", pending)
	}
	// A stale release (e.g. a partner replay) must not move the memo back.
	s.MarkDrained("vm-0", 0, blobseer.SnapshotRef{Blob: 9, Version: 9})
	if seq, ref, _ := s.LastDrained("vm-0"); seq != 1 || ref != ref1 {
		t.Fatalf("stale MarkDrained rewound the memo: %d %v", seq, ref)
	}
	// A release for a capture already gone still advances chain state.
	ref3 := blobseer.SnapshotRef{Blob: 1, Version: 5}
	s.MarkDrained("vm-0", 3, ref3)
	if seq, ref, _ := s.LastDrained("vm-0"); seq != 3 || ref != ref3 {
		t.Fatalf("tolerant MarkDrained: %d %v, want 3 %v", seq, ref, ref3)
	}
}

func TestDropDiscardsOwner(t *testing.T) {
	s := newTestStage(t)
	if _, err := s.Put("vm-0", 1, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: []byte("a")}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("vm-0", 2, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 1, Body: []byte("b")}}, true); err != nil {
		t.Fatal(err)
	}
	s.MarkDrained("vm-0", 1, blobseer.SnapshotRef{Blob: 1, Version: 1})
	if n := s.Drop("vm-0"); n != 1 {
		t.Fatalf("Drop = %d, want 1 (seq 1 already drained)", n)
	}
	if _, _, ok := s.LastDrained("vm-0"); ok {
		t.Error("Drop kept the drain memo; a re-registered owner would chain off a stale ref")
	}
	own, partner := s.Backlog()
	if own.Checkpoints+partner.Checkpoints != 0 {
		t.Errorf("backlog after Drop: own=%+v partner=%+v", own, partner)
	}
	if len(s.Owners()) != 0 {
		t.Errorf("Owners after Drop = %v", s.Owners())
	}
}

func TestGaugeAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(chunkstore.NewMem(), reg)
	if _, err := s.Put("vm-0", 1, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: make([]byte, 100)}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("vm-0", 2, blobseer.SnapshotRef{}, 128, 64, []blobseer.Chunk{{Index: 0, Body: make([]byte, 50)}}, false); err != nil {
		t.Fatal(err)
	}
	ck := reg.Gauge("localtier_staged_checkpoints", obs.L("role", "own"))
	by := reg.Gauge("localtier_staged_bytes", obs.L("role", "own"))
	if ck.Value() != 2 || by.Value() != 150 {
		t.Fatalf("after staging: ckpts=%d bytes=%d, want 2/150", ck.Value(), by.Value())
	}
	s.MarkDrained("vm-0", 1, blobseer.SnapshotRef{Blob: 1, Version: 1})
	if ck.Value() != 1 || by.Value() != 50 {
		t.Fatalf("after drain: ckpts=%d bytes=%d, want 1/50", ck.Value(), by.Value())
	}
	s.Drop("vm-0")
	if ck.Value() != 0 || by.Value() != 0 {
		t.Fatalf("after Drop: ckpts=%d bytes=%d, want 0/0", ck.Value(), by.Value())
	}
	if got := reg.Counter("localtier_staged_total").Value(); got != 2 {
		t.Errorf("localtier_staged_total = %d, want 2", got)
	}
	if got := reg.Counter("localtier_drained_total").Value(); got != 1 {
		t.Errorf("localtier_drained_total = %d, want 1", got)
	}
	if got := reg.Counter("localtier_dropped_total").Value(); got != 1 {
		t.Errorf("localtier_dropped_total = %d, want 1", got)
	}
}

// gatedStore is a store whose PutBatch blocks until released, and fails when
// told to after storing half of the batch.
type gatedStore struct {
	*chunkstore.Mem
	entered chan struct{} // a PutBatch is inside the store
	release chan error    // what that PutBatch returns
	batches int
}

func (g *gatedStore) PutBatch(keys []chunkstore.Key, bodies [][]byte) error {
	g.batches++
	g.entered <- struct{}{}
	err := <-g.release
	n := len(keys)
	if err != nil {
		n /= 2
	}
	for i, k := range keys[:n] {
		if perr := g.Put(k, bodies[i]); perr != nil {
			return perr
		}
	}
	return err
}

func (g *gatedStore) DeleteBatch(keys []chunkstore.Key) error {
	for _, k := range keys {
		g.Delete(k) //nolint:errcheck // absent keys are skipped
	}
	return nil
}

// TestPutHoldsNoLockAcrossStoreIO: a capture reaches the store as one batch,
// and while that batch is on its way to disk the stage still answers
// Backlog, OwnerBacklog and Pending — the BACKLOG verb and the backlog
// gauges never wait for a stage's I/O. A batch that fails leaves no orphan
// chunk behind and nothing staged; a re-put of the same (owner, seq) still
// replaces the earlier copy.
func TestPutHoldsNoLockAcrossStoreIO(t *testing.T) {
	store := &gatedStore{Mem: chunkstore.NewMem(), entered: make(chan struct{}), release: make(chan error)}
	s := New(store, obs.NewRegistry())
	chunks := []blobseer.Chunk{{Index: 0, Body: []byte("a")}, {Index: 1, Body: []byte("bb")}, {Index: 2, Body: []byte("ccc")}, {Index: 3, Body: []byte("dddd")}}
	put := func(seq uint64) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.Put("vm-0", seq, blobseer.SnapshotRef{}, 256, 64, chunks, false)
			done <- err
		}()
		<-store.entered // the batch is inside the store, blocked
		return done
	}

	done := put(1)
	if own, _ := s.Backlog(); own.Checkpoints != 0 { // returns at all: no lock is held
		t.Fatalf("Backlog during a stage = %+v, want nothing published yet", own)
	}
	if b := s.OwnerBacklog("vm-0"); b.Checkpoints != 0 || len(s.Pending("vm-0")) != 0 {
		t.Fatalf("capture visible before its batch is durable: %+v", b)
	}
	store.release <- nil
	if err := <-done; err != nil {
		t.Fatalf("Put: %v", err)
	}
	if own, _ := s.Backlog(); own.Checkpoints != 1 || own.Chunks != 4 || store.Len() != 4 || store.batches != 1 {
		t.Fatalf("after one stage: backlog %+v, %d chunks stored in %d batches", own, store.Len(), store.batches)
	}

	// A failed batch: nothing staged, no orphan keys.
	done = put(2)
	store.release <- errors.New("disk full")
	if err := <-done; err == nil {
		t.Fatal("Put over a failing store succeeded")
	}
	if own, _ := s.Backlog(); own.Checkpoints != 1 || store.Len() != 4 {
		t.Fatalf("after a failed stage: backlog %+v, %d chunks stored (want 1 checkpoint, 4 chunks)", own, store.Len())
	}

	// A re-put of seq 1 replaces the old copy: still one checkpoint, and the
	// old copy's chunks are gone from the store.
	done = put(1)
	store.release <- nil
	if err := <-done; err != nil {
		t.Fatalf("re-put: %v", err)
	}
	if own, _ := s.Backlog(); own.Checkpoints != 1 || own.Chunks != 4 || store.Len() != 4 {
		t.Fatalf("after a re-put: backlog %+v, %d chunks stored", own, store.Len())
	}
	back, err := s.Chunks(s.Pending("vm-0")[0])
	if err != nil || len(back) != 4 {
		t.Fatalf("replaced capture unreadable: %v", err)
	}
}
