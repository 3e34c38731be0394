package cas

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
)

func TestFingerprintKeyDeterministic(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	if a != b {
		t.Fatal("same content, different fingerprints")
	}
	if a.Key() != b.Key() {
		t.Fatal("same fingerprint, different keys")
	}
	if Sum([]byte("world")).Key() == a.Key() {
		t.Fatal("different content collided on key")
	}
	if len(a.String()) != 64 {
		t.Errorf("hex fingerprint length = %d, want 64", len(a.String()))
	}
}

// TestZeroSumIsTheHashOfZeros: ZeroSum(n) is the SHA-256 of n zero bytes
// at lengths around its streaming block and at chunk sizes, first computed
// and then answered from the memo, and Sum of a zero body agrees with it.
func TestZeroSumIsTheHashOfZeros(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 3*4096 + 5, 16 << 10, 256 << 10} {
		want := Fingerprint(sha256.Sum256(make([]byte, n)))
		for pass := range 2 {
			if got := ZeroSum(n); got != want {
				t.Fatalf("ZeroSum(%d) pass %d = %v, want %v", n, pass, got, want)
			}
		}
		if got := Sum(make([]byte, n)); got != want {
			t.Fatalf("Sum of %d zero bytes = %v, want %v", n, got, want)
		}
	}
}

func TestFromBytesRejectsBadLength(t *testing.T) {
	if _, err := FromBytes(make([]byte, 16)); err == nil {
		t.Error("FromBytes accepted 16 bytes")
	}
	fp := Sum([]byte("x"))
	got, err := FromBytes(fp[:])
	if err != nil || got != fp {
		t.Errorf("FromBytes round trip failed: %v", err)
	}
}

func TestPutRefReleaseLifecycle(t *testing.T) {
	s := NewMem()
	data := []byte("chunk body")
	fp := Sum(data)

	if s.Ref(fp) {
		t.Fatal("Ref on empty store reported held")
	}
	dup, err := s.PutContent(fp, data)
	if err != nil || dup {
		t.Fatalf("first PutContent: dup=%v err=%v", dup, err)
	}
	if !s.Ref(fp) {
		t.Fatal("Ref after put reported missing")
	}
	dup, err = s.PutContent(fp, data)
	if err != nil || !dup {
		t.Fatalf("second PutContent: dup=%v err=%v", dup, err)
	}
	if got := s.Refs(fp); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	got, err := s.GetContent(fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetContent = %q, %v", got, err)
	}

	for i := 3; i > 1; i-- {
		remaining, reclaimed, err := s.Release(fp)
		if err != nil || reclaimed != 0 || remaining != uint64(i-1) {
			t.Fatalf("release %d: remaining=%d reclaimed=%d err=%v", i, remaining, reclaimed, err)
		}
	}
	remaining, reclaimed, err := s.Release(fp)
	if err != nil || remaining != 0 || reclaimed != uint64(len(data)) {
		t.Fatalf("final release: remaining=%d reclaimed=%d err=%v", remaining, reclaimed, err)
	}
	if s.HasContent(fp) {
		t.Fatal("body survived refcount zero")
	}
	if _, err := s.GetContent(fp); err == nil {
		t.Fatal("GetContent succeeded after reclaim")
	}
	// Releasing an unknown fingerprint is a tolerated no-op.
	if _, _, err := s.Release(fp); err != nil {
		t.Fatalf("release of absent fingerprint: %v", err)
	}
}

func TestPutContentRejectsMismatch(t *testing.T) {
	s := NewMem()
	fp := Sum([]byte("claimed"))
	if _, err := s.PutContent(fp, []byte("actual")); err == nil {
		t.Fatal("PutContent accepted mismatched content")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := NewMem()
	a, b := []byte("aaaa"), []byte("bbbbbbbb")
	s.PutContent(Sum(a), a) // miss
	s.PutContent(Sum(b), b) // miss
	s.Ref(Sum(a))           // hit
	s.PutContent(Sum(a), a) // hit (dup)

	st := s.Stats()
	if st.Chunks != 2 {
		t.Errorf("Chunks = %d, want 2", st.Chunks)
	}
	if st.PhysicalBytes != 12 {
		t.Errorf("PhysicalBytes = %d, want 12", st.PhysicalBytes)
	}
	if want := uint64(3*len(a) + len(b)); st.LogicalBytes != want {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, want)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("Hits/Misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("HitRate = %f, want 0.5", st.HitRate())
	}
	if st.Refs != 4 {
		t.Errorf("Refs = %d, want 4", st.Refs)
	}

	s.Release(Sum(b))
	st = s.Stats()
	if st.ReclaimedChunks != 1 || st.ReclaimedBytes != uint64(len(b)) {
		t.Errorf("Reclaimed = %d chunks / %d bytes, want 1 / %d", st.ReclaimedChunks, st.ReclaimedBytes, len(b))
	}
}

func TestChunkstorePassthroughAndSweepDelete(t *testing.T) {
	s := NewMem()
	// Plain (blob, id) chunk traffic is untouched by the index.
	k := chunkstore.Key{Blob: 7, ID: 9}
	if err := s.Put(k, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err != nil || string(got) != "plain" {
		t.Fatalf("plain Get = %q, %v", got, err)
	}

	// A CAS body deleted by a mark-and-sweep pass loses its index entry too,
	// whatever its refcount was.
	data := []byte("cas body")
	fp := Sum(data)
	s.PutContent(fp, data)
	s.Ref(fp)
	if err := s.Delete(fp.Key()); err != nil {
		t.Fatal(err)
	}
	if s.HasContent(fp) || s.Refs(fp) != 0 {
		t.Fatal("index entry survived sweep delete")
	}
	// A later Ref must report missing, forcing a fresh upload.
	if s.Ref(fp) {
		t.Fatal("Ref resurrected a swept body")
	}
	if s.Len() != 1 || s.UsedBytes() != 5 {
		t.Errorf("Len/UsedBytes = %d/%d, want 1/5", s.Len(), s.UsedBytes())
	}
}

// TestDiskRecoveryRebuildsIndex: reopening a segment log re-indexes the
// content-addressed bodies it holds, pinned against refcount release.
func TestDiskRecoveryRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	disk, err := seglog.Open(dir, seglog.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(disk)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("persisted chunk")
	fp := Sum(data)
	if _, err := s.PutContent(fp, data); err != nil {
		t.Fatal(err)
	}
	// Also a plain chunk, which recovery must leave alone.
	if err := s.Put(chunkstore.Key{Blob: 1, ID: 2}, []byte("plain")); err != nil {
		t.Fatal(err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := seglog.Open(dir, seglog.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(reopened)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.HasContent(fp) {
		t.Fatal("recovered store lost the CAS body")
	}
	// Dedup works against recovered content: no second body stored.
	if !s2.Ref(fp) {
		t.Fatal("Ref missed recovered content")
	}
	if s2.Stats().Chunks != 1 {
		t.Errorf("recovered index has %d chunks, want 1", s2.Stats().Chunks)
	}
	// A recovered body's true count is unknown (it may be referenced by
	// snapshots committed before the restart), so releasing every counted
	// reference must NOT delete it — only a mark-and-sweep Delete may.
	if remaining, reclaimed, err := s2.Release(fp); err != nil || remaining != 0 || reclaimed != 0 {
		t.Fatalf("release on recovered body: remaining=%d reclaimed=%d err=%v", remaining, reclaimed, err)
	}
	if !s2.HasContent(fp) {
		t.Fatal("refcount release deleted a pinned (recovered) body")
	}
	if _, _, err := s2.Release(fp); err != nil {
		t.Fatalf("over-release of pinned body: %v", err)
	}
	if !s2.HasContent(fp) {
		t.Fatal("over-release deleted a pinned body")
	}
	if err := s2.Delete(fp.Key()); err != nil {
		t.Fatal(err)
	}
	if s2.HasContent(fp) {
		t.Fatal("sweep delete left a pinned body behind")
	}
}

// TestConcurrentRefcountStress races parallel committers (Ref/PutContent +
// read) against releasers over a small shared content pool: a chunk must
// never be reclaimed while a committer holds a reference it just took.
// Run with -race.
func TestConcurrentRefcountStress(t *testing.T) {
	s := NewMem()
	const (
		workers = 8
		rounds  = 300
		pool    = 5
	)
	contents := make([][]byte, pool)
	fps := make([]Fingerprint, pool)
	for i := range contents {
		contents[i] = bytes.Repeat([]byte{byte('A' + i)}, 512)
		fps[i] = Sum(contents[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % pool
				fp := fps[i]
				// Acquire a reference the way a dedup commit does.
				if !s.Ref(fp) {
					if _, err := s.PutContent(fp, contents[i]); err != nil {
						errs <- fmt.Errorf("worker %d round %d: put: %w", w, r, err)
						return
					}
				}
				// While we hold the reference, the body must be readable —
				// even though other workers are releasing concurrently.
				got, err := s.GetContent(fp)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: live chunk reclaimed: %w", w, r, err)
					return
				}
				if !bytes.Equal(got, contents[i]) {
					errs <- fmt.Errorf("worker %d round %d: corrupt body", w, r)
					return
				}
				// Snapshot retire: drop the reference again.
				if _, _, err := s.Release(fp); err != nil {
					errs <- fmt.Errorf("worker %d round %d: release: %w", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All references were balanced; everything must have been reclaimed.
	st := s.Stats()
	if st.Refs != 0 {
		t.Errorf("leaked %d references", st.Refs)
	}
	if st.Chunks != 0 {
		t.Errorf("%d bodies survived balanced release", st.Chunks)
	}
}
