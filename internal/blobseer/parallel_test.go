package blobseer

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// TestDedupCommitProbesPerProviderNotPerChunk is the acceptance test for the
// batched CAS probe: a dedup commit must issue O(providers) round trips —
// one "have these fingerprints?" frame and one body-upload frame per
// provider — never O(chunks). 64 fresh chunks against 2 providers and 1
// metadata shard fit in a dozen round trips; the pre-batch protocol needed
// well over 128 (one probe + one put per chunk) plus one metadata put per
// tree node.
func TestDedupCommitProbesPerProviderNotPerChunk(t *testing.T) {
	const chunks = 64
	lat := transport.WithLatency(transport.NewInProc(), 0)
	d, err := Deploy(lat, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()

	blob, err := c.CreateBlob(ctx, 1024)
	if err != nil {
		t.Fatal(err)
	}
	writes := make([]Chunk, chunks)
	for i := range writes {
		writes[i] = Chunk{Index: uint64(i), Body: bytes.Repeat([]byte{byte(i), byte(i + 1)}, 512)}
	}
	calls0 := lat.Calls()
	if _, _, err := c.WriteChunks(ctx, blob, nil, nil, writes, chunks*1024); err != nil {
		t.Fatal(err)
	}
	commitCalls := lat.Calls() - calls0
	if commitCalls > 16 {
		t.Errorf("fresh dedup commit of %d chunks issued %d round trips, want O(providers) (<= 16)", chunks, commitCalls)
	}

	// A fully deduplicated re-commit (same bodies, new snapshot) ships no
	// body frames: probes plus the level-order metadata reads of the
	// previous version's paths — O(providers + log span), still nowhere
	// near O(chunks).
	calls0 = lat.Calls()
	if _, _, err := c.WriteChunks(ctx, blob, nil, nil, writes, chunks*1024); err != nil {
		t.Fatal(err)
	}
	dedupCalls := lat.Calls() - calls0
	if dedupCalls > 20 {
		t.Errorf("dedup re-commit issued %d round trips, want O(providers + log span) (<= 20)", dedupCalls)
	}
}

// overlapNet holds every call to a watched address open for hold and
// records the most watched addresses that had a call in flight at once.
type overlapNet struct {
	transport.Network
	hold time.Duration

	mu      sync.Mutex
	watched map[string]bool
	open    map[string]int
	peak    int
}

func (n *overlapNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	n.mu.Lock()
	watched := n.watched[addr]
	if watched {
		n.open[addr]++
		n.peak = max(n.peak, len(n.open))
	}
	n.mu.Unlock()
	if !watched {
		return n.Network.Call(ctx, addr, req)
	}
	defer func() {
		n.mu.Lock()
		if n.open[addr]--; n.open[addr] == 0 {
			delete(n.open, addr)
		}
		n.mu.Unlock()
	}()
	time.Sleep(n.hold)
	return n.Network.Call(ctx, addr, req)
}

// takePeak returns the peak overlap since the last call and resets it.
func (n *overlapNet) takePeak() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peak
	n.peak = 0
	return p
}

// TestStripedStreamsRunConcurrently: a commit and a restore move their
// chunks over one stream per data provider, and the streams run at the
// same time — the striping that lets bandwidth add up across providers
// (stdchk's model). Each call to a provider is held open for 20 ms, so
// streams that ran one after another would never overlap.
func TestStripedStreamsRunConcurrently(t *testing.T) {
	const (
		providers = 4
		chunks    = 64
		chunk     = 1024
	)
	net := &overlapNet{Network: transport.NewInProc(), hold: 20 * time.Millisecond, open: make(map[string]int)}
	d, err := Deploy(net, 1, providers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	net.watched = make(map[string]bool)
	for _, a := range d.DataAddrs {
		net.watched[a] = true
	}
	c := d.Client()
	c.Parallelism = providers
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	writes := make(map[uint64][]byte, chunks)
	for i := uint64(0); i < chunks; i++ {
		writes[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5A}, chunk/3+1)[:chunk]
	}
	info, err := c.WriteVersion(ctx, blob, writes, chunks*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if p := net.takePeak(); p != providers {
		t.Errorf("commit had calls in flight to at most %d providers at once, want all %d", p, providers)
	}
	reader := d.Client() // a cold node cache, as a restarting node has
	reader.Parallelism = providers
	if _, err := reader.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, chunks*chunk); err != nil {
		t.Fatal(err)
	}
	if p := net.takePeak(); p != providers {
		t.Errorf("restore had calls in flight to at most %d providers at once, want all %d", p, providers)
	}
}

// addrCountNet counts calls per address, for asserting which providers
// serve read traffic.
type addrCountNet struct {
	*transport.InProc
	mu    sync.Mutex
	calls map[string]int
}

func (n *addrCountNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	n.mu.Lock()
	n.calls[addr]++
	n.mu.Unlock()
	return n.InProc.Call(ctx, addr, req)
}

func (n *addrCountNet) reset() {
	n.mu.Lock()
	n.calls = make(map[string]int)
	n.mu.Unlock()
}

func (n *addrCountNet) count(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.calls[addr]
}

// TestReadSpreadsAcrossReplicas: with two replicas on two providers, a
// restore must draw chunks from both — the replica rotation (by chunk key
// hash) spreads read load instead of hot-spotting the first-placed replica.
// In-order failover per chunk is preserved: partitioning one provider leaves
// every chunk readable through the other.
func TestReadSpreadsAcrossReplicas(t *testing.T) {
	const chunk = 1024
	const chunks = 16
	net := &addrCountNet{InProc: transport.NewInProc(), calls: make(map[string]int)}
	d, err := Deploy(net, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2 // every chunk on both providers

	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	writes := make(map[uint64][]byte)
	want := make([]byte, 0, chunks*chunk)
	for i := uint64(0); i < chunks; i++ {
		body := bytes.Repeat([]byte{byte('r' + i)}, chunk)
		writes[i] = body
		want = append(want, body...)
	}
	info, err := c.WriteVersion(ctx, blob, writes, chunks*chunk)
	if err != nil {
		t.Fatal(err)
	}
	ref := SnapshotRef{Blob: blob, Version: info.Version}

	net.reset()
	got, err := c.ReadVersion(ctx, ref, 0, chunks*chunk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restore corrupted")
	}
	for _, addr := range d.DataAddrs {
		if net.count(addr) == 0 {
			t.Errorf("provider %s served no reads: replica rotation not spreading load", addr)
		}
	}

	// In-order failover survives the rotation: with one provider dark, the
	// full restore still succeeds through the remaining replicas.
	net.InProc.Partition(d.DataAddrs[0])
	got, err = c.ReadVersion(ctx, ref, 0, chunks*chunk)
	if err != nil {
		t.Fatalf("restore with one replica provider dark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover restore corrupted")
	}
}

// TestParallelCommitRetireRaceStress is the concurrent-commit-vs-Retire
// stress run over the *parallel* upload path: several writers with
// Parallelism > 1 and replication 2 share a small content pool while
// retiring superseded snapshots. Every published snapshot must stay fully
// readable and refcounts must never double-free. Run with -race.
func TestParallelCommitRetireRaceStress(t *testing.T) {
	const (
		chunk   = 1024
		writers = 5
		rounds  = 20
		stripes = 4
		pool    = 3
	)
	d, err := Deploy(transport.NewInProc(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2
	c.Parallelism = 4

	contents := make([][]byte, pool)
	for i := range contents {
		contents[i] = bytes.Repeat([]byte{byte('A' + i)}, chunk)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
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
				got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, stripes*chunk)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: read: %w", w, r, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("writer %d round %d: snapshot corrupted", w, r)
					return
				}
				if _, err := c.RetireStats(ctx, blob, info.Version); err != nil {
					errs <- fmt.Errorf("writer %d round %d: retire: %w", w, r, err)
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
}

// --- batch frame decoding (satellite: malformed frames fail cleanly) ---

// batchFrames builds one valid frame per batch verb, against matching
// server state where needed.
func batchFrames() map[string][]byte {
	frames := make(map[string][]byte)

	key := chunkstore.Key{Blob: 7, ID: 9}
	body := bytes.Repeat([]byte{0xAB}, 32)
	fp := cas.Sum(body)

	w := wire.NewBuffer(64)
	w.PutU8(opChunkGetBatch)
	w.PutUvarint(2)
	putChunkKey(w, key)
	putChunkKey(w, chunkstore.Key{Blob: 7, ID: 10})
	frames["opChunkGetBatch"] = append([]byte(nil), w.Bytes()...)

	w = wire.NewBuffer(64)
	w.PutU8(opCasRefBatch)
	w.PutUvarint(2)
	putFingerprint(w, fp)
	putFingerprint(w, cas.Sum([]byte("other")))
	frames["opCasRefBatch"] = append([]byte(nil), w.Bytes()...)

	w = wire.NewBuffer(128)
	w.PutU8(opCasPutBatch)
	w.PutUvarint(1)
	putFingerprint(w, fp)
	w.PutBytes(body)
	frames["opCasPutBatch"] = append([]byte(nil), w.Bytes()...)

	w = wire.NewBuffer(128)
	w.PutU8(opCasReleaseBatch)
	w.PutUvarint(2)
	putFingerprint(w, fp)
	putFingerprint(w, cas.Sum([]byte("never stored")))
	frames["opCasReleaseBatch"] = append([]byte(nil), w.Bytes()...)

	nk := meta.NodeKey{Blob: 1, Version: 2, Offset: 3, Span: 4}
	w = wire.NewBuffer(64)
	w.PutU8(opNodePutBatch)
	w.PutUvarint(2)
	putNodeKey(w, nk)
	w.PutBytes([]byte("node-a"))
	putNodeKey(w, meta.NodeKey{Blob: 1, Version: 2, Offset: 4, Span: 4})
	w.PutBytes([]byte("node-b"))
	frames["opNodePutBatch"] = append([]byte(nil), w.Bytes()...)

	w = wire.NewBuffer(64)
	w.PutU8(opNodeGetBatch)
	w.PutUvarint(2)
	putNodeKey(w, nk)
	putNodeKey(w, meta.NodeKey{Blob: 9, Version: 9, Offset: 0, Span: 1})
	frames["opNodeGetBatch"] = append([]byte(nil), w.Bytes()...)

	w = wire.NewBuffer(64)
	w.PutU8(opHintPut)
	w.PutU64(1) // the blob handlerFor creates
	w.PutIndices([]uint64{300, 5, 1 << 40})
	frames["opHintPut"] = append([]byte(nil), w.Bytes()...)

	return frames
}

// countAt is where a batch frame's item count starts: after the op byte, and
// for hint-put after the blob id too.
func countAt(verb string) int {
	if verb == "opHintPut" {
		return 9
	}
	return 1
}

// handlerFor routes a frame to the right daemon handler.
func handlerFor(t *testing.T, verb string) func(context.Context, []byte) ([]byte, error) {
	t.Helper()
	switch verb {
	case "opNodePutBatch", "opNodeGetBatch":
		return NewMetadataProvider().handle
	case "opHintPut":
		vm := NewVersionManager()
		w := wire.NewBuffer(16)
		w.PutU8(opCreate)
		w.PutU64(testChunkSize)
		if _, err := vm.handle(ctx, w.Bytes()); err != nil {
			t.Fatal(err)
		}
		return vm.handle
	default:
		return NewDataProvider(cas.NewMem()).handle
	}
}

// TestBatchFramesDecodeCleanly: every batch verb accepts its well-formed
// frame and rejects every truncation and an implausible item count with a
// clean error — no panic, no partial application.
func TestBatchFramesDecodeCleanly(t *testing.T) {
	for verb, frame := range batchFrames() {
		t.Run(verb, func(t *testing.T) {
			h := handlerFor(t, verb)
			if _, err := h(ctx, frame); err != nil {
				t.Fatalf("well-formed frame rejected: %v", err)
			}
			// Every strict prefix must fail cleanly: the item count promises
			// more than the frame holds.
			for cut := 1; cut < len(frame); cut++ {
				if _, err := h(ctx, frame[:cut]); err == nil {
					t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(frame))
				}
			}
			// An implausible item count is rejected before any allocation
			// or application.
			w := wire.NewBuffer(16)
			w.PutUvarint(1 << 40)
			if _, err := h(ctx, append(frame[:countAt(verb):countAt(verb)], w.Bytes()...)); err == nil {
				t.Fatal("implausible batch count accepted")
			}
		})
	}
}

// TestCasPutBatchCorruptBodyTakesNoRefs: a batch whose body does not hash to
// its claimed fingerprint is rejected whole — no reference is taken for any
// item, including the valid ones before it.
func TestCasPutBatchCorruptBodyTakesNoRefs(t *testing.T) {
	store := cas.NewMem()
	dp := NewDataProvider(store)
	good := bytes.Repeat([]byte{0x01}, 16)
	w := wire.NewBuffer(128)
	w.PutU8(opCasPutBatch)
	w.PutUvarint(2)
	putFingerprint(w, cas.Sum(good))
	w.PutBytes(good)
	putFingerprint(w, cas.Sum([]byte("claimed")))
	w.PutBytes([]byte("actual")) // mismatch
	if _, err := dp.handle(ctx, w.Bytes()); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	st := store.Stats()
	if st.Refs != 0 || st.Chunks != 0 {
		t.Fatalf("corrupt batch applied partially: %d refs, %d chunks", st.Refs, st.Chunks)
	}
}
