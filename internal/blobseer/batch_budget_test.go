package blobseer

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"blobcr/internal/meta"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// TestCommitSyncBudget is the write path's sync budget as a regression gate:
// a commit of 128 × 256 KiB unique chunks over loopback TCP to four
// providers on seglog costs at most one fdatasync per cas-put-batch frame —
// the frame is the unit that meets the log — summed over the providers and
// read from the product's own counters (EngineStats over the wire, the
// client's batch-call counter). A frame fanned out into racing single puts
// cost about fifteen times that.
func TestCommitSyncBudget(t *testing.T) {
	const chunks, chunk = 128, 256 << 10
	tcp := transport.NewTCP()
	t.Cleanup(func() { tcp.Close() })
	d, err := DeployWith(tcp, 2, 4, SeglogStores(t.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Obs = obs.NewRegistry()
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	writes := make([]Chunk, chunks)
	for i := range writes {
		writes[i] = Chunk{Index: uint64(i), Body: make([]byte, chunk)}
		rng.Read(writes[i].Body)
	}
	engine := func(field string) (total uint64) {
		for _, addr := range d.DataAddrs {
			es, err := c.StoreEngineStats(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			total += es.Field(field)
		}
		return total
	}
	frames := c.Obs.Counter("blobseer_batch_calls_total", obs.L("op", "cas-put-batch"))
	fsyncs0, puts0 := engine("fsyncs"), engine("puts")
	if _, stats, err := c.WriteChunks(ctx, blob, nil, nil, writes, chunks*chunk); err != nil || stats.TransferBytes != chunks*chunk {
		t.Fatalf("commit: %+v, %v", stats, err)
	}
	fsyncs, puts := engine("fsyncs")-fsyncs0, engine("puts")-puts0
	t.Logf("%d chunks: %d cas-put-batch frames, %d fdatasyncs, %d engine puts", chunks, frames.Value(), fsyncs, puts)
	if puts != chunks {
		t.Errorf("engines counted %d puts, want one per chunk (%d)", puts, chunks)
	}
	if fsyncs == 0 || fsyncs > frames.Value() {
		t.Errorf("%d fdatasyncs for %d cas-put-batch frames: a frame must cost one sync, not one per chunk", fsyncs, frames.Value())
	}
	if max := uint64(chunks*chunk/batchBytesLimit + len(d.DataAddrs)); frames.Value() > max {
		t.Errorf("%d put frames for %d MiB over %d providers, want at most %d", frames.Value(), chunks*chunk>>20, len(d.DataAddrs), max)
	}
}

// TestRetireReleasesInProviderCalls: a retire's releases (releaseRefs, which
// an aborted commit's unwind shares) reach each provider as
// cas-release-batch frames, one per provider here, never one call per
// fingerprint per replica, and report exactly what the per-fingerprint
// releases did. References at a provider that cannot be reached are counted
// in Failed, the rest still released.
func TestRetireReleasesInProviderCalls(t *testing.T) {
	const chunks, chunk = 48, 1024
	net := &addrCountNet{InProc: transport.NewInProc(), calls: make(map[string]int)}
	d, err := Deploy(net, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Replication = 2
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	round := func(v int) uint64 {
		writes := make(map[uint64][]byte, chunks)
		for i := uint64(0); i < chunks; i++ {
			body := make([]byte, chunk)
			body[0], body[1], body[2] = byte(v), byte(i), 0xC5
			writes[i] = body
		}
		info, err := c.WriteVersion(ctx, blob, writes, chunks*chunk)
		if err != nil {
			t.Fatal(err)
		}
		return info.Version
	}
	round(0)
	v1 := round(1)

	net.reset()
	stats, err := c.RetireStats(ctx, blob, v1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ReclaimStats{ReleasedRefs: 2 * chunks, ReclaimedChunks: 2 * chunks, ReclaimedBytes: 2 * chunks * chunk}); stats != want {
		t.Fatalf("retire of %d superseded chunks at replication 2 = %+v, want %+v", chunks, stats, want)
	}
	for _, addr := range d.DataAddrs {
		if n := net.count(addr); n > 1 {
			t.Errorf("retire made %d calls to %s, want one release batch", n, addr)
		}
	}
	if cs, err := c.CasStats(ctx, d.DataAddrs); err != nil || cs.Refs != 2*chunks || cs.Chunks != 2*chunks {
		t.Fatalf("after retire: %+v, %v; want the live version's %d refs", cs, err, 2*chunks)
	}

	// One provider dark: its share is Failed, everyone else's released.
	v2 := round(2)
	dark := d.DataAddrs[0]
	before, err := c.CasStats(ctx, d.DataAddrs[1:])
	if err != nil {
		t.Fatal(err)
	}
	net.InProc.Partition(dark)
	stats, err = c.RetireStats(ctx, blob, v2)
	net.InProc.Heal(dark)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 || stats.Failed+stats.ReleasedRefs != 2*chunks || stats.ReclaimedChunks != stats.ReleasedRefs {
		t.Fatalf("retire with %s dark = %+v, want its share failed and the other %d released", dark, stats, 2*chunks)
	}
	after, err := c.CasStats(ctx, d.DataAddrs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if before.Refs-after.Refs != uint64(stats.ReleasedRefs) {
		t.Fatalf("live providers dropped %d refs, retire reported %d", before.Refs-after.Refs, stats.ReleasedRefs)
	}
}

// TestMetadataProviderHoldsNodesWithoutHeapObjects: a metadata provider
// keeps every node of every version until a sweep — a sparse checkpoint
// publishes about a thousand — so what it costs each garbage collection must
// not grow with their number. Fifty thousand nodes may add a few hundred heap
// objects (slabs, map buckets), not one per node as a map of byte slices
// did; they read back byte-exact, and deleting them all releases the slabs.
func TestMetadataProviderHoldsNodesWithoutHeapObjects(t *testing.T) {
	const nodes, perFrame = 50_000, 1000
	mp := NewMetadataProvider()
	key := func(i int) meta.NodeKey {
		return meta.NodeKey{Blob: 1, Version: uint64(i / perFrame), Offset: uint64(i % perFrame), Span: 1}
	}
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40+i%30) }
	frames := make([][]byte, 0, nodes/perFrame)
	for start := 0; start < nodes; start += perFrame {
		w := wire.NewBuffer(perFrame * 160)
		w.PutU8(opNodePutBatch)
		w.PutUvarint(perFrame)
		for i := start; i < start+perFrame; i++ {
			putNodeKey(w, key(i))
			w.PutBytes(val(i))
		}
		frames = append(frames, w.Bytes())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, frame := range frames {
		if _, err := mp.handle(ctx, frame); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapObjects) - int64(before.HeapObjects); grown > nodes/20 {
		t.Errorf("%d stored nodes added %d heap objects for the collector to visit, want a small fraction", nodes, grown)
	}

	// Byte-exact through node-get-batch, absent keys reported absent.
	w := wire.NewBuffer(64)
	w.PutU8(opNodeGetBatch)
	w.PutUvarint(3)
	putNodeKey(w, key(0))
	putNodeKey(w, meta.NodeKey{Blob: 9})
	putNodeKey(w, key(nodes-1))
	resp, err := mp.handle(ctx, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(resp)
	if !r.Bool() || !bytes.Equal(r.Bytes(), val(0)) || r.Bool() || !r.Bool() || !bytes.Equal(r.Bytes(), val(nodes-1)) || r.Err() != nil {
		t.Fatal("node-get-batch did not return the stored nodes and the absent key as such")
	}
	// A re-put of a stored key keeps the first value (nodes are immutable).
	w = wire.NewBuffer(64)
	w.PutU8(opNodePutBatch)
	w.PutUvarint(1)
	putNodeKey(w, key(0))
	w.PutBytes([]byte("different"))
	if _, err := mp.handle(ctx, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, _ := mp.getLocked(key(0)); !bytes.Equal(got, val(0)) {
		t.Fatal("a re-put replaced a stored node")
	}

	for i := 0; i < nodes; i++ {
		w := wire.NewBuffer(40)
		w.PutU8(opNodeDelete)
		putNodeKey(w, key(i))
		if _, err := mp.handle(ctx, w.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if mp.bytes != 0 || len(mp.nodes) != 0 {
		t.Fatalf("after deleting every node: %d bytes, %d nodes", mp.bytes, len(mp.nodes))
	}
	for i, sl := range mp.slabs {
		if sl.buf != nil {
			t.Fatalf("slab %d of %d kept its buffer with no node left in it", i, len(mp.slabs))
		}
	}
}

// TestNodeGetFramesFollowResponseBytes: node-get-batch frames are split by
// the bytes expected back, not by the keys sent: a whole-region lookup of a
// large image asks for tens of thousands of ~400-byte bottom nodes, which
// must come back in responses near batchBytesLimit, not in one frame several
// times its size.
func TestNodeGetFramesFollowResponseBytes(t *testing.T) {
	const nodes = 20000
	_, c := deploy(t, 1, 1)
	c.Obs = obs.NewRegistry()
	store := c.nodeStore(obs.WithRegistry(ctx, c.Obs))
	puts := make([]meta.NodePut, nodes)
	keys := make([]meta.NodeKey, nodes)
	for i := range puts {
		keys[i] = meta.NodeKey{Blob: 1, Version: 1, Offset: uint64(i) * meta.Fanout, Span: meta.Fanout}
		puts[i] = meta.NodePut{Key: keys[i], Encoded: bytes.Repeat([]byte{byte(i)}, 400)}
	}
	if err := store.PutNodes(puts); err != nil {
		t.Fatal(err)
	}
	got, err := store.GetNodes(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range puts {
		if !bytes.Equal(got[i], p.Encoded) {
			t.Fatalf("node %d read back wrong", i)
		}
	}
	frames := c.Obs.Counter("blobseer_batch_calls_total", obs.L("op", "node-get-batch")).Value()
	if min := uint64(nodes * 400 / batchBytesLimit); frames <= min {
		t.Errorf("%d nodes of 400 bytes came back in %d node-get-batch frames, want more than %d", nodes, frames, min)
	}
}
