package mirror

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// sparseImage commits three random sparse versions of a blob — holes, a
// short tail chunk, replication 2 — and returns the last one with the bytes
// it must read back as.
func sparseImage(t *testing.T, d *blobseer.Deployment, rng *rand.Rand, chunk, chunks int) (blobseer.SnapshotRef, []byte) {
	t.Helper()
	c := d.Client()
	c.Replication = 2
	blob, err := c.CreateBlob(ctx, uint64(chunk))
	if err != nil {
		t.Fatal(err)
	}
	size := chunks*chunk - chunk/3
	shadow := make([]byte, size)
	var ref blobseer.SnapshotRef
	for v, density := range []int{70, 20, 10} { // percent of chunks each version writes
		writes := make(map[uint64][]byte)
		for idx := 0; idx < chunks; idx++ {
			if idx != chunks-1 && rng.Intn(100) >= density {
				continue // the tail chunk is written every time; the rest is sparse
			}
			body := shadow[idx*chunk : min((idx+1)*chunk, size)]
			rng.Read(body)
			writes[uint64(idx)] = bytes.Clone(body)
		}
		info, err := c.WriteVersion(ctx, blob, writes, uint64(size))
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		ref = blobseer.SnapshotRef{Blob: blob, Version: info.Version}
	}
	return ref, shadow
}

// damageReplicas rots one replica of about an eighth of the image's chunks
// in place and deletes one replica of another eighth, and returns how many
// of each. The other replica of every chunk stays good.
func damageReplicas(t *testing.T, d *blobseer.Deployment, rng *rand.Rand, shadow []byte, chunk int) (rotted, deleted int) {
	t.Helper()
	stores := d.DataProviderStores()
	for off := 0; off < len(shadow); off += chunk {
		body := shadow[off:min(off+chunk, len(shadow))]
		key := cas.Sum(body).Key()
		what := rng.Intn(8)
		if what > 1 {
			continue
		}
		for _, s := range stores {
			if !s.Has(key) {
				continue // a hole's zeros are stored nowhere
			}
			if what == 0 {
				stored, err := s.Get(key) // the in-memory engine hands back the live slice
				if err != nil {
					t.Fatal(err)
				}
				stored[len(stored)/2] ^= 0xFF
				rotted++
			} else {
				if err := s.Delete(key); err != nil {
					t.Fatal(err)
				}
				deleted++
			}
			break
		}
	}
	return rotted, deleted
}

// TestReadPathsAgreeWithPerChunkReference is the equivalence property of the
// one read engine: over a random sparse image with damaged replicas, a
// whole-range ReadVersion, unaligned sub-range reads, a Prefetch followed by
// ReadAt, and plain demand-faulting ReadAts all return the bytes a naive
// one-chunk-at-a-time reader returns, and the whole-range read fails over
// exactly as often as the per-chunk reads do together — batching, striping
// and frame sharing change how bodies travel, never what arrives or how it
// is accounted. The image is large enough that every provider's share of a
// whole-image read spans more than one 4 MiB frame.
func TestReadPathsAgreeWithPerChunkReference(t *testing.T) {
	const chunk, chunks = 16 << 10, 1600
	for _, kind := range []string{"InProc", "TCP"} {
		t.Run(kind, func(t *testing.T) {
			var net transport.Network = transport.NewInProc()
			if kind == "TCP" {
				tcp := transport.NewTCP()
				t.Cleanup(func() { tcp.Close() })
				net = tcp
			}
			d, err := blobseer.Deploy(net, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			rng := rand.New(rand.NewSource(19))
			ref, shadow := sparseImage(t, d, rng, chunk, chunks)
			rotted, deleted := damageReplicas(t, d, rng, shadow, chunk)
			if rotted < 50 || deleted < 50 {
				t.Fatalf("scenario too tame: %d replicas rotted, %d deleted", rotted, deleted)
			}
			size := uint64(len(shadow))

			// The reference: one ReadVersion per chunk.
			ref1 := d.Client()
			var perChunk blobseer.ReadStats
			for off := uint64(0); off < size; off += chunk {
				got, st, err := ref1.ReadVersionStats(ctx, ref, off, chunk)
				if err != nil {
					t.Fatalf("reference read at %d: %v", off, err)
				}
				if !bytes.Equal(got, shadow[off:min(off+chunk, size)]) {
					t.Fatalf("reference read at %d differs from what was written", off)
				}
				perChunk.Add(st)
			}
			if perChunk.CorruptReplicas == 0 || perChunk.FailedOver <= perChunk.CorruptReplicas || perChunk.RankedFallbacks != 0 {
				t.Fatalf("reference reads met no damage worth the name: %+v", perChunk)
			}

			// One engine call for the whole image, through a cold client.
			whole, st, err := d.Client().ReadVersionStats(ctx, ref, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(whole, shadow) {
				t.Error("whole-image ReadVersion differs from the per-chunk reference")
			}
			if st != perChunk {
				t.Errorf("whole-image read stats %+v, per-chunk reads together %+v", st, perChunk)
			}

			// Ranges that start and end inside chunks and run past the end.
			c := d.Client()
			for i := 0; i < 40; i++ {
				off := uint64(rng.Int63n(int64(size)))
				n := uint64(rng.Intn(5*chunk) + 1)
				got, err := c.ReadVersion(ctx, ref, off, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, shadow[off:min(off+n, size)]) {
					t.Errorf("ReadVersion(%d, %d) differs from the reference", off, n)
				}
			}

			// Prefetch the whole device in a shuffled order, then read it.
			reg := obs.NewRegistry()
			pc := d.Client()
			pc.Obs = reg
			m, err := Attach(ctx, pc, ref)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]uint64, chunks)
			for i, p := range rng.Perm(chunks) {
				order[i] = uint64(p)
			}
			if err := m.Prefetch(ctx, order); err != nil {
				t.Fatal(err)
			}
			got := bytes.Repeat([]byte{0xEE}, int(size)) // stale bytes the image's holes must overwrite
			if n, err := m.ReadAt(got, 0); err != nil || n != len(got) {
				t.Fatalf("ReadAt after Prefetch: %d, %v", n, err)
			}
			if !bytes.Equal(got, shadow) {
				t.Error("Prefetch + ReadAt differs from the per-chunk reference")
			}
			if remote, _, _ := m.Stats(); remote != chunks {
				t.Errorf("prefetch counted %d remote chunk reads, want %d", remote, chunks)
			}
			for name, want := range map[string]int{
				"blobseer_read_chunks_total":           perChunk.Chunks,
				"blobseer_read_failovers_total":        perChunk.FailedOver,
				"blobseer_read_corrupt_replicas_total": perChunk.CorruptReplicas,
				"blobseer_read_ranked_fallbacks_total": perChunk.RankedFallbacks,
			} {
				if got := reg.Counter(name).Value(); got != uint64(want) {
					t.Errorf("prefetch: %s = %d, want %d", name, got, want)
				}
			}

			// Demand faults alone: multi-chunk reads at odd offsets.
			fm, err := Attach(ctx, d.Client(), ref)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				off := rng.Int63n(int64(size))
				buf := bytes.Repeat([]byte{0xEE}, int(min(int64(rng.Intn(9*chunk)+1), int64(size)-off)))
				if _, err := fm.ReadAt(buf, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, shadow[off:off+int64(len(buf))]) {
					t.Errorf("faulting ReadAt(%d bytes at %d) differs from the reference", len(buf), off)
				}
			}
		})
	}
}

// verbNet counts calls by verb.
type verbNet struct {
	transport.Network
	mu     sync.Mutex
	counts map[string]int
}

func (n *verbNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	n.mu.Lock()
	n.counts[transport.VerbName(req)]++
	n.mu.Unlock()
	return n.Network.Call(ctx, addr, req)
}

// take returns the counts since the last take.
func (n *verbNet) take() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.counts
	n.counts = make(map[string]int)
	return out
}

// TestRestartRoundTripBudget pins what an attached snapshot costs on the
// wire. The image's tree is 4 levels deep (16-way over 8192 chunks, which
// the tree covers as 16^4). A cold Attach — the image has no boot-set hint
// yet — reads no tree node at all. After that, N scattered single-chunk
// reads issue no version-manager call but the publishes of their demand
// record, at most one chunk call each, and one node call for each node on
// their paths, each fetched once. The next Attach replays that record: one
// hint-get, one descent for the whole set — one node call per level and
// metadata shard — and one chunk call per provider, after which the same N
// reads go to the network not at all: zero demand faults. A Prefetch of the
// whole region resolves all 8192 leaves with one descent, no more node calls
// than levels times metadata shards.
func TestRestartRoundTripBudget(t *testing.T) {
	const chunk, chunks, levels = 64, 8192, 4
	net := &verbNet{Network: transport.NewInProc(), counts: make(map[string]int)}
	d, err := blobseer.Deploy(net, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	w := d.Client()
	blob, err := w.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	content := make([]byte, chunks*chunk)
	rng.Read(content)
	writes := make(map[uint64][]byte, chunks)
	for i := 0; i < chunks; i++ {
		writes[uint64(i)] = content[i*chunk : (i+1)*chunk]
	}
	info, err := w.WriteVersion(ctx, blob, writes, uint64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	ref := blobseer.SnapshotRef{Blob: blob, Version: info.Version}

	// A cold client per module, as cloud.Restart hands out.
	net.take()
	m, err := Attach(ctx, d.Client(), ref)
	if err != nil {
		t.Fatal(err)
	}
	attach := net.take()
	if attach["get-version"] != 1 || attach["hint-get"] != 1 || attach["get-version"]+attach["hint-get"] != total(attach) {
		t.Errorf("cold Attach: %v; want one get-version, one hint-get and nothing else", attach)
	}
	const n = 50
	boot := make([]int, n)
	record := make([]uint64, n)
	paths := make(map[[2]int]bool) // (level, node) pairs on the boot set's paths
	for i := range boot {
		boot[i] = (i*163 + 7) % chunks
		record[i] = uint64(boot[i])
		for level, span := 0, 16; level < levels; level, span = level+1, span*16 {
			paths[[2]int{level, boot[i] / span}] = true
		}
	}
	readChunks(t, m, content, chunk, boot...)
	waitHint(t, w, blob, record)
	faults := net.take()
	if faults["get-version"] != 0 || faults["chunk-get-batch"] > n || faults["node-get-batch"] > len(paths) ||
		faults["hint-put"] < 1 || faults["hint-put"] > n ||
		faults["chunk-get-batch"]+faults["node-get-batch"]+faults["hint-put"]+faults["hint-get"] != total(faults) {
		t.Errorf("%d single-chunk faults: %v; want no get-version, <= %d chunk calls, <= %d node calls, 1..%d hint-puts, nothing else",
			n, faults, n, len(paths), n)
	}

	hc, reg := counting(d)
	hm, err := Attach(ctx, hc, ref)
	if err != nil {
		t.Fatal(err)
	}
	hinted := net.take()
	if hinted["get-version"] != 1 || hinted["hint-get"] != 1 ||
		hinted["node-get-batch"] > levels*len(d.MetaAddrs) || hinted["chunk-get-batch"] > len(d.DataAddrs) ||
		hinted["get-version"]+hinted["hint-get"]+hinted["node-get-batch"]+hinted["chunk-get-batch"] != total(hinted) {
		t.Errorf("hinted Attach: %v; want one get-version, one hint-get, <= %d node calls, <= %d chunk calls",
			hinted, levels*len(d.MetaAddrs), len(d.DataAddrs))
	}
	readChunks(t, hm, content, chunk, boot...)
	if after := net.take(); total(after) != 0 {
		t.Errorf("reading the replayed boot set went to the network: %v", after)
	}
	if f := reg.Counter("mirror_demand_faults_total").Value(); f != 0 {
		t.Errorf("hinted attach: %d demand faults, want 0", f)
	}

	pm, err := Attach(ctx, d.Client(), ref)
	if err != nil {
		t.Fatal(err)
	}
	net.take()
	all := make([]uint64, chunks)
	for i := range all {
		all[i] = uint64(i)
	}
	if err := pm.Prefetch(ctx, all); err != nil {
		t.Fatal(err)
	}
	prefetch := net.take()
	if prefetch["get-version"] != 0 || prefetch["node-get-batch"] > levels*len(d.MetaAddrs) {
		t.Errorf("whole-region Prefetch: %v; want no get-version and <= %d node calls", prefetch, levels*len(d.MetaAddrs))
	}
	got := make([]byte, len(content))
	if _, err := pm.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("prefetched region read back wrong")
	}
	if after := net.take(); total(after) != 0 {
		t.Errorf("reading a prefetched region went to the network: %v", after)
	}
}

func total(counts map[string]int) int {
	sum := 0
	for _, c := range counts {
		sum += c
	}
	return sum
}

// TestSharedFramesStayDisjoint races everything that touches the mirror's
// chunk map — Prefetch installing windows of shared response frames, guest
// writes of whole chunks and of chunk tails and heads, asynchronous commits
// capturing them, a rollback cutting a prefetch short — and then checks
// bytes: no write reached a neighbouring chunk through the frame they share,
// every commit published exactly the guest's view, and the rolled-back
// device reads as the snapshot it went back to. Run it with -race.
func TestSharedFramesStayDisjoint(t *testing.T) {
	const chunk, chunks = 4 << 10, 96 // 24 chunks per provider, one frame each
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	rng := rand.New(rand.NewSource(11))
	w := d.Client()
	blob, err := w.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]byte, chunks*chunk)
	rng.Read(base)
	info, err := w.WriteAt(ctx, blob, 0, base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, d.Client(), blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	all := make([]uint64, chunks)
	for i := range all {
		all[i] = uint64(i)
	}

	// model is what the guest must see; guestWrite keeps it in step. Chunk
	// i is written whole when i%4 == 1, across the boundary into chunk i+1
	// when i%4 == 2 (the tail of one window, the head of the next), and
	// chunks with i%4 == 0 are never written: their bytes must stay the
	// base image's, whatever happens next door.
	model := bytes.Clone(base)
	guestWrite := func(round byte) {
		for i := 0; i < chunks; i++ {
			var p []byte
			var off int
			switch i % 4 {
			case 1:
				p, off = bytes.Repeat([]byte{round, byte(i)}, chunk/2), i*chunk
			case 2:
				p, off = bytes.Repeat([]byte{byte(i), round}, 300), (i+1)*chunk-300
			default:
				continue
			}
			if _, err := m.WriteAt(p, int64(off)); err != nil {
				t.Error(err)
				return
			}
			copy(model[off:], p)
		}
	}
	readBack := func(what string, snap blobseer.SnapshotRef, want []byte) {
		t.Helper()
		got, err := d.Client().ReadVersion(ctx, snap, 0, uint64(len(want)))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: published content differs from the guest's view", what)
		}
	}

	var commits []*PendingCommit
	var models [][]byte
	for round := byte(1); round <= 3; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); guestWrite(round) }()
		go func() {
			defer wg.Done()
			if err := m.Prefetch(ctx, all); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		view := make([]byte, len(model))
		if _, err := m.ReadAt(view, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, model) {
			t.Fatalf("round %d: the device differs from the model after racing writes and prefetch", round)
		}
		pc, err := m.CommitAsync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		commits, models = append(commits, pc), append(models, bytes.Clone(model))
		// The commit publishes in the background while the next round's
		// writes land in the chunks it captured.
	}
	var refs []blobseer.SnapshotRef
	for i, pc := range commits {
		snap, err := pc.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, snap)
		readBack("commit "+string(rune('1'+i)), snap, models[i])
	}

	// Roll back to the first commit while a prefetch of the chunks the
	// rollback just dropped is in flight, again and again: whichever side
	// wins, the device must read as that snapshot.
	for i := 0; i < 20; i++ {
		guestWrite(byte(100 + i))
		target := i % len(refs)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := m.Prefetch(ctx, all); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := m.RollbackTo(ctx, refs[target]); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if err := m.Prefetch(ctx, all); err != nil {
			t.Fatal(err)
		}
		view := make([]byte, len(model))
		if _, err := m.ReadAt(view, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, models[target]) {
			t.Fatalf("rollback %d: the device differs from snapshot %v", i, refs[target])
		}
		copy(model, models[target])
	}
}

// TestHolesTakeNoMemoryUntilWritten pins how the mirror keeps a never-written
// chunk: as a known hole that reads as zeros and has no body — a restart of a
// mostly empty disk must not allocate (and zero, and fault in) the disk's
// size — until the guest writes to it, at which point it becomes an ordinary
// chunk: a partial write lands on zeros, a commit publishes it exactly, and a
// rollback makes it a hole again.
func TestHolesTakeNoMemoryUntilWritten(t *testing.T) {
	const chunk, chunks = 16 << 10, 1024
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	size := chunks*chunk - chunk/3 // the short tail chunk is a hole too
	shadow := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	writes := make(map[uint64][]byte)
	for _, idx := range []int{3, 4, 500, chunks - 2} {
		rng.Read(shadow[idx*chunk : (idx+1)*chunk])
		writes[uint64(idx)] = bytes.Clone(shadow[idx*chunk : (idx+1)*chunk])
	}
	info, err := c.WriteVersion(ctx, blob, writes, uint64(size))
	if err != nil {
		t.Fatal(err)
	}
	src := blobseer.SnapshotRef{Blob: blob, Version: info.Version}
	m, err := Attach(ctx, d.Client(), src)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint64, chunks)
	for i := range all {
		all[i] = uint64(i)
	}
	got := bytes.Repeat([]byte{0xEE}, size) // stale bytes a hole must overwrite
	check := func(what string) {
		t.Helper()
		if n, err := m.ReadAt(got, 0); err != nil || n != size {
			t.Fatalf("%s: ReadAt: %d, %v", what, n, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("%s: device differs from the shadow", what)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Prefetch(ctx, all); err != nil {
		t.Fatal(err)
	}
	check("after prefetch")
	runtime.ReadMemStats(&after)
	if remote, _, _ := m.Stats(); remote != chunks {
		t.Errorf("prefetch counted %d chunks, want %d (a hole is fetched knowledge too)", remote, chunks)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(size)/4 {
		t.Errorf("restoring %d stored chunks of a %d MiB disk allocated %d KiB: holes are being given bodies",
			len(writes), size>>20, grew>>10)
	}

	// Writes into holes: inside one, across two, a whole chunk, the tail.
	for _, w := range []struct{ off, n int }{
		{10*chunk + 100, 50},
		{20*chunk - 7, 14},
		{30 * chunk, chunk},
		{size - 5, 5},
		{4*chunk - 9, 18}, // a stored chunk next to a hole
	} {
		rng.Read(shadow[w.off : w.off+w.n])
		if _, err := m.WriteAt(shadow[w.off:w.off+w.n], int64(w.off)); err != nil {
			t.Fatal(err)
		}
	}
	check("after writes into holes")
	if dirty := m.DirtyChunks(); dirty != 7 {
		t.Errorf("%d dirty chunks, want 7", dirty)
	}
	if err := m.Clone(ctx); err != nil {
		t.Fatal(err)
	}
	ci, err := m.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.CheckpointImage()
	committed, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: ckpt, Version: ci.Version}, 0, uint64(size))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, shadow) {
		t.Error("committed snapshot differs from the shadow")
	}

	// Back to the source: the written chunks are holes (or their old bodies) again.
	if err := m.RollbackTo(ctx, src); err != nil {
		t.Fatal(err)
	}
	clear(shadow)
	for idx, body := range writes {
		copy(shadow[int(idx)*chunk:], body)
	}
	check("after rollback")
}
