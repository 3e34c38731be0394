package meta

import (
	"math/rand"
	"slices"
	"testing"

	"blobcr/internal/obs"
)

// countingStore counts the GetNodes calls (round trips) and keys that reach
// the store behind a cache.
type countingStore struct {
	NodeStore
	calls, keys int
}

func (s *countingStore) GetNodes(keys []NodeKey) ([][]byte, error) {
	s.calls++
	s.keys += len(keys)
	return s.NodeStore.GetNodes(keys)
}

// over wraps inner with a cache of at most max bytes; the counters are the
// view's hits and misses.
func over(inner NodeStore, max int) (NodeStore, *NodeCache, *obs.Counter, *obs.Counter) {
	cache, hits, misses := NewNodeCache(max), new(obs.Counter), new(obs.Counter)
	return cache.Store(inner, hits, misses), cache, hits, misses
}

// TestLookupSetMatchesLookup: a scattered ascending set resolves to exactly
// the slots the per-index range lookups give — holes, indices past the span
// and all — in one descent: no more GetNodes calls than the tree is deep.
func TestLookupSetMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mem := NewMemNodeStore()
	const span = 1024
	writes := make(map[uint64]Leaf)
	for len(writes) < 300 {
		idx := uint64(rng.Intn(span - 100)) // the top of the range stays a hole
		writes[idx] = leaf(idx, 256)
	}
	root, err := (&Tree{Store: mem}).Publish(1, 0, NodeRef{}, 0, span, writes)
	if err != nil {
		t.Fatal(err)
	}
	var indices []uint64
	for idx := uint64(0); idx < span+40; idx++ {
		if rng.Intn(3) == 0 {
			indices = append(indices, idx)
		}
	}
	counted := &countingStore{NodeStore: mem}
	got, err := (&Tree{Store: counted}).LookupSet(root, span, indices)
	if err != nil {
		t.Fatal(err)
	}
	if depth := 3; counted.calls > depth { // 16-way levels over 4096 chunks
		t.Errorf("LookupSet of %d scattered indices took %d GetNodes calls, want <= tree depth %d", len(indices), counted.calls, depth)
	}
	if len(got) != len(indices) {
		t.Fatalf("%d slots for %d indices", len(got), len(indices))
	}
	for i, idx := range indices {
		want, err := (&Tree{Store: mem}).Lookup(root, span, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := writes[idx]
		if want[0].Present != ok {
			t.Fatalf("reference lookup of %d disagrees with what was published", idx)
		}
		if got[i].Index != idx || got[i].Present != ok || (ok && (got[i].Leaf.Key != w.Key || !slices.Equal(got[i].Leaf.Providers, w.Providers))) {
			t.Errorf("slot %d: got %+v, want index %d present=%v leaf %+v", i, got[i], idx, ok, w)
		}
	}
}

// TestNodeCacheServesRepeatLookups: a cold single-chunk lookup costs one
// GetNodes call per level, a lookup of its neighbour none, the second lookup
// of a range no call at all, and PutNodes writes through — the next Publish
// finds the paths of the version it extends in the cache.
func TestNodeCacheServesRepeatLookups(t *testing.T) {
	mem := NewMemNodeStore()
	root, span := publishAll(t, &Tree{Store: mem}, 1, 0, 4096) // 3 levels: 1 + 16 + 256 nodes

	counted := &countingStore{NodeStore: mem}
	store, _, hits, misses := over(counted, 1<<20)
	tr := &Tree{Store: store}
	if _, err := tr.Lookup(root, span, 77, 1); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 3 {
		t.Errorf("cold single-chunk lookup took %d calls, want one per level, 3", counted.calls)
	}
	counted.calls = 0
	if _, err := tr.Lookup(root, span, 78, 1); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 0 {
		t.Errorf("lookup of a chunk in a cached bottom node took %d calls, want 0", counted.calls)
	}
	if _, err := tr.Lookup(root, span, 0, span); err != nil {
		t.Fatal(err)
	}
	counted.calls, counted.keys = 0, 0
	h0, m0 := hits.Value(), misses.Value()
	if _, err := tr.Lookup(root, span, 0, span); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 0 || misses.Value() != m0 || hits.Value()-h0 != 273 {
		t.Errorf("repeat lookup: %d calls, %d misses, %d hits; want 0, 0, 273", counted.calls, misses.Value()-m0, hits.Value()-h0)
	}

	// Write-through: a publish through the cache leaves its nodes cached, so
	// extending that version reads nothing from the store.
	root2, err := tr.Publish(1, 1, root, span, span, map[uint64]Leaf{5: leaf(1005, 256)})
	if err != nil {
		t.Fatal(err)
	}
	counted.calls = 0
	if _, err := tr.Publish(1, 2, root2, span, span, map[uint64]Leaf{5: leaf(2005, 256)}); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 0 {
		t.Errorf("publish over a version this cache wrote took %d GetNodes calls, want 0", counted.calls)
	}
}

// TestNodeCacheBound: inserting past the byte budget — by reads or by
// writes — never exceeds it, and lookups through a thrashing cache stay
// correct.
func TestNodeCacheBound(t *testing.T) {
	mem := NewMemNodeStore()
	root, span := publishAll(t, &Tree{Store: mem}, 1, 0, 8192)
	const max = 5000 // a dozen bottom nodes
	store, cache, _, _ := over(mem, max)
	tr := &Tree{Store: store}
	for first := uint64(0); first < 8192; first += 512 {
		slots, err := tr.Lookup(root, span, first, 512)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range slots {
			if !s.Present || s.Leaf.Key.ID != first+uint64(i) {
				t.Fatalf("lookup through a full cache: slot %d of run %d = %+v", i, first, s)
			}
		}
		if n := cache.Bytes(); n > max {
			t.Fatalf("cache holds %d bytes, bound is %d", n, max)
		}
	}
	if _, err := tr.Publish(1, 1, root, span, span, map[uint64]Leaf{3: leaf(9003, 256), 4000: leaf(9400, 256)}); err != nil {
		t.Fatal(err)
	}
	if n := cache.Bytes(); n == 0 || n > max {
		t.Fatalf("after a write-through publish the cache holds %d bytes, want some and at most %d", n, max)
	}
	if store, tiny, _, _ := over(mem, 2*entryBytes+1); store.PutNodes([]NodePut{{Key: NodeKey{Blob: 9}, Encoded: []byte{1, 2}}}) != nil || tiny.Bytes() != 0 {
		t.Error("a node larger than a generation was cached")
	}
}

// TestNodeCacheKeepsWhatIsInUse: eviction is by generation, and a node that
// keeps being read is carried from one generation to the next — a stream of
// one-off nodes ten times the cache's size does not push it out.
func TestNodeCacheKeepsWhatIsInUse(t *testing.T) {
	mem := NewMemNodeStore()
	hot := NodeKey{Blob: 1, Version: 1, Offset: 0, Span: 4096}
	puts := []NodePut{{Key: hot, Encoded: []byte{1, 0}}}
	for i := uint64(0); i < 1000; i++ {
		puts = append(puts, NodePut{Key: NodeKey{Blob: 1, Version: 1, Offset: i * 16, Span: 16}, Encoded: []byte{2, byte(i)}})
	}
	if err := mem.PutNodes(puts); err != nil {
		t.Fatal(err)
	}
	counted := &countingStore{NodeStore: mem}
	const max = 100 * (2 + entryBytes) // a hundred of these nodes
	store, cache, _, _ := over(counted, max)
	for _, p := range puts[1:] {
		if _, err := store.GetNodes([]NodeKey{hot, p.Key}); err != nil {
			t.Fatal(err)
		}
	}
	if counted.keys != len(puts) {
		t.Errorf("%d keys reached the store, want %d: the hot node once, every other node once", counted.keys, len(puts))
	}
	if n := cache.Bytes(); n > max {
		t.Errorf("cache holds %d bytes, bound is %d", n, max)
	}
}

// TestNodeCacheKeyedExactly: a cached node is served for its own key only.
// After its version is garbage-collected from the store, the same position
// under another version (or blob) reads what the store has for that key —
// here nothing — never the dead version's bytes.
func TestNodeCacheKeyedExactly(t *testing.T) {
	mem := NewMemNodeStore()
	root, span := publishAll(t, &Tree{Store: mem}, 1, 4, 256)
	store, _, _, _ := over(mem, 1<<20)
	tr := &Tree{Store: store}
	if _, err := tr.Lookup(root, span, 0, span); err != nil { // caches all 17 nodes of version 4
		t.Fatal(err)
	}
	for _, k := range mem.Keys() {
		mem.Delete(k) // the sweep collects version 4
	}
	rootKey := NodeKey{Blob: 1, Version: 4, Offset: 0, Span: span}
	for _, other := range []NodeKey{
		{Blob: 1, Version: 5, Offset: 0, Span: span},
		{Blob: 2, Version: 4, Offset: 0, Span: span},
		{Blob: 1, Version: 4, Offset: 0, Span: span * Fanout},
		{Blob: 1, Version: 4, Offset: span, Span: span},
	} {
		raws, err := store.GetNodes([]NodeKey{rootKey, other})
		if err != nil {
			t.Fatal(err)
		}
		if raws[0] == nil {
			t.Fatal("the cached node stopped being served for its own key")
		}
		if raws[1] != nil {
			t.Errorf("key %+v was served a node cached under %+v", other, rootKey)
		}
	}
	if _, err := tr.Lookup(NodeRef{Blob: 1, Version: 5, Valid: true}, span, 0, 1); err == nil {
		t.Error("lookup of a version that does not exist succeeded out of the cache")
	}
}

// BenchmarkLookupCached is a demand fault's metadata cost once the tree is
// cached: one leaf of a 16384-leaf tree resolved through the NodeCache, no
// store access.
func BenchmarkLookupCached(b *testing.B) {
	const span = 16384
	mem := NewMemNodeStore()
	writes := make(map[uint64]Leaf, span)
	for i := uint64(0); i < span; i++ {
		writes[i] = leaf(i, 16<<10)
	}
	root, err := (&Tree{Store: mem}).Publish(1, 0, NodeRef{}, 0, span, writes)
	if err != nil {
		b.Fatal(err)
	}
	store, _, _, _ := over(mem, 8<<20)
	tr := &Tree{Store: store}
	if _, err := tr.Lookup(root, span, 0, span); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots, err := tr.Lookup(root, span, uint64(rng.Intn(span)), 1)
		if err != nil || !slots[0].Present {
			b.Fatalf("lookup: %v %+v", err, slots)
		}
	}
}
