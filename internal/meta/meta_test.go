package meta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blobcr/internal/chunkstore"
)

func leaf(id uint64, size uint32) Leaf {
	return Leaf{
		Providers: []string{fmt.Sprintf("provider-%d", id%3)},
		Key:       chunkstore.Key{Blob: 1, ID: id},
		Size:      size,
	}
}

func newTree() (*Tree, *MemNodeStore) {
	s := NewMemNodeStore()
	return &Tree{Store: s}, s
}

// fanouts are the widths the property tests run at: 2 is the paper's binary
// tree, 16 the shipped one, 64 the widest a presence mask allows.
var fanouts = []uint64{2, Fanout, 64}

// publishAll publishes a full initial version with count chunks.
func publishAll(t *testing.T, tr *Tree, blob, version, count uint64) (NodeRef, uint64) {
	t.Helper()
	writes := make(map[uint64]Leaf, count)
	for i := uint64(0); i < count; i++ {
		writes[i] = leaf(i, 256)
	}
	span := NextPow2(count)
	root, err := tr.Publish(blob, version, NodeRef{}, 0, span, writes)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return root, span
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPublishAndLookup(t *testing.T) {
	tr, _ := newTree()
	root, span := publishAll(t, tr, 1, 0, 8)
	slots, err := tr.Lookup(root, span, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 8 {
		t.Fatalf("got %d slots, want 8", len(slots))
	}
	for i, s := range slots {
		if !s.Present {
			t.Errorf("slot %d is a hole", i)
			continue
		}
		if s.Leaf.Key.ID != uint64(i) {
			t.Errorf("slot %d -> chunk %d", i, s.Leaf.Key.ID)
		}
		if s.Index != uint64(i) {
			t.Errorf("slot %d has index %d", i, s.Index)
		}
	}
}

func TestSparseInitialVersion(t *testing.T) {
	tr, _ := newTree()
	writes := map[uint64]Leaf{2: leaf(2, 100), 5: leaf(5, 100)}
	root, err := tr.Publish(1, 0, NodeRef{}, 0, 8, writes)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := tr.Lookup(root, 8, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		wantPresent := s.Index == 2 || s.Index == 5
		if s.Present != wantPresent {
			t.Errorf("index %d present=%v, want %v", s.Index, s.Present, wantPresent)
		}
	}
}

func TestIncrementalVersionShadowing(t *testing.T) {
	tr, store := newTree()
	root0, span := publishAll(t, tr, 1, 0, 256)
	nodesAfterV0 := store.Len()

	// Version 1 rewrites only chunk 3.
	writes := map[uint64]Leaf{3: leaf(1000, 256)}
	root1, err := tr.Publish(1, 1, root0, span, span, writes)
	if err != nil {
		t.Fatal(err)
	}
	// Only the path to chunk 3 is new: its bottom node and the root.
	if newNodes := store.Len() - nodesAfterV0; newNodes != 2 {
		t.Errorf("incremental publish created %d nodes, want 2", newNodes)
	}
	// New version sees the new chunk, old version still sees the old one.
	s1, err := tr.Lookup(root1, span, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1[0].Leaf.Key.ID != 1000 {
		t.Errorf("v1 chunk 3 = %d, want 1000", s1[0].Leaf.Key.ID)
	}
	s0, err := tr.Lookup(root0, span, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s0[0].Leaf.Key.ID != 3 {
		t.Errorf("v0 chunk 3 = %d, want 3 (shadowing broken)", s0[0].Leaf.Key.ID)
	}
	// Untouched chunks of v1 — beside chunk 3 in its bottom node, and in
	// the subtrees v1 shares with v0 — are v0's.
	for _, idx := range []uint64{0, 1, 15, 16, 255} {
		a, _ := tr.Lookup(root0, span, idx, 1)
		b, _ := tr.Lookup(root1, span, idx, 1)
		if a[0].Leaf.Key != b[0].Leaf.Key {
			t.Errorf("chunk %d differs between versions: %v vs %v", idx, a[0].Leaf.Key, b[0].Leaf.Key)
		}
	}
}

func TestEmptyCommitSharesRoot(t *testing.T) {
	tr, _ := newTree()
	root0, span := publishAll(t, tr, 1, 0, 4)
	root1, err := tr.Publish(1, 1, root0, span, span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root1 != root0 {
		t.Errorf("empty commit produced new root %+v", root1)
	}
}

func TestTreeGrowth(t *testing.T) {
	for _, f := range fanouts {
		t.Run(fmt.Sprintf("F=%d", f), func(t *testing.T) {
			tr := &Tree{Store: NewMemNodeStore(), fanout: f}
			root0, span0 := publishAll(t, tr, 1, 0, 4) // span 4
			// Version 1 writes chunks 9 and 3000, forcing span 4096: the old
			// root ends up some levels down the new tree's leftmost spine.
			writes := map[uint64]Leaf{9: leaf(9, 256), 3000: leaf(3000, 256)}
			span1 := NextPow2(3001)
			root1, err := tr.Publish(1, 1, root0, span0, span1, writes)
			if err != nil {
				t.Fatal(err)
			}
			// Old chunks still reachable through the grown tree.
			slots, err := tr.Lookup(root1, span1, 0, span1)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range slots {
				switch {
				case s.Index < 4:
					if !s.Present || s.Leaf.Key.ID != s.Index {
						t.Errorf("grown tree lost old chunk %d", s.Index)
					}
				case s.Index == 9 || s.Index == 3000:
					if !s.Present {
						t.Errorf("grown tree missing new chunk %d", s.Index)
					}
				default:
					if s.Present {
						t.Errorf("index %d unexpectedly present", s.Index)
					}
				}
			}
		})
	}
}

func TestGrowthWithoutWrites(t *testing.T) {
	for _, f := range fanouts {
		t.Run(fmt.Sprintf("F=%d", f), func(t *testing.T) {
			tr := &Tree{Store: NewMemNodeStore(), fanout: f}
			root0, span0 := publishAll(t, tr, 1, 0, 4)
			for v, span := range []uint64{16, 1 << 14} {
				root1, err := tr.Publish(1, uint64(v+1), root0, span0, span, nil)
				if err != nil {
					t.Fatal(err)
				}
				slots, err := tr.Lookup(root1, span, 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range slots {
					if s.Present != (s.Index < 4) {
						t.Errorf("span %d: chunk %d present=%v after growing without writes", span, s.Index, s.Present)
					}
				}
			}
		})
	}
}

func TestCloneSharesContent(t *testing.T) {
	tr, store := newTree()
	root0, span := publishAll(t, tr, 1, 0, 256)
	nodesBefore := store.Len()

	// Clone: blob 2's first version root is simply blob 1's root.
	cloneRoot := root0

	// Writes to the clone create nodes under blob 2 only: one path.
	writes := map[uint64]Leaf{0: {Providers: []string{"p"}, Key: chunkstore.Key{Blob: 2, ID: 500}, Size: 256}}
	root2, err := tr.Publish(2, 1, cloneRoot, span, span, writes)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len()-nodesBefore != 2 {
		t.Errorf("clone write created %d nodes, want 2", store.Len()-nodesBefore)
	}
	for _, k := range store.Keys() {
		if k.Version == 1 && k.Blob != 2 {
			t.Errorf("clone write created node %+v outside its blob", k)
		}
	}
	// Clone sees its own write plus the origin's data.
	s, err := tr.Lookup(root2, span, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Leaf.Key.ID != 500 {
		t.Errorf("clone chunk 0 = %d, want 500", s[0].Leaf.Key.ID)
	}
	if s[1].Leaf.Key.ID != 1 || s[19].Leaf.Key.ID != 19 {
		t.Errorf("clone chunks 1, 19 = %d, %d, want 1, 19 (sharing broken)", s[1].Leaf.Key.ID, s[19].Leaf.Key.ID)
	}
	// Origin unaffected.
	s0, err := tr.Lookup(root0, span, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s0[0].Leaf.Key.ID != 0 {
		t.Errorf("origin chunk 0 = %d, want 0", s0[0].Leaf.Key.ID)
	}
}

func TestLookupBeyondSpanReturnsHoles(t *testing.T) {
	tr, _ := newTree()
	root, span := publishAll(t, tr, 1, 0, 4)
	slots, err := tr.Lookup(root, span, 2, 6) // indices 2..7, span is 4
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 6 {
		t.Fatalf("got %d slots, want 6", len(slots))
	}
	for _, s := range slots {
		if s.Index >= 4 && s.Present {
			t.Errorf("index %d beyond span reported present", s.Index)
		}
	}
}

func TestPublishValidation(t *testing.T) {
	tr, _ := newTree()
	if _, err := tr.Publish(1, 0, NodeRef{}, 8, 4, nil); err == nil {
		t.Error("shrinking span accepted")
	}
	if _, err := tr.Publish(1, 0, NodeRef{}, 0, 3, nil); err == nil {
		t.Error("non-power-of-two span accepted")
	}
	if _, err := tr.Publish(1, 0, NodeRef{}, 0, 4, map[uint64]Leaf{7: leaf(7, 1)}); err == nil {
		t.Error("out-of-span write accepted")
	}
	if _, err := tr.Publish(1, 0, NodeRef{}, 0, 1<<63, map[uint64]Leaf{7: leaf(7, 1)}); err == nil {
		t.Error("span past what a 16-way tree covers accepted")
	}
}

func TestWalkVisitsAllReachable(t *testing.T) {
	tr, store := newTree()
	root, span := publishAll(t, tr, 1, 0, 256)
	var leaves, nodes int
	err := tr.Walk(root, span, func(k NodeKey, isLeaf bool, l Leaf) error {
		if isLeaf {
			if l.Key.ID < k.Offset || l.Key.ID >= k.Offset+k.Span {
				t.Errorf("chunk %d reported under node %+v", l.Key.ID, k)
			}
			leaves++
		} else {
			nodes++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 256 {
		t.Errorf("walk saw %d leaves, want 256", leaves)
	}
	if nodes != 17 || nodes != store.Len() { // a root over 16 bottom nodes
		t.Errorf("walk saw %d nodes, want 17, all %d stored", nodes, store.Len())
	}
}

func TestWalkDeduplicatesSharedSubtrees(t *testing.T) {
	tr, _ := newTree()
	root0, span := publishAll(t, tr, 1, 0, 256)
	root1, err := tr.Publish(1, 1, root0, span, span, map[uint64]Leaf{0: leaf(99, 1)})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[NodeKey]int)
	if err := tr.Walk(root1, span, func(k NodeKey, isLeaf bool, _ Leaf) error {
		if !isLeaf {
			seen[k]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// v1 tree: its own root and bottom node 0, and v0's other 15 bottom
	// nodes, each visited once.
	if len(seen) != 17 {
		t.Errorf("walk visited %d nodes, want 17", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("node %+v visited %d times", k, n)
		}
	}
}

func TestManyVersionsRandomized(t *testing.T) {
	// Property: after a random sequence of versions, each version observes
	// exactly the chunks most recently written at or before it.
	tr, _ := newTree()
	rng := rand.New(rand.NewSource(42))
	const span = 32
	type versionState struct {
		root NodeRef
		view map[uint64]uint64 // chunk index -> chunk ID
	}
	var history []versionState
	cur := make(map[uint64]uint64)
	root := NodeRef{}
	var nextID uint64 = 1000

	for v := uint64(0); v < 20; v++ {
		writes := make(map[uint64]Leaf)
		for n := rng.Intn(6) + 1; n > 0; n-- {
			idx := uint64(rng.Intn(span))
			nextID++
			writes[idx] = leaf(nextID, 256)
			cur[idx] = nextID
		}
		var err error
		root, err = tr.Publish(1, v, root, span, span, writes)
		if err != nil {
			t.Fatal(err)
		}
		view := make(map[uint64]uint64, len(cur))
		for k, val := range cur {
			view[k] = val
		}
		history = append(history, versionState{root: root, view: view})
	}
	for v, st := range history {
		slots, err := tr.Lookup(st.root, span, 0, span)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range slots {
			wantID, wantPresent := st.view[s.Index]
			if s.Present != wantPresent {
				t.Errorf("v%d idx %d present=%v want %v", v, s.Index, s.Present, wantPresent)
				continue
			}
			if s.Present && s.Leaf.Key.ID != wantID {
				t.Errorf("v%d idx %d = chunk %d, want %d", v, s.Index, s.Leaf.Key.ID, wantID)
			}
		}
	}
}

// TestTreeMatchesFlatReference is the property test of Publish, LookupSet
// and Walk against a flat map per version, at every fanout: random versions
// that grow the span, clone a clone, publish from an older root (a
// rollback), leave holes and write over them, looked up over index sets that
// run past the span.
func TestTreeMatchesFlatReference(t *testing.T) {
	for _, f := range fanouts {
		t.Run(fmt.Sprintf("F=%d", f), func(t *testing.T) {
			store := NewMemNodeStore()
			tr := &Tree{Store: store, fanout: f}
			rng := rand.New(rand.NewSource(int64(f)))
			type version struct {
				blob uint64
				root NodeRef
				span uint64
				ref  map[uint64]Leaf
			}
			versions := []version{{blob: 1, span: 1, ref: map[uint64]Leaf{}}}
			next := map[uint64]uint64{1: 0} // next version number per blob
			addrs := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
			for step := 0; step < 80; step++ {
				base := versions[len(versions)-1]
				blob := base.blob
				switch r := rng.Intn(10); {
				case r < 2 && len(versions) > 1: // rollback: extend an older version of the blob
					for i := rng.Intn(len(versions)); ; i = (i + 1) % len(versions) {
						if versions[i].blob == blob {
							base = versions[i]
							break
						}
					}
				case r < 3: // clone any version, clones of clones included
					base = versions[rng.Intn(len(versions))]
					blob = uint64(len(next) + 1)
				}
				span := base.span
				if span < 1<<13 && rng.Intn(4) == 0 {
					span <<= 1 + rng.Intn(4)
				}
				writes := make(map[uint64]Leaf)
				for n := rng.Intn(24); n > 0; n-- {
					idx := uint64(rng.Int63n(int64(span)))
					provs := make([]string, rng.Intn(3))
					for i := range provs {
						provs[i] = addrs[rng.Intn(len(addrs))]
					}
					if len(provs) == 0 {
						provs = nil
					}
					writes[idx] = Leaf{Providers: provs, Key: chunkstore.Key{Blob: blob, ID: rng.Uint64()}, Size: uint32(rng.Intn(1 << 20))}
				}
				v := next[blob]
				next[blob] = v + 1
				root, err := tr.Publish(blob, v, base.root, base.span, span, writes)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				ref := make(map[uint64]Leaf, len(base.ref)+len(writes))
				for k, l := range base.ref {
					ref[k] = l
				}
				for k, l := range writes {
					ref[k] = l
				}
				versions = append(versions, version{blob: blob, root: root, span: span, ref: ref})
				// The new version, and one picked at random: publishing
				// never changes what an existing version reads.
				for _, vv := range []version{versions[len(versions)-1], versions[rng.Intn(len(versions))]} {
					var indices []uint64
					for idx := uint64(0); idx < 2*vv.span+5; idx++ {
						if rng.Intn(int(vv.span/64)+2) == 0 {
							indices = append(indices, idx)
						}
					}
					slots, err := tr.LookupSet(vv.root, vv.span, indices)
					if err != nil {
						t.Fatalf("step %d: lookup: %v", step, err)
					}
					for i, s := range slots {
						want, ok := vv.ref[indices[i]]
						if s.Index != indices[i] || s.Present != ok || (ok && !sameLeaf(s.Leaf, want)) {
							t.Fatalf("step %d: blob %d span %d index %d: got %+v, want present=%v %+v", step, vv.blob, vv.span, indices[i], s, ok, want)
						}
					}
				}
			}
			// Walk reports exactly the descriptors the reference holds, and
			// only nodes the store has.
			stored := make(map[NodeKey]bool)
			for _, k := range store.Keys() {
				stored[k] = true
			}
			for i, vv := range versions {
				got := make(map[uint64]Leaf)
				err := tr.Walk(vv.root, vv.span, func(k NodeKey, isLeaf bool, l Leaf) error {
					if !stored[k] {
						t.Errorf("version %d: walk reported %+v, which is not stored", i, k)
					}
					if isLeaf {
						got[l.Key.ID] = l
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(vv.ref) {
					t.Errorf("version %d: walk saw %d descriptors, want %d", i, len(got), len(vv.ref))
				}
				for _, l := range vv.ref {
					if !sameLeaf(got[l.Key.ID], l) {
						t.Errorf("version %d: walk missed %+v", i, l)
					}
				}
			}
		})
	}
}

func sameLeaf(a, b Leaf) bool {
	return a.Key == b.Key && a.Size == b.Size && slices.Equal(a.Providers, b.Providers)
}

// TestPublishAllocBudget: a 128-chunk scattered commit over a 16 384-chunk
// tree — the benchmark probe's shape, writes generated inside the loop as
// the probe does — allocates at most 8 times per chunk. Decoding a bottom
// node takes a fixed number of allocations, not some per descriptor.
func TestPublishAllocBudget(t *testing.T) {
	const span, leaves, budget = 16384, 128, 8
	publish := sparsePublisher(t, span, leaves)
	for i := 0; i < 20; i++ { // let the tree fill: later commits extend full paths
		publish()
	}
	if per := testing.AllocsPerRun(50, publish) / leaves; per > budget {
		t.Errorf("publish made %.1f allocations per chunk written, budget %d", per, budget)
	}
}

// sparsePublisher returns a function that publishes one more version of a
// span-chunk tree writing leaves scattered chunks.
func sparsePublisher(tb testing.TB, span, leaves int) func() {
	tr := &Tree{Store: NewMemNodeStore()}
	rng := rand.New(rand.NewSource(9))
	var root NodeRef
	var prevSpan, version uint64
	return func() {
		w := make(map[uint64]Leaf, leaves)
		for len(w) < leaves {
			idx := uint64(rng.Intn(span))
			w[idx] = Leaf{Providers: []string{"127.0.0.1:7720"}, Key: chunkstore.Key{Blob: idx, ID: idx}, Size: 16 << 10}
		}
		version++
		next, err := tr.Publish(1, version, root, prevSpan, uint64(span), w)
		if err != nil {
			tb.Fatal(err)
		}
		root, prevSpan = next, uint64(span)
	}
}

// BenchmarkPublishSparse is a sparse checkpoint's metadata publish alone:
// 128 scattered chunks into a 16 384-chunk tree over an in-memory store.
func BenchmarkPublishSparse(b *testing.B) {
	publish := sparsePublisher(b, 16384, 128)
	publish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish()
	}
}
