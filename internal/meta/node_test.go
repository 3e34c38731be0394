package meta

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/wire"
)

// encode is the encoding of n in a tree of fanout f.
func encode(n node, f uint64) []byte {
	var w wire.Buffer
	if n.bottom {
		leaves := n.leaves
		if leaves == nil {
			leaves = make([]Leaf, f)
		}
		encodeBottom(&w, n.mask, leaves, nil)
	} else {
		kids := n.kids
		if kids == nil {
			kids = make([]NodeRef, f)
		}
		encodeInner(&w, kids)
	}
	return w.Bytes()
}

// sameNode compares decoded nodes slot by slot: a leaf's provider list is
// compared by content, and an absent slot's contents do not count.
func sameNode(a, b node) bool {
	if a.bottom != b.bottom || a.mask != b.mask || !slices.Equal(a.kids, b.kids) || len(a.leaves) != len(b.leaves) {
		return false
	}
	for i := range a.leaves {
		if a.mask&(1<<i) != 0 && !sameLeaf(a.leaves[i], b.leaves[i]) {
			return false
		}
	}
	return true
}

// sampleNodes returns an inner and a bottom node of fanout f, each with the
// first, the last and a middle slot present and the rest absent; the bottom
// node's leaves share some providers and have none, one or three.
func sampleNodes(f uint64) []node {
	inner := node{kids: make([]NodeRef, f)}
	bottom := node{bottom: true, leaves: make([]Leaf, f)}
	provs := [][]string{nil, {"10.0.0.1:7720"}, {"10.0.0.2:7721", "10.0.0.1:7720", "10.0.0.3:7722"}}
	for i, slot := range []uint64{0, f / 2, f - 1} {
		inner.kids[slot] = NodeRef{Blob: uint64(i + 1), Version: 1 << (20 * i), Valid: true}
		inner.mask |= 1 << slot
		bottom.leaves[slot] = Leaf{Providers: provs[i], Key: chunkstore.Key{Blob: ^uint64(i), ID: uint64(i) << 40}, Size: 1 << (10 * i)}
		bottom.mask |= 1 << slot
	}
	return []node{inner, bottom}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	for _, f := range fanouts {
		for _, n := range sampleNodes(f) {
			got, err := decodeNode(encode(n, f), f, n.bottom)
			if err != nil {
				t.Fatalf("F=%d bottom=%v: %v", f, n.bottom, err)
			}
			if !sameNode(got, n) {
				t.Errorf("F=%d bottom=%v: round trip = %+v, want %+v", f, n.bottom, got, n)
			}
		}
	}
	// A full 16-way bottom node, one replica per chunk: the size the
	// cache and the frame split count on.
	full := node{bottom: true, mask: 1<<Fanout - 1, leaves: make([]Leaf, Fanout)}
	for i := range full.leaves {
		full.leaves[i] = Leaf{Providers: []string{"127.0.0.1:7720"}, Key: chunkstore.Key{Blob: 1, ID: uint64(i)}, Size: 16 << 10}
	}
	if n := len(encode(full, Fanout)); n < 300 || n > NodeSizeHint {
		t.Errorf("a full bottom node encodes in %d bytes, want ~370, at most NodeSizeHint %d", n, NodeSizeHint)
	}
	if _, err := decodeNode([]byte{99}, Fanout, false); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

// TestDecodeNodeRejects: every malformed node the format names is rejected —
// an unknown kind, a kind at the wrong level, a mask bit past the fanout, a
// provider-table count larger than the bytes left, a provider index outside
// the table, another fanout than the tree's — and so are the provider
// reference counts that disagree, trailing bytes and every truncation.
func TestDecodeNodeRejects(t *testing.T) {
	for _, c := range badNodes() {
		if _, err := decodeNode(c.p, Fanout, c.bottom); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
	for _, f := range fanouts {
		for _, n := range sampleNodes(f) {
			p := encode(n, f)
			for i := range p {
				if _, err := decodeNode(p[:i], f, n.bottom); err == nil {
					t.Errorf("F=%d bottom=%v: %d-byte prefix of %d decoded", f, n.bottom, i, len(p))
				}
			}
			if _, err := decodeNode(append(p, 0), f, n.bottom); err == nil {
				t.Errorf("F=%d bottom=%v: trailing byte accepted", f, n.bottom)
			}
		}
	}
}

type badNode struct {
	name   string
	p      []byte
	bottom bool
}

// badNodes are hand-made malformed nodes of a 16-way tree.
func badNodes() []badNode {
	header := func(kind, f uint8, mask uint64) *wire.Buffer {
		w := wire.NewBuffer(64)
		w.PutU8(kind)
		w.PutU8(f)
		w.PutUvarint(mask)
		return w
	}
	// oneLeaf is a bottom node whose slot 0 names the given table indices.
	oneLeaf := func(table []string, refs uint64, indices ...uint64) []byte {
		w := header(kindBottom, Fanout, 1)
		w.PutUvarint(uint64(len(table)))
		for _, s := range table {
			w.PutString(s)
		}
		w.PutUvarint(refs)
		w.PutUvarint(uint64(len(indices)))
		for _, i := range indices {
			w.PutUvarint(i)
		}
		w.PutU64(1)
		w.PutU64(2)
		w.PutU32(3)
		return w.Bytes()
	}
	good := oneLeaf([]string{"a"}, 1, 0)
	inner := header(kindInner, Fanout, 1<<3)
	inner.PutUvarint(7)
	inner.PutUvarint(8)
	wrongFanout := slices.Clone(good)
	wrongFanout[1] = 8
	// Counts a decoder that trusted them would allocate a MiB for.
	hugeTable := header(kindBottom, Fanout, 1)
	hugeTable.PutUvarint(1 << 16)
	hugeRefs := header(kindBottom, Fanout, 1)
	hugeRefs.PutUvarint(0)
	hugeRefs.PutUvarint(1 << 16)
	return []badNode{
		{"unknown kind", append([]byte{7}, good[1:]...), true},
		{"bottom kind at an inner level", good, false},
		{"inner kind at the bottom level", inner.Bytes(), true},
		{"mask bit past the fanout", header(kindInner, Fanout, 1<<Fanout).Bytes(), false},
		{"provider-table count larger than the bytes left", hugeTable.Bytes(), true},
		{"provider index outside the table", oneLeaf([]string{"a"}, 1, 1), true},
		{"another fanout than the tree's", wrongFanout, true},
		{"reference count larger than the bytes left", hugeRefs.Bytes(), true},
		{"leaf names more providers than the header counts", oneLeaf([]string{"a"}, 1, 0, 0), true},
		{"header counts more providers than the leaves name", oneLeaf([]string{"a"}, 2, 0), true},
	}
}

// FuzzDecodeNode: whatever the bytes, decodeNode returns an error or a node
// and never panics, and it allocates in proportion to the bytes it is given,
// never to a count they claim. A node that decodes is rejected at the other
// level and at another fanout, and its own encoding decodes back to it.
func FuzzDecodeNode(f *testing.F) {
	for _, w := range fanouts {
		for _, n := range sampleNodes(w) {
			p := encode(n, w)
			f.Add(p, uint8(w), n.bottom)
			f.Add(p[:len(p)/2], uint8(w), n.bottom)
			for _, at := range []int{1, 2, len(p) / 2, len(p) - 1} {
				bad := slices.Clone(p)
				bad[at] ^= 0x5a
				f.Add(bad, uint8(w), n.bottom)
			}
		}
	}
	for _, c := range badNodes() {
		f.Add(c.p, uint8(Fanout), c.bottom)
	}
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, p []byte, width uint8, bottom bool) {
		w := uint64(width)
		if !slices.Contains(fanouts, w) {
			w = fanouts[int(width)%len(fanouts)]
		}
		before := allocated()
		n, err := decodeNode(p, w, bottom)
		// Slot arrays of at most 64 entries, and per byte of input at most
		// a string header and the byte itself; the rest is slack for the
		// error message.
		if grown, bound := allocated()-before, 64*uint64(len(p))+16<<10; grown > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(p), grown, bound)
		}
		if err != nil {
			return
		}
		if _, err := decodeNode(p, w, !bottom); err == nil {
			t.Error("a node decoded at both levels")
		}
		for _, other := range fanouts {
			if _, err := decodeNode(p, other, bottom); other != w && err == nil {
				t.Errorf("a node of fanout %d decoded at fanout %d", w, other)
			}
		}
		back, err := decodeNode(encode(n, w), w, bottom)
		if err != nil || !sameNode(back, n) {
			t.Errorf("re-encoded node: %v; got %+v, want %+v", err, back, n)
		}
	})
}

// TestDecodeBottomNodeAllocations: decoding a bottom node costs the same
// allocations whether it names one provider or many.
func TestDecodeBottomNodeAllocations(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		n := node{bottom: true, mask: 1<<Fanout - 1, leaves: make([]Leaf, Fanout)}
		for i := range n.leaves {
			provs := make([]string, replicas)
			for r := range provs {
				provs[r] = fmt.Sprintf("10.0.0.%d:7720", (i+r)%5)
			}
			n.leaves[i] = Leaf{Providers: provs, Key: chunkstore.Key{ID: uint64(i)}, Size: 1}
		}
		p := encode(n, Fanout)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := decodeNode(p, Fanout, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%d replicas per chunk: decoding a full bottom node took %.0f allocations, want 3", replicas, allocs)
		}
	}
}
