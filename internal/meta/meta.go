// Package meta implements BlobSeer's versioned metadata: a distributed
// segment tree that maps each BLOB version to the chunks composing it.
//
// Every version of a BLOB is described by a wide tree over the chunk index
// space, Fanout ways at every level. A bottom node covers Fanout consecutive
// chunks and holds their descriptors itself (which providers hold each
// chunk, its content key and size), naming the providers by index into a
// small table stored once per node; an absent slot is a hole, a chunk never
// written, which reads as zeros. An inner node holds up to Fanout child
// references behind a presence mask. A tree of span chunks is therefore
// ⌈log_Fanout span⌉ levels deep — four for 16 384 chunks — the shape of
// QCOW2's table-of-tables, whose bottom table holds the cluster descriptors.
//
// Nodes are immutable and keyed by (blob, version, offset, span), so
// publishing a new version writes only the nodes on the paths to modified
// chunks — unmodified subtrees are shared with earlier versions by
// reference. This is the "shadowing" the paper relies on: each snapshot
// looks like a standalone image while physically storing only deltas.
//
// Cloning falls out of the same representation: a clone's root simply
// references the origin blob's tree; the clone's subsequent writes create
// nodes under its own blob id whose unmodified children still point into the
// origin's nodes.
//
// Node I/O is batched: the NodeStore interface moves whole node sets per
// call. Publish stages every node it creates and flushes them in a single
// PutNodes call, and Publish's reads of the previous version's paths, Lookup
// and Walk proceed level by level, fetching each level's node set in one
// GetNodes call — so a tree operation costs O(tree depth) round trips per
// metadata provider instead of O(nodes touched). Because nodes are immutable
// and their keys never reused, a NodeCache in front of the store (cache.go)
// is valid forever: it takes the cached levels out of that count.
package meta

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"blobcr/internal/chunkstore"
	"blobcr/internal/wire"
)

// Fanout is the tree's width: an inner node has up to Fanout children and a
// bottom node holds the descriptors of Fanout consecutive chunks.
const Fanout = 16

// maxFanout bounds the width any tree may have: a node's presence mask is 64
// bits.
const maxFanout = 64

// NodeSizeHint is what one encoded node is expected to take: a full bottom
// node with a replica or two per chunk is ~370–450 bytes, an inner node
// under a hundred. Callers size response frames with it.
const NodeSizeHint = 512

// NodeKey identifies an immutable tree node. Offset and Span are measured in
// chunks; Span is the range the node covers, a power of Fanout.
type NodeKey struct {
	Blob    uint64
	Version uint64
	Offset  uint64
	Span    uint64
}

// NodeRef points to a node created by some blob at some version; the node's
// offset and span are implied by the position in the tree being descended.
type NodeRef struct {
	Blob    uint64
	Version uint64
	Valid   bool
}

// Leaf describes one stored chunk: the data providers holding its replicas,
// its storage key, and its payload size.
type Leaf struct {
	Providers []string
	Key       chunkstore.Key
	Size      uint32
}

// LeafSlot is a Lookup result: the chunk index and its descriptor, or
// Present=false for a hole (never-written range, reads as zeros).
type LeafSlot struct {
	Index   uint64
	Leaf    Leaf
	Present bool
}

// NodePut is one staged node write. Encoded is immutable once put: stores
// and caches keep it without copying.
type NodePut struct {
	Key     NodeKey
	Encoded []byte
}

// NodeStore is the storage backend for tree nodes. Implementations shard
// keys across metadata providers; both methods move whole node sets so a
// remote implementation can group by shard and issue one round trip per
// metadata provider.
type NodeStore interface {
	// PutNodes stores the staged nodes. Nodes are immutable: re-putting an
	// existing key is an idempotent no-op.
	PutNodes(puts []NodePut) error
	// GetNodes fetches the encoded nodes for keys, aligned by index. A
	// missing node yields a nil entry, not an error: callers decide whether
	// absence is a hole or corruption.
	GetNodes(keys []NodeKey) ([][]byte, error)
}

// ErrNodeNotFound is returned for tree descents that hit a missing node.
var ErrNodeNotFound = errors.New("meta: node not found")

// Tree provides segment-tree operations over a NodeStore.
type Tree struct {
	Store NodeStore

	fanout uint64 // zero means Fanout; set only by this package's tests
}

func (t *Tree) width() uint64 {
	if t.fanout == 0 {
		return Fanout
	}
	return t.fanout
}

// cover returns the range the root of a tree of the given span covers: the
// smallest power of f that is at least span, and at least f, so the
// smallest tree is one bottom node. It stops short of overflowing: a span
// beyond the largest power of f a uint64 holds is not covered.
func cover(f, span uint64) uint64 {
	c := f
	for c < span && c <= math.MaxUint64/f {
		c *= f
	}
	return c
}

// treePos names one node position being fetched during a level-order
// descent: the reference to follow and the range it covers — and, in a
// lookup or a publish, which of the wanted indices lie below it: positions
// [lo, hi).
type treePos struct {
	ref          NodeRef
	offset, span uint64
	lo, hi       int
}

func (it treePos) key() NodeKey {
	return NodeKey{Blob: it.ref.Blob, Version: it.ref.Version, Offset: it.offset, Span: it.span}
}

// getLevel fetches and decodes one descent level's nodes in a single
// GetNodes call, aligned with items. A missing node is wrapped in
// ErrNodeNotFound and a decode failure in the given verb's context, so every
// level-order traversal reports errors the same way.
func (t *Tree) getLevel(verb string, items []treePos) ([]node, error) {
	if len(items) == 0 {
		return nil, nil
	}
	keys := make([]NodeKey, len(items))
	for i, it := range items {
		keys[i] = it.key()
	}
	raws, err := t.Store.GetNodes(keys)
	if err != nil {
		return nil, err
	}
	f := t.width()
	out := make([]node, len(items))
	for i, it := range items {
		if raws[i] == nil {
			return nil, fmt.Errorf("meta: %s (off=%d span=%d): %w: %+v", verb, it.offset, it.span, ErrNodeNotFound, keys[i])
		}
		if out[i], err = decodeNode(raws[i], f, it.span == f); err != nil {
			return nil, fmt.Errorf("meta: %s (off=%d span=%d): %w", verb, it.offset, it.span, err)
		}
	}
	return out, nil
}

// split calls fn for each child slot of a node that has wanted indices below
// it, in slot order, with the run indices[lo:hi] of those indices; the node
// starts at offset and each child covers child chunks. indices must be
// ascending and indices[lo:hi] inside the node.
func split(indices []uint64, lo, hi int, offset, child uint64, fn func(slot uint64, lo, hi int)) {
	for lo < hi {
		slot := (indices[lo] - offset) / child
		bound := offset + (slot+1)*child
		end := lo + sort.Search(hi-lo, func(i int) bool { return indices[lo+i] >= bound })
		fn(slot, lo, end)
		lo = end
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n uint64) uint64 {
	s := uint64(1)
	for s < n {
		s <<= 1
	}
	return s
}

// Publish creates the tree for a new version. blob/version name the new
// nodes; prev is the root of the version being extended (invalid for the
// first version); prevSpan and newSpan are the tree spans in chunks
// (newSpan >= prevSpan, both powers of two); writes maps chunk index ->
// descriptor for every chunk modified in this version.
//
// It returns the new root reference. If writes is empty and the span does
// not grow, the previous root is returned unchanged (an empty commit shares
// everything). When the span grows past what the old root covers, the old
// root becomes the first child of a new one (or of its first child, and so
// on down).
//
// I/O is batched: the previous version's nodes along the modified paths are
// prefetched level by level (one GetNodes per level) and every node created
// is staged and flushed in one PutNodes call, so the store sees O(depth)
// reads and exactly one write per Publish.
func (t *Tree) Publish(blob, version uint64, prev NodeRef, prevSpan, newSpan uint64, writes map[uint64]Leaf) (NodeRef, error) {
	if newSpan < prevSpan {
		return NodeRef{}, fmt.Errorf("meta: tree span cannot shrink (%d < %d)", newSpan, prevSpan)
	}
	if newSpan == 0 || newSpan&(newSpan-1) != 0 {
		return NodeRef{}, fmt.Errorf("meta: span %d is not a power of two", newSpan)
	}
	f := t.width()
	top := cover(f, newSpan)
	if top < newSpan {
		return NodeRef{}, fmt.Errorf("meta: span %d is past what a tree of fanout %d covers", newSpan, f)
	}
	if len(writes) == 0 && newSpan == prevSpan {
		return prev, nil
	}
	indices := make([]uint64, 0, len(writes))
	for idx := range writes {
		if idx >= newSpan {
			return NodeRef{}, fmt.Errorf("meta: write index %d outside span %d", idx, newSpan)
		}
		indices = append(indices, idx)
	}
	slices.Sort(indices)
	b := &builder{
		tree:     t,
		f:        f,
		blob:     blob,
		version:  version,
		prevRoot: prev,
		prevTop:  cover(f, prevSpan),
		writes:   writes,
		indices:  indices,
		prev:     make(map[NodeKey]*node),
	}
	var prevHere NodeRef
	if prev.Valid && top == b.prevTop {
		prevHere = prev
	}
	if err := b.prefetch(treePos{ref: prevHere, span: top, hi: len(indices)}); err != nil {
		return NodeRef{}, err
	}
	ref, err := b.build(treePos{ref: prevHere, span: top, hi: len(indices)})
	if err != nil {
		return NodeRef{}, err
	}
	if err := t.Store.PutNodes(b.pending); err != nil {
		return NodeRef{}, err
	}
	return ref, nil
}

// builder carries the context of one Publish call.
type builder struct {
	tree     *Tree
	f        uint64
	blob     uint64
	version  uint64
	prevRoot NodeRef
	prevTop  uint64 // the range the previous root covers
	writes   map[uint64]Leaf
	indices  []uint64 // sorted write indices

	prev    map[NodeKey]*node // prefetched previous-version nodes
	pending []NodePut         // staged writes, flushed once
	w       wire.Buffer       // encoding scratch
	table   []string          // provider-table scratch
}

// wraps reports whether the node at pos must be materialized solely to keep
// a grown tree connected to the old root, which sits at (0, prevTop).
func (b *builder) wraps(pos treePos) bool {
	return b.prevRoot.Valid && pos.span > b.prevTop && pos.offset == 0
}

// spine returns the first child of a wrapping node: the old root itself, or
// the next node down the leftmost spine toward it.
func (b *builder) spine(pos treePos) treePos {
	child := pos.span / b.f
	hi := pos.lo + sort.Search(pos.hi-pos.lo, func(i int) bool { return b.indices[pos.lo+i] >= child })
	next := treePos{span: child, lo: pos.lo, hi: hi}
	if child == b.prevTop {
		next.ref = b.prevRoot
	}
	return next
}

// prefetch walks the previous version's nodes that build is about to read —
// every node with a write below it, down to the bottom nodes whose other
// descriptors the new ones keep — level by level, fetching each level's set
// in one GetNodes call.
func (b *builder) prefetch(root treePos) error {
	for frontier := []treePos{root}; len(frontier) > 0; {
		var fetch, next []treePos
		for _, it := range frontier {
			switch {
			case it.lo == it.hi && !b.wraps(it):
				// Nothing below changes: build shares it without reading it.
			case it.ref.Valid:
				fetch = append(fetch, it)
			case b.wraps(it):
				// The old root lies down the leftmost spine; writes beside it
				// have no previous nodes to read.
				next = append(next, b.spine(it))
			}
		}
		nodes, err := b.tree.getLevel("fetch previous node", fetch)
		if err != nil {
			return err
		}
		for i, it := range fetch {
			n := &nodes[i]
			b.prev[it.key()] = n
			if n.bottom {
				continue
			}
			child := it.span / b.f
			split(b.indices, it.lo, it.hi, it.offset, child, func(slot uint64, lo, hi int) {
				if n.kids[slot].Valid {
					next = append(next, treePos{ref: n.kids[slot], offset: it.offset + slot*child, span: child, lo: lo, hi: hi})
				}
			})
		}
		frontier = next
	}
	return nil
}

// build constructs the node at pos, whose writes are indices[pos.lo:pos.hi]
// and whose previous version is pos.ref (invalid if the range did not exist
// or was a hole). It returns the previous node's reference when nothing
// below it changed, achieving structural sharing.
func (b *builder) build(pos treePos) (NodeRef, error) {
	wraps := b.wraps(pos)
	if pos.lo == pos.hi && !wraps {
		return pos.ref, nil // share the previous subtree, or keep a hole
	}
	var prev *node
	if pos.ref.Valid {
		if prev = b.prev[pos.key()]; prev == nil { // prefetch reads every one build needs
			return NodeRef{}, fmt.Errorf("meta: previous node %+v was not prefetched", pos.key())
		}
	}
	if pos.span == b.f {
		var leaves [maxFanout]Leaf
		var mask uint64
		if prev != nil {
			copy(leaves[:], prev.leaves)
			mask = prev.mask
		}
		for _, idx := range b.indices[pos.lo:pos.hi] {
			leaves[idx-pos.offset] = b.writes[idx]
			mask |= 1 << (idx - pos.offset)
		}
		b.w.Reset()
		b.table = encodeBottom(&b.w, mask, leaves[:b.f], b.table)
		return b.put(pos), nil
	}
	child := pos.span / b.f
	var kids [maxFanout]NodeRef
	if prev != nil {
		copy(kids[:], prev.kids)
	}
	var err error
	if wraps {
		kids[0], err = b.build(b.spine(pos))
	}
	split(b.indices, pos.lo, pos.hi, pos.offset, child, func(slot uint64, lo, hi int) {
		if err == nil && !(wraps && slot == 0) {
			kids[slot], err = b.build(treePos{ref: kids[slot], offset: pos.offset + slot*child, span: child, lo: lo, hi: hi})
		}
	})
	if err != nil {
		return NodeRef{}, err
	}
	b.w.Reset()
	encodeInner(&b.w, kids[:b.f])
	return b.put(pos), nil
}

// put stages the node just encoded into b.w under pos's range; the whole set
// is flushed by Publish in one PutNodes call.
func (b *builder) put(pos treePos) NodeRef {
	key := NodeKey{Blob: b.blob, Version: b.version, Offset: pos.offset, Span: pos.span}
	b.pending = append(b.pending, NodePut{Key: key, Encoded: slices.Clone(b.w.Bytes())})
	return NodeRef{Blob: b.blob, Version: b.version, Valid: true}
}

// Lookup returns the leaf slots for chunk indices [first, first+count) in
// the tree rooted at root with the given span, in index order. Indices
// beyond the span are reported as holes. It is LookupSet over the range.
func (t *Tree) Lookup(root NodeRef, span uint64, first, count uint64) ([]LeafSlot, error) {
	indices := make([]uint64, count)
	for i := range indices {
		indices[i] = first + uint64(i)
	}
	return t.LookupSet(root, span, indices)
}

// LookupSet returns the leaf slots for the given chunk indices, which must
// be ascending, aligned with them. Indices beyond the span, and indices
// under a never-written subtree or in an empty slot of a bottom node, are
// reported as holes.
//
// The descent is level-order over the whole set at once: each level's node
// set — the nodes with a wanted index below them — is fetched in one
// GetNodes call, so a lookup costs one round trip per level per metadata
// provider no matter how many chunks it covers or how they are scattered.
// Through a NodeCache only the levels it does not hold cost a round trip.
func (t *Tree) LookupSet(root NodeRef, span uint64, indices []uint64) ([]LeafSlot, error) {
	out := make([]LeafSlot, len(indices))
	for i, idx := range indices {
		out[i].Index = idx
	}
	f := t.width()
	top := cover(f, span)
	n := sort.Search(len(indices), func(i int) bool { return indices[i] >= min(span, top) })
	if n == 0 || !root.Valid {
		return out, nil
	}
	for frontier := []treePos{{ref: root, span: top, hi: n}}; len(frontier) > 0; {
		nodes, err := t.getLevel("lookup node", frontier)
		if err != nil {
			return nil, err
		}
		var next []treePos
		for i, it := range frontier {
			nd := &nodes[i]
			if nd.bottom {
				for p := it.lo; p < it.hi; p++ {
					if slot := indices[p] - it.offset; nd.mask&(1<<slot) != 0 {
						out[p].Leaf, out[p].Present = nd.leaves[slot], true
					}
				}
				continue
			}
			child := it.span / f
			split(indices, it.lo, it.hi, it.offset, child, func(slot uint64, lo, hi int) {
				if kid := nd.kids[slot]; kid.Valid {
					next = append(next, treePos{ref: kid, offset: it.offset + slot*child, span: child, lo: lo, hi: hi})
				}
			})
		}
		frontier = next
	}
	return out, nil
}

// Walk visits every node reachable from root (covering [0, span)) level by
// level, one GetNodes call per level. fn is called once per node with
// isLeaf false and, for a bottom node, once more per chunk descriptor it
// holds, with the node's key and isLeaf true. Used by mark-and-sweep garbage
// collection. A node's key names its position, so a walk reaches each node
// once; a subtree shared with other versions is visited by each of their
// walks.
func (t *Tree) Walk(root NodeRef, span uint64, fn func(k NodeKey, isLeaf bool, leaf Leaf) error) error {
	if !root.Valid {
		return nil
	}
	f := t.width()
	for frontier := []treePos{{ref: root, span: cover(f, span)}}; len(frontier) > 0; {
		nodes, err := t.getLevel("walk node", frontier)
		if err != nil {
			return err
		}
		var next []treePos
		for i, it := range frontier {
			nd, key := &nodes[i], it.key()
			if err := fn(key, false, Leaf{}); err != nil {
				return err
			}
			for slot := range nd.leaves {
				if nd.mask&(1<<slot) != 0 {
					if err := fn(key, true, nd.leaves[slot]); err != nil {
						return err
					}
				}
			}
			child := it.span / f
			for slot, kid := range nd.kids {
				if kid.Valid {
					next = append(next, treePos{ref: kid, offset: it.offset + uint64(slot)*child, span: child})
				}
			}
		}
		frontier = next
	}
	return nil
}

// MemNodeStore is an in-memory NodeStore for tests and single-process use.
type MemNodeStore struct {
	m map[NodeKey][]byte
}

// NewMemNodeStore returns an empty in-memory node store.
func NewMemNodeStore() *MemNodeStore {
	return &MemNodeStore{m: make(map[NodeKey][]byte)}
}

// PutNodes implements NodeStore. It keeps the encoded nodes it is handed.
func (s *MemNodeStore) PutNodes(puts []NodePut) error {
	for _, p := range puts {
		if _, exists := s.m[p.Key]; !exists { // nodes are immutable; re-put is idempotent
			s.m[p.Key] = p.Encoded
		}
	}
	return nil
}

// GetNodes implements NodeStore: missing nodes yield nil entries.
func (s *MemNodeStore) GetNodes(keys []NodeKey) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out, nil
}

// Len returns the number of stored nodes (for space-accounting tests).
func (s *MemNodeStore) Len() int { return len(s.m) }

// Delete removes a node (garbage collection sweep).
func (s *MemNodeStore) Delete(k NodeKey) { delete(s.m, k) }

// Keys returns all stored node keys (sweep enumeration).
func (s *MemNodeStore) Keys() []NodeKey {
	out := make([]NodeKey, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}
