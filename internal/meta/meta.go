// Package meta implements BlobSeer's versioned metadata: a distributed
// segment tree that maps each BLOB version to the chunks composing it.
//
// Every version of a BLOB is described by a binary tree over the chunk index
// space. Leaves are chunk descriptors (which providers hold the chunk);
// inner nodes cover power-of-two ranges. Nodes are immutable and keyed by
// (blob, version, offset, span), so publishing a new version writes only the
// nodes on the paths to modified chunks — unmodified subtrees are shared
// with earlier versions by reference. This is the "shadowing" the paper
// relies on: each snapshot looks like a standalone image while physically
// storing only deltas.
//
// Cloning falls out of the same representation: a clone's root simply
// references the origin blob's tree; the clone's subsequent writes create
// nodes under its own blob id whose unmodified children still point into the
// origin's nodes.
//
// Node I/O is batched: the NodeStore interface moves whole node sets per
// call. Publish stages every node it creates and flushes them in a single
// PutNodes call, and Publish's reads of the previous version's paths as well
// as Lookup's descent proceed level by level, fetching each level's node set
// in one GetNodes call — so a tree operation costs O(tree depth) round trips
// per metadata provider instead of O(nodes touched). Because nodes are
// immutable and their keys never reused, a NodeCache in front of the store
// (cache.go) is valid forever: it takes the cached levels out of that count.
package meta

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"blobcr/internal/chunkstore"
	"blobcr/internal/wire"
)

// NodeKey identifies an immutable tree node. Offset and Span are measured in
// chunks; Span is a power of two.
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

// NodePut is one staged node write.
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
}

// node is the decoded form of a stored tree node.
type node struct {
	isLeaf      bool
	left, right NodeRef // inner
	leaf        Leaf    // leaf
}

func encodeNode(n *node) []byte {
	w := wire.NewBuffer(64)
	if n.isLeaf {
		w.PutU8(2)
		w.PutUvarint(uint64(len(n.leaf.Providers)))
		for _, p := range n.leaf.Providers {
			w.PutString(p)
		}
		w.PutU64(n.leaf.Key.Blob)
		w.PutU64(n.leaf.Key.ID)
		w.PutU32(n.leaf.Size)
	} else {
		w.PutU8(1)
		putRef := func(r NodeRef) {
			w.PutBool(r.Valid)
			w.PutU64(r.Blob)
			w.PutU64(r.Version)
		}
		putRef(n.left)
		putRef(n.right)
	}
	return w.Bytes()
}

func decodeNode(p []byte) (*node, error) {
	r := wire.NewReader(p)
	kind := r.U8()
	n := &node{}
	switch kind {
	case 2:
		n.isLeaf = true
		np := r.Uvarint()
		if np > 1024 {
			return nil, fmt.Errorf("meta: implausible provider count %d", np)
		}
		n.leaf.Providers = make([]string, np)
		for i := range n.leaf.Providers {
			n.leaf.Providers[i] = r.String()
		}
		n.leaf.Key.Blob = r.U64()
		n.leaf.Key.ID = r.U64()
		n.leaf.Size = r.U32()
	case 1:
		getRef := func() NodeRef {
			var ref NodeRef
			ref.Valid = r.Bool()
			ref.Blob = r.U64()
			ref.Version = r.U64()
			return ref
		}
		n.left = getRef()
		n.right = getRef()
	default:
		return nil, fmt.Errorf("meta: unknown node kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: decode node: %w", err)
	}
	return n, nil
}

// treePos names one node position being fetched during a level-order
// descent: the reference to follow and the range it covers — and, in a
// lookup, which of the wanted indices lie below it: positions [lo, hi).
type treePos struct {
	ref          NodeRef
	offset, span uint64
	lo, hi       int
}

// getLevel fetches and decodes one descent level's nodes in a single
// GetNodes call, aligned with items. A missing node is wrapped in
// ErrNodeNotFound and a decode failure in the given verb's context, so both
// level-order traversals (Publish's prefetch and Lookup) report errors the
// same way.
func (t *Tree) getLevel(verb string, items []treePos) ([]*node, error) {
	keys := make([]NodeKey, len(items))
	for i, it := range items {
		keys[i] = NodeKey{Blob: it.ref.Blob, Version: it.ref.Version, Offset: it.offset, Span: it.span}
	}
	raws, err := t.Store.GetNodes(keys)
	if err != nil {
		return nil, err
	}
	out := make([]*node, len(items))
	for i, it := range items {
		if raws[i] == nil {
			return nil, fmt.Errorf("meta: %s (off=%d span=%d): %w: %+v", verb, it.offset, it.span, ErrNodeNotFound, keys[i])
		}
		n, err := decodeNode(raws[i])
		if err != nil {
			return nil, fmt.Errorf("meta: %s (off=%d span=%d): %w", verb, it.offset, it.span, err)
		}
		out[i] = n
	}
	return out, nil
}

// getNode fetches and decodes one node (single-node convenience over
// GetNodes, used where batching has nothing to gain).
func (t *Tree) getNode(ref NodeRef, offset, span uint64) (*node, error) {
	key := NodeKey{Blob: ref.Blob, Version: ref.Version, Offset: offset, Span: span}
	raws, err := t.Store.GetNodes([]NodeKey{key})
	if err != nil {
		return nil, err
	}
	if len(raws) != 1 || raws[0] == nil {
		return nil, fmt.Errorf("%w: %+v", ErrNodeNotFound, key)
	}
	return decodeNode(raws[0])
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
// everything).
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
	if len(writes) == 0 && newSpan == prevSpan {
		return prev, nil
	}
	for idx := range writes {
		if idx >= newSpan {
			return NodeRef{}, fmt.Errorf("meta: write index %d outside span %d", idx, newSpan)
		}
	}
	indices := make([]uint64, 0, len(writes))
	for idx := range writes {
		indices = append(indices, idx)
	}
	slices.Sort(indices)
	b := &builder{
		tree:     t,
		blob:     blob,
		version:  version,
		prevRoot: prev,
		prevSpan: prevSpan,
		writes:   writes,
		indices:  indices,
		cache:    make(map[NodeKey]*node),
	}
	var prevHere NodeRef
	if prev.Valid && newSpan == prevSpan {
		prevHere = prev
	}
	if err := b.prefetch(prevHere, newSpan); err != nil {
		return NodeRef{}, err
	}
	ref, err := b.build(prevHere, 0, newSpan)
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
	blob     uint64
	version  uint64
	prevRoot NodeRef
	prevSpan uint64
	writes   map[uint64]Leaf
	indices  []uint64 // sorted write indices

	cache   map[NodeKey]*node // prefetched previous-version nodes
	pending []NodePut         // staged writes, flushed once
}

// touched reports whether any write index falls in [offset, offset+span).
func (b *builder) touched(offset, span uint64) bool {
	i := sort.Search(len(b.indices), func(i int) bool { return b.indices[i] >= offset })
	return i < len(b.indices) && b.indices[i] < offset+span
}

// wrapsOldRoot reports whether the range must be materialized solely to keep
// the grown tree connected to the old root at (0, prevSpan).
func (b *builder) wrapsOldRoot(offset, span uint64) bool {
	return b.prevRoot.Valid && span > b.prevSpan && offset == 0
}

// prefetch walks the previous version's nodes that build is about to read —
// the inner nodes covering touched ranges, plus the leftmost spine of a
// grown tree — level by level, fetching each level's set in one GetNodes
// call and priming the cache.
func (b *builder) prefetch(root NodeRef, span uint64) error {
	frontier := []treePos{{ref: root, offset: 0, span: span}}
	for len(frontier) > 0 {
		var next []treePos
		var fetch []treePos
		for _, it := range frontier {
			touched := b.touched(it.offset, it.span)
			wraps := b.wrapsOldRoot(it.offset, it.span)
			if (!touched && !wraps) || it.span == 1 {
				continue
			}
			half := it.span / 2
			switch {
			case it.ref.Valid:
				fetch = append(fetch, it)
			case wraps && half == b.prevSpan:
				// Left child is exactly the old root.
				next = append(next, treePos{ref: b.prevRoot, offset: it.offset, span: half})
			case wraps:
				// Keep descending the leftmost spine toward the old root.
				next = append(next, treePos{offset: it.offset, span: half})
			}
		}
		nodes, err := b.tree.getLevel("fetch previous node", fetch)
		if err != nil {
			return err
		}
		for i, it := range fetch {
			n := nodes[i]
			b.cache[NodeKey{Blob: it.ref.Blob, Version: it.ref.Version, Offset: it.offset, Span: it.span}] = n
			if n.isLeaf {
				continue // build will reject it with a proper error
			}
			half := it.span / 2
			if n.left.Valid {
				next = append(next, treePos{ref: n.left, offset: it.offset, span: half})
			}
			if n.right.Valid {
				next = append(next, treePos{ref: n.right, offset: it.offset + half, span: half})
			}
		}
		frontier = next
	}
	return nil
}

// getPrev returns the previous version's node for the range, from the
// prefetch cache (with a single-fetch fallback for safety).
func (b *builder) getPrev(ref NodeRef, offset, span uint64) (*node, error) {
	key := NodeKey{Blob: ref.Blob, Version: ref.Version, Offset: offset, Span: span}
	if n, ok := b.cache[key]; ok {
		return n, nil
	}
	return b.tree.getNode(ref, offset, span)
}

// build constructs the node covering [offset, offset+span). prevHere is the
// previous version's node for this exact range (invalid if the range did not
// exist or was a hole). It returns the previous node's reference when the
// range is untouched, achieving structural sharing.
func (b *builder) build(prevHere NodeRef, offset, span uint64) (NodeRef, error) {
	touched := b.touched(offset, span)
	// When the tree grows, the old root sits at (0, prevSpan) inside the new
	// tree; the subtrees above it must be materialized even if untouched so
	// the new root reaches the old data.
	wrapsOldRoot := b.wrapsOldRoot(offset, span)
	if !touched && !wrapsOldRoot {
		return prevHere, nil // share previous subtree, or keep a hole
	}
	if span == 1 {
		leaf := b.writes[offset] // touched guarantees presence
		return b.put(offset, span, &node{isLeaf: true, leaf: leaf})
	}
	half := span / 2
	var prevLeft, prevRight NodeRef
	switch {
	case prevHere.Valid:
		pn, err := b.getPrev(prevHere, offset, span)
		if err != nil {
			return NodeRef{}, fmt.Errorf("meta: fetch previous node (off=%d span=%d): %w", offset, span, err)
		}
		if pn.isLeaf {
			return NodeRef{}, fmt.Errorf("meta: unexpected leaf at span %d", span)
		}
		prevLeft, prevRight = pn.left, pn.right
	case wrapsOldRoot && half == b.prevSpan:
		// Left child is exactly the old root.
		prevLeft = b.prevRoot
	}
	left, err := b.build(prevLeft, offset, half)
	if err != nil {
		return NodeRef{}, err
	}
	right, err := b.build(prevRight, offset+half, half)
	if err != nil {
		return NodeRef{}, err
	}
	return b.put(offset, span, &node{left: left, right: right})
}

// put stages one node write; the whole set is flushed by Publish in one
// PutNodes call.
func (b *builder) put(offset, span uint64, n *node) (NodeRef, error) {
	key := NodeKey{Blob: b.blob, Version: b.version, Offset: offset, Span: span}
	b.pending = append(b.pending, NodePut{Key: key, Encoded: encodeNode(n)})
	return NodeRef{Blob: b.blob, Version: b.version, Valid: true}, nil
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
// under a never-written subtree, are reported as holes.
//
// The descent is level-order over the whole set at once: each level's node
// set — the nodes with a wanted index below them — is fetched in one
// GetNodes call, so a lookup costs O(tree depth) round trips per metadata
// provider no matter how many chunks it covers or how they are scattered.
// Through a NodeCache only the levels it does not hold cost a round trip.
func (t *Tree) LookupSet(root NodeRef, span uint64, indices []uint64) ([]LeafSlot, error) {
	out := make([]LeafSlot, len(indices))
	for i, idx := range indices {
		out[i].Index = idx
	}
	// below returns the first position in [lo, hi) whose index is >= bound.
	below := func(lo, hi int, bound uint64) int {
		return lo + sort.Search(hi-lo, func(i int) bool { return indices[lo+i] >= bound })
	}
	// The frontier holds the nodes with wanted indices below them.
	var frontier []treePos
	if n := below(0, len(indices), span); n > 0 && root.Valid {
		frontier = []treePos{{ref: root, offset: 0, span: span, lo: 0, hi: n}}
	}
	for len(frontier) > 0 {
		nodes, err := t.getLevel("lookup node", frontier)
		if err != nil {
			return nil, err
		}
		var next []treePos
		for i, it := range frontier {
			n := nodes[i]
			if it.span == 1 {
				if !n.isLeaf {
					return nil, fmt.Errorf("meta: inner node at span 1")
				}
				for p := it.lo; p < it.hi; p++ {
					out[p].Leaf, out[p].Present = n.leaf, true
				}
				continue
			}
			if n.isLeaf {
				return nil, fmt.Errorf("meta: leaf node at span %d", it.span)
			}
			half := it.span / 2
			mid := below(it.lo, it.hi, it.offset+half)
			if n.left.Valid && mid > it.lo {
				next = append(next, treePos{ref: n.left, offset: it.offset, span: half, lo: it.lo, hi: mid})
			}
			if n.right.Valid && it.hi > mid {
				next = append(next, treePos{ref: n.right, offset: it.offset + half, span: half, lo: mid, hi: it.hi})
			}
		}
		frontier = next
	}
	return out, nil
}

// Warm reads the top of the tree rooted at root, level by level, for as long
// as the next level keeps the total within budget nodes. It returns nothing
// but an error: its use is to pull those nodes through a NodeCache, so that
// later lookups pay round trips only for the levels below them.
func (t *Tree) Warm(root NodeRef, span uint64, budget int) error {
	var frontier []treePos
	if root.Valid {
		frontier = []treePos{{ref: root, offset: 0, span: span}}
	}
	for fetched := 0; len(frontier) > 0 && fetched+len(frontier) <= budget; {
		nodes, err := t.getLevel("warm node", frontier)
		if err != nil {
			return err
		}
		fetched += len(frontier)
		var next []treePos
		for i, it := range frontier {
			n := nodes[i]
			if n.isLeaf {
				continue
			}
			half := it.span / 2
			if n.left.Valid {
				next = append(next, treePos{ref: n.left, offset: it.offset, span: half})
			}
			if n.right.Valid {
				next = append(next, treePos{ref: n.right, offset: it.offset + half, span: half})
			}
		}
		frontier = next
	}
	return nil
}

// Walk visits every node reachable from root (covering [0, span)), calling
// fn with each node's key and, for leaves, the decoded descriptor. Used by
// mark-and-sweep garbage collection. Shared subtrees reachable from multiple
// roots are visited once per Walk call; the visited map deduplicates within
// a call.
func (t *Tree) Walk(root NodeRef, span uint64, fn func(k NodeKey, isLeaf bool, leaf Leaf) error) error {
	visited := make(map[NodeKey]struct{})
	return t.walk(root, 0, span, fn, visited)
}

func (t *Tree) walk(ref NodeRef, offset, span uint64, fn func(NodeKey, bool, Leaf) error, visited map[NodeKey]struct{}) error {
	if !ref.Valid {
		return nil
	}
	key := NodeKey{Blob: ref.Blob, Version: ref.Version, Offset: offset, Span: span}
	if _, seen := visited[key]; seen {
		return nil
	}
	visited[key] = struct{}{}
	n, err := t.getNode(ref, offset, span)
	if err != nil {
		return err
	}
	if err := fn(key, n.isLeaf, n.leaf); err != nil {
		return err
	}
	if n.isLeaf {
		return nil
	}
	half := span / 2
	if err := t.walk(n.left, offset, half, fn, visited); err != nil {
		return err
	}
	return t.walk(n.right, offset+half, half, fn, visited)
}

// MemNodeStore is an in-memory NodeStore for tests and single-process use.
type MemNodeStore struct {
	m map[NodeKey][]byte
}

// NewMemNodeStore returns an empty in-memory node store.
func NewMemNodeStore() *MemNodeStore {
	return &MemNodeStore{m: make(map[NodeKey][]byte)}
}

// PutNodes implements NodeStore.
func (s *MemNodeStore) PutNodes(puts []NodePut) error {
	for _, p := range puts {
		if err := s.PutNode(p.Key, p.Encoded); err != nil {
			return err
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

// PutNode stores one node (single-node convenience).
func (s *MemNodeStore) PutNode(k NodeKey, encoded []byte) error {
	if _, exists := s.m[k]; exists {
		return nil // nodes are immutable; re-put is idempotent
	}
	cp := make([]byte, len(encoded))
	copy(cp, encoded)
	s.m[k] = cp
	return nil
}

// GetNode returns one node (single-node convenience).
func (s *MemNodeStore) GetNode(k NodeKey) ([]byte, error) {
	v, ok := s.m[k]
	if !ok {
		return nil, fmt.Errorf("%w: %+v", ErrNodeNotFound, k)
	}
	return v, nil
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
