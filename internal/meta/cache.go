package meta

import (
	"sync"

	"blobcr/internal/obs"
)

// NodeCache is a bounded in-memory set of encoded tree nodes in front of a
// NodeStore. Nodes are immutable and a NodeKey is never reused — a version
// number is consumed even by an aborted commit — so an entry never goes
// stale: it can be evicted, but what it holds is the node under that key for
// as long as the node exists. Absence is never cached.
//
// Eviction is by generation: nodes enter the current generation, a full
// generation becomes the old one and the old one before it is dropped, and a
// node found in the old generation is carried into the current one. What was
// read or written lately stays — the upper levels every lookup crosses, the
// version the next commit extends — at the cost of one map insert per node
// and no bookkeeping per hit.
//
// The cache is the long-lived part; Store wraps one (typically
// request-scoped) NodeStore view with it. Safe for concurrent use.
type NodeCache struct {
	half int // bytes per generation

	mu                 sync.Mutex
	cur, old           map[NodeKey][]byte
	curBytes, oldBytes int
}

// entryBytes is what caching one node costs beyond its encoding: the key,
// the slice header and the map's own slot.
const entryBytes = 64

// NewNodeCache returns a cache holding at most maxBytes of nodes, each
// counted as its encoding plus entryBytes. A node larger than half the bound
// is not cached.
func NewNodeCache(maxBytes int) *NodeCache {
	return &NodeCache{half: maxBytes / 2, cur: make(map[NodeKey][]byte)}
}

// Bytes returns what the cached nodes cost, a node present in both
// generations counting twice: never more than the bound.
func (c *NodeCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes + c.oldBytes
}

// getLocked returns the node cached under k. Caller holds c.mu.
func (c *NodeCache) getLocked(k NodeKey) ([]byte, bool) {
	if enc, ok := c.cur[k]; ok {
		return enc, true
	}
	enc, ok := c.old[k]
	if ok {
		c.addLocked(k, enc) // in use: it outlives the generation it came in with
	}
	return enc, ok
}

// addLocked caches one node in the current generation, starting a new one
// when it is full. Caller holds c.mu.
func (c *NodeCache) addLocked(k NodeKey, encoded []byte) {
	size := len(encoded) + entryBytes
	if size > c.half {
		return
	}
	if c.curBytes+size > c.half {
		// Sized for what it will hold: a map left to grow by doubling
		// spends as long rehashing as inserting.
		c.old, c.cur = c.cur, make(map[NodeKey][]byte, len(c.cur))
		c.oldBytes, c.curBytes = c.curBytes, 0
	}
	if _, ok := c.cur[k]; !ok {
		c.cur[k] = encoded
		c.curBytes += size
	}
}

// Store returns a NodeStore that serves reads from the cache where it can,
// fetches the rest from inner in one GetNodes call, and writes through: nodes
// put are cached as well as stored, so the next Publish finds the paths of
// the version it extends without a round trip. The keys it serves are
// counted into hits, the keys it has to pass on into misses.
func (c *NodeCache) Store(inner NodeStore, hits, misses *obs.Counter) NodeStore {
	return &cachedStore{cache: c, inner: inner, hits: hits, misses: misses}
}

type cachedStore struct {
	cache        *NodeCache
	inner        NodeStore
	hits, misses *obs.Counter
}

// PutNodes implements NodeStore.
func (s *cachedStore) PutNodes(puts []NodePut) error {
	if err := s.inner.PutNodes(puts); err != nil {
		return err
	}
	c := s.cache
	c.mu.Lock()
	for _, p := range puts {
		c.addLocked(p.Key, p.Encoded)
	}
	c.mu.Unlock()
	return nil
}

// GetNodes implements NodeStore.
func (s *cachedStore) GetNodes(keys []NodeKey) ([][]byte, error) {
	c := s.cache
	out := make([][]byte, len(keys))
	var missing []NodeKey
	var at []int // position in keys of each missing key
	c.mu.Lock()
	for i, k := range keys {
		if enc, ok := c.getLocked(k); ok {
			out[i] = enc
		} else {
			missing, at = append(missing, k), append(at, i)
		}
	}
	c.mu.Unlock()
	s.hits.Add(uint64(len(keys) - len(missing)))
	s.misses.Add(uint64(len(missing)))
	if len(missing) == 0 {
		return out, nil
	}
	fetched, err := s.inner.GetNodes(missing)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for i, enc := range fetched {
		out[at[i]] = enc
		if enc != nil {
			c.addLocked(missing[i], enc)
		}
	}
	c.mu.Unlock()
	return out, nil
}
