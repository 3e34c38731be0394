package blobseer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// ReadStats reports what one read had to do beyond the happy path: replicas
// failed over (provider unreachable or body absent), corrupt replicas
// detected (a body that no longer hashes to its content key) and skipped,
// and chunks that exhausted their leaf-recorded replicas and were served
// through the rendezvous-ranked fallback over the current membership (a
// replica re-homed by the repair plane). It also reports the chunks served
// without a fetch of their own: those whose body another index of the same
// read fetched, and those whose leaf names the all-zero body.
type ReadStats struct {
	Chunks          int    // chunks read (holes excluded)
	Coalesced       int    // chunks served as a copy of a body fetched for another index
	ZeroBodies      int    // chunks whose leaf names the all-zero body: delivered nil, not fetched
	UnfetchedBytes  uint64 // bytes of the coalesced and zero chunks, which no provider sent
	FailedOver      int    // replica attempts that moved to the next replica
	CorruptReplicas int    // replicas skipped because their content hash mismatched
	RankedFallbacks int    // chunks served from ranked-membership fallback providers
}

// Add accumulates other into s (aggregation across reads).
func (s *ReadStats) Add(o ReadStats) {
	s.Chunks += o.Chunks
	s.Coalesced += o.Coalesced
	s.ZeroBodies += o.ZeroBodies
	s.UnfetchedBytes += o.UnfetchedBytes
	s.FailedOver += o.FailedOver
	s.CorruptReplicas += o.CorruptReplicas
	s.RankedFallbacks += o.RankedFallbacks
}

// Snapshot is one published snapshot opened for reading: the version
// descriptor and the chunk size are pinned when it is opened (a published
// version never changes), so reads through it never return to the version
// manager, and they resolve leaves through the client's node cache. It is
// the one read engine: ReadVersion and the mirroring module both read
// through ReadChunks. Safe for concurrent use.
type Snapshot struct {
	c         *Client
	ref       SnapshotRef
	info      VersionInfo
	chunkSize uint64
}

// Open opens the referenced published snapshot: one version-manager round
// trip, the only one its reads will ever cost.
func (c *Client) Open(ctx context.Context, ref SnapshotRef) (*Snapshot, error) {
	info, chunkSize, err := c.GetVersion(obs.WithRegistry(ctx, c.Obs), ref)
	if err != nil {
		return nil, err
	}
	return &Snapshot{c: c, ref: ref, info: info, chunkSize: chunkSize}, nil
}

// Ref returns the snapshot's identity.
func (s *Snapshot) Ref() SnapshotRef { return s.ref }

// Size returns the snapshot's logical size in bytes.
func (s *Snapshot) Size() uint64 { return s.info.Size }

// ChunkSize returns the blob's chunk size.
func (s *Snapshot) ChunkSize() uint64 { return s.chunkSize }

// readTree runs one read-side operation over the client's metadata tree and
// counts the round trips it cost into blobseer_read_meta_calls_total.
func (c *Client) readTree(ctx context.Context, op func(*meta.Tree) error) error {
	store := c.nodeStore(ctx)
	err := op(c.treeOver(store))
	obs.RegistryFrom(ctx).Counter("blobseer_read_meta_calls_total").Add(store.gets.Load())
	return err
}

// ReadChunks fetches the chunks at the given ascending indices and hands
// each one to deliver exactly once: nil for a chunk known to read as zeros —
// a hole (a never-written range, or an index past the end) or a leaf that
// names the all-zero body of its length — else the chunk's stored bytes:
// the whole chunk, or less for the blob's tail chunk.
//
// Each distinct body moves once per call. Indices whose leaves name the same
// content key share one fetch; the first of them receives the fetched body
// and every other one a fresh copy of it. A zero leaf is not fetched at all:
// its key already commits to its content.
//
// A fetched body reaches deliver only after it hashed to the leaf's
// content-derived key (the first 128 bits of its SHA-256): a mismatch is
// treated exactly like a missing replica — the read fails over to the next
// replica and the corruption is counted — so a rotted or tampered replica
// can never reach the caller. A chunk whose leaf-recorded replicas are all
// gone falls back to the rendezvous ranking over the current membership,
// which is where the repair plane re-homes lost replicas.
//
// A delivered body belongs to the receiver from then on, and no two
// delivered bodies share memory. A fetched body is not a copy: it is a
// window of the response frame it arrived in, with its capacity cut to its
// length. Neighbouring chunks share the frame, which is safe because the
// windows are disjoint and an append to one reallocates instead of running
// into the next.
//
// The transfer is striped: chunks are grouped by the replica provider chosen
// for each (see replicaOrder) and every provider's set moves in batched
// frames over bounded concurrent streams (Client.Parallelism). deliver is
// called from those streams — concurrently, so it must synchronize whatever
// it shares — except for holes and zero leaves, which are delivered before
// any fetch starts. When ReadChunks fails, some chunks may have been
// delivered already.
func (s *Snapshot) ReadChunks(ctx context.Context, indices []uint64, deliver func(idx uint64, body []byte)) (ReadStats, error) {
	c := s.c
	ctx = obs.WithRegistry(ctx, c.Obs)
	reg := obs.RegistryFrom(ctx)
	var stats ReadStats
	defer func() {
		reg.Counter("blobseer_read_chunks_total").Add(uint64(stats.Chunks))
		reg.Counter("blobseer_read_coalesced_chunks_total").Add(uint64(stats.Coalesced))
		reg.Counter("blobseer_read_zero_chunks_total").Add(uint64(stats.ZeroBodies))
		reg.Counter("blobseer_read_unfetched_bytes_total").Add(stats.UnfetchedBytes)
		reg.Counter("blobseer_read_failovers_total").Add(uint64(stats.FailedOver))
		reg.Counter("blobseer_read_corrupt_replicas_total").Add(uint64(stats.CorruptReplicas))
		reg.Counter("blobseer_read_ranked_fallbacks_total").Add(uint64(stats.RankedFallbacks))
	}()

	lookupCtx, lookup := obs.StartSpan(ctx, obs.SpanReadLookup)
	var slots []meta.LeafSlot
	err := c.readTree(lookupCtx, func(t *meta.Tree) (err error) {
		slots, err = t.LookupSet(s.info.Root, s.info.Span, indices)
		return err
	})
	lookup.End()
	if err != nil {
		return stats, err
	}

	// One readChunk per distinct body: the first index naming a key carries
	// it, and the other indices naming the same key ride along in dups.
	type readChunk struct {
		slot     meta.LeafSlot
		dups     []uint64 // further indices whose leaves name the same key
		order    []string // replica attempt order (rotated)
		next     int
		extended bool // order already widened with the ranked fallback
		lastErr  error
	}
	chunks := make([]readChunk, 0, len(slots))
	byKey := make(map[chunkstore.Key]int, len(slots))
	zero := zeroKeys{chunkSize: s.chunkSize}
	for _, slot := range slots {
		if !slot.Present {
			deliver(slot.Index, nil)
			continue
		}
		stats.Chunks++
		if zero.names(slot.Leaf) {
			stats.ZeroBodies++
			stats.UnfetchedBytes += uint64(slot.Leaf.Size)
			deliver(slot.Index, nil)
			continue
		}
		if i, ok := byKey[slot.Leaf.Key]; ok {
			chunks[i].dups = append(chunks[i].dups, slot.Index)
			stats.Coalesced++
			stats.UnfetchedBytes += uint64(slot.Leaf.Size)
			continue
		}
		byKey[slot.Leaf.Key] = len(chunks)
		chunks = append(chunks, readChunk{slot: slot, order: replicaOrder(slot.Leaf)})
	}
	if len(chunks) == 0 {
		return stats, nil
	}
	work := make([]*readChunk, len(chunks))
	for i := range chunks {
		work[i] = &chunks[i]
	}

	ctx, fetch := obs.StartSpan(ctx, obs.SpanReadFetch)
	defer fetch.End()
	var members []string // ranked-fallback candidates, fetched once on demand
	for len(work) > 0 {
		// Group each chunk under its current replica provider.
		groups := make(map[string][]*readChunk)
		for _, rc := range work {
			if rc.next >= len(rc.order) && !rc.extended {
				// Every leaf-recorded replica is gone. The repair plane
				// re-homes lost replicas on the rendezvous-ranked providers
				// of the current membership — try those before giving up.
				rc.extended = true
				if members == nil {
					m, err := c.Membership(ctx)
					if err != nil {
						return stats, fmt.Errorf("blobseer: chunk %v unavailable on all replicas (membership fallback: %v): %w",
							rc.slot.Leaf.Key, err, rc.lastErr)
					}
					members = m.Addrs() // draining providers still serve reads
				}
				for _, addr := range PlacementRanked(rc.slot.Leaf.Key, members) {
					if !slices.Contains(rc.order, addr) {
						rc.order = append(rc.order, addr)
					}
				}
				if rc.next < len(rc.order) {
					stats.RankedFallbacks++
				}
			}
			if rc.next >= len(rc.order) {
				lastErr := rc.lastErr
				if lastErr == nil {
					lastErr = transport.ErrNotFound
				}
				return stats, fmt.Errorf("blobseer: chunk %v unavailable on all replicas: %w", rc.slot.Leaf.Key, lastErr)
			}
			groups[rc.order[rc.next]] = append(groups[rc.order[rc.next]], rc)
		}
		var mu sync.Mutex // guards retry, stats and the chunks' failover fields
		var retry []*readChunk
		// failOver moves a chunk to its next replica for the following pass.
		failOver := func(rc *readChunk, err error) {
			rc.next++
			if err != nil {
				rc.lastErr = err
			}
			stats.FailedOver++
			retry = append(retry, rc)
		}
		err := runGroups(ctx, c.parallelism(), groups, func(ctx context.Context, addr string, batch []*readChunk) error {
			// Bound each frame by its expected response size.
			err := splitByBytes(len(batch), func(int) int { return int(s.chunkSize) }, func(start, end int) error {
				frame := batch[start:end]
				keys := make([]chunkstore.Key, len(frame))
				for i, rc := range frame {
					keys[i] = rc.slot.Leaf.Key
				}
				bodies, err := c.getChunkBatch(ctx, addr, keys)
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return cerr
					}
					// Provider unreachable: all its remaining chunks fail
					// over to their next replica.
					mu.Lock()
					for _, rc := range batch[start:] {
						failOver(rc, err)
					}
					mu.Unlock()
					return errStopGroup
				}
				// The integrity boundary: nothing below this loop sees a body
				// that does not hash to its leaf's key.
				_, verify := obs.StartSpan(ctx, obs.SpanReadVerify)
				for i, rc := range frame {
					if bodies[i] != nil && cas.Sum(bodies[i]).Key() != rc.slot.Leaf.Key {
						bodies[i] = nil
						mu.Lock()
						stats.CorruptReplicas++
						failOver(rc, fmt.Errorf("blobseer: chunk %v: corrupt replica on %s", rc.slot.Leaf.Key, addr))
						mu.Unlock()
						continue
					}
					if bodies[i] == nil {
						mu.Lock()
						failOver(rc, nil)
						mu.Unlock()
					}
				}
				verify.End()
				for i, rc := range frame {
					body := bodies[i]
					if body == nil {
						continue
					}
					// The copies are taken before the body itself is handed
					// over: from then on its receiver may write into it.
					for _, idx := range rc.dups {
						dup := make([]byte, len(body))
						copy(dup, body)
						deliver(idx, dup)
					}
					deliver(rc.slot.Index, body)
				}
				return nil
			})
			if errors.Is(err, errStopGroup) {
				return nil
			}
			return err
		})
		if err != nil {
			return stats, err
		}
		work = retry
	}
	return stats, nil
}

// ReadVersion reads size bytes at offset from the referenced snapshot into a
// new buffer. Holes (never-written ranges) read as zeros. Reads past the
// version size are truncated.
func (c *Client) ReadVersion(ctx context.Context, ref SnapshotRef, offset, size uint64) ([]byte, error) {
	data, _, err := c.ReadVersionStats(ctx, ref, offset, size)
	return data, err
}

// ReadVersionStats is ReadVersion returning failover and integrity
// accounting. It opens the snapshot (the one version-manager round trip) and
// reads the chunks the range touches through Snapshot.ReadChunks, copying
// each verified body's overlap with the range into the result — the only
// copy the client makes.
func (c *Client) ReadVersionStats(ctx context.Context, ref SnapshotRef, offset, size uint64) ([]byte, ReadStats, error) {
	snap, err := c.Open(ctx, ref)
	if err != nil {
		return nil, ReadStats{}, err
	}
	if offset >= snap.info.Size {
		return nil, ReadStats{}, nil
	}
	if size > snap.info.Size-offset {
		size = snap.info.Size - offset
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, ReadStats{}, nil
	}
	cs := snap.chunkSize
	first := offset / cs
	indices := make([]uint64, (offset+size-1)/cs-first+1)
	for i := range indices {
		indices[i] = first + uint64(i)
	}
	stats, err := snap.ReadChunks(ctx, indices, func(idx uint64, body []byte) {
		// Overlap of [chunkStart, chunkStart+len(body)) with [offset,
		// offset+size). Distinct chunks cover disjoint buf ranges, so the
		// concurrent copies need no lock.
		chunkStart := idx * cs
		lo := max(chunkStart, offset)
		hi := min(chunkStart+uint64(len(body)), offset+size)
		if lo < hi {
			copy(buf[lo-offset:hi-offset], body[lo-chunkStart:hi-chunkStart])
		}
	})
	if err != nil {
		return nil, stats, err
	}
	return buf, stats, nil
}

// zeroKeys tells, for one read, whether a leaf names the all-zero body of its
// length: its key is the key of that many zero bytes (cas.ZeroSum). The key
// of a whole zero chunk is looked up once; other lengths — the blob's tail
// chunk — each time they occur. A leaf longer than the blob's chunks names
// no body the blob can hold and is never taken for zeros.
type zeroKeys struct {
	chunkSize uint64
	full      chunkstore.Key
	known     bool
}

func (z *zeroKeys) names(l meta.Leaf) bool {
	size := uint64(l.Size)
	switch {
	case size == z.chunkSize:
		if !z.known {
			z.full, z.known = cas.ZeroSum(int(size)).Key(), true
		}
		return l.Key == z.full
	case size < z.chunkSize:
		return l.Key == cas.ZeroSum(int(size)).Key()
	}
	return false
}

// replicaOrder returns the order in which a reader tries a leaf's replicas:
// the deterministic rotation of the placement order that starts at the
// replica picked by the chunk key. Readers of different chunks start at
// different replicas — spreading a restore's load across the whole replica
// set instead of hot-spotting the first-placed provider — while any single
// chunk keeps a fixed, in-order failover sequence. The key is 128 bits of
// the content's SHA-256, so its low word is already uniform; hashing it with
// FNV again would correlate the start with the rendezvous ranking (FNV over
// the same key) and pin every chunk's first read to the same provider of an
// adjacent-address pair.
func replicaOrder(l meta.Leaf) []string {
	n := len(l.Providers)
	if n <= 1 {
		return l.Providers
	}
	start := int(l.Key.ID % uint64(n))
	out := make([]string, 0, n)
	out = append(out, l.Providers[start:]...)
	out = append(out, l.Providers[:start]...)
	return out
}
