// Package cas implements the content-addressed deduplicated checkpoint
// repository: chunk bodies are identified by the SHA-256 fingerprint of
// their content, stored once no matter how many snapshots reference them,
// and reclaimed by reference counting.
//
// Motivation (stdchk, Al Kiswany et al.; BlobCR §mirroring module): across
// ranks and across successive checkpoints many "dirty" chunks are
// byte-identical — zero pages, base-image content re-touched by the guest
// file system, convergent application state across VMs. Addressing chunks
// by content instead of by (blob, id) lets the repository store one body per
// distinct content and lets writers skip the network transfer entirely when
// the repository already holds a fingerprint.
//
// A Store layers the dedup index over any chunkstore.Store backend (in-memory
// for tests and simulation, on-disk for blobseerd), storing each body under
// the chunkstore key derived from its fingerprint. The Store itself
// implements chunkstore.Store, so existing consumers — the data provider's
// plain chunk ops, usage accounting, and the mark-and-sweep GC — keep working
// unchanged on a CAS-capable provider.
//
// Reference counting: every published chunk write holds one reference per
// replica (Ref on a dedup hit, PutContent on a miss). Retiring a snapshot
// releases the references its superseded writes held (Release); a body whose
// count reaches zero is deleted immediately. This makes snapshot-retire
// garbage collection O(retired chunks) instead of a whole-repository sweep —
// the paper's proposed transparent snapshot GC (future work, see
// internal/blobseer) in its cheap incremental form. The mark-and-sweep GC
// remains available as a full-fidelity fallback collector; its Delete path
// drops both the body and the index entry.
//
// The dedup index lives in memory. For a disk-backed Store reopened over an
// existing directory, the index is recovered by re-hashing the stored bodies.
// A recovered body's true reference count is unknown, so it is pinned:
// available for dedup hits, but never deleted by refcount release — only the
// mark-and-sweep GC, which decides liveness by global reachability, reclaims
// it. Anything less would let a restart-then-retire delete a body a live
// snapshot still references.
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"blobcr/internal/chunkstore"
)

// Fingerprint is the SHA-256 digest of a chunk body.
type Fingerprint [32]byte

// Sum fingerprints a chunk body.
func Sum(data []byte) Fingerprint { return sha256.Sum256(data) }

// Key derives the chunkstore key under which the body is stored: the first
// 16 digest bytes, big-endian. 128 bits of a cryptographic hash make
// accidental collisions negligible.
func (fp Fingerprint) Key() chunkstore.Key {
	return chunkstore.Key{
		Blob: binary.BigEndian.Uint64(fp[0:8]),
		ID:   binary.BigEndian.Uint64(fp[8:16]),
	}
}

// String renders the fingerprint in hex.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// FromBytes copies a 32-byte slice into a Fingerprint.
func FromBytes(p []byte) (Fingerprint, error) {
	var fp Fingerprint
	if len(p) != len(fp) {
		return fp, fmt.Errorf("cas: fingerprint must be %d bytes, got %d", len(fp), len(p))
	}
	copy(fp[:], p)
	return fp, nil
}

// ErrContentMismatch is returned by PutContent when the body does not hash
// to the claimed fingerprint (corruption in transit or a buggy writer).
var ErrContentMismatch = errors.New("cas: content does not match fingerprint")

// Stats is a snapshot of the repository's dedup accounting.
type Stats struct {
	Chunks          uint64 // distinct bodies currently stored
	Refs            uint64 // live references across all bodies
	PhysicalBytes   uint64 // bytes of stored bodies
	LogicalBytes    uint64 // bytes the live references represent (refs x size)
	Hits            uint64 // cumulative dedup hits (reference taken, body already held)
	Misses          uint64 // cumulative misses (body had to be stored)
	ReclaimedChunks uint64 // bodies deleted because their count reached zero
	ReclaimedBytes  uint64
}

// Add accumulates other into s (aggregation across providers).
func (s *Stats) Add(o Stats) {
	s.Chunks += o.Chunks
	s.Refs += o.Refs
	s.PhysicalBytes += o.PhysicalBytes
	s.LogicalBytes += o.LogicalBytes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.ReclaimedChunks += o.ReclaimedChunks
	s.ReclaimedBytes += o.ReclaimedBytes
}

// HitRate returns the fraction of reference acquisitions that were dedup
// hits, in [0, 1].
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is the index record for one stored body.
type entry struct {
	fp   Fingerprint
	refs uint64
	size uint32
	// pinned marks a body recovered from a pre-existing backend: its true
	// reference count is unknown (counts live in memory), so refcount
	// release must never delete it — only a mark-and-sweep pass, which has
	// global reachability knowledge, may (via Delete).
	pinned bool
}

// casStripes is the width of the per-fingerprint lock table: wide enough
// that concurrent committers rarely collide on a stripe.
const casStripes = 64

// Store is a refcounted content-addressed repository over a chunkstore
// backend. It is safe for concurrent use. Mutating operations on one body
// serialize on a striped per-fingerprint lock — taken before, and held
// across, any backend I/O — so a body can never be reclaimed between a
// successful Ref and the read it protects. mu guards only the in-memory
// index and counters and is never held across backend calls: bodies with
// different fingerprints reach the backend concurrently, which is what lets
// a group-committing backend (seglog) batch their fsyncs.
//
// Lock order: stripe, then mu.
type Store struct {
	mu      sync.Mutex
	backend chunkstore.Store
	index   map[Fingerprint]*entry
	byKey   map[chunkstore.Key]Fingerprint

	stripes [casStripes]sync.Mutex

	hits, misses    uint64
	logicalBytes    uint64
	reclaimedChunks uint64
	reclaimedBytes  uint64
}

// stripe returns the serialization lock for every operation touching the
// body stored under k. Fingerprint-addressed operations stripe by fp.Key(),
// so a CAS op and a key op on the same body always share a stripe.
func (s *Store) stripe(k chunkstore.Key) *sync.Mutex {
	h := (k.Blob ^ k.ID) * 0x9e3779b97f4a7c15 // Fibonacci mixing
	return &s.stripes[(h>>32)%casStripes]
}

// keyLister is satisfied by both chunkstore backends.
type keyLister interface{ Keys() []chunkstore.Key }

// NewStore layers a CAS index over backend. If the backend already holds
// chunks (a reopened disk store), bodies whose key matches their content
// fingerprint are recovered into the index with one reference each;
// non-CAS chunks are left alone.
func NewStore(backend chunkstore.Store) (*Store, error) {
	s := &Store{
		backend: backend,
		index:   make(map[Fingerprint]*entry),
		byKey:   make(map[chunkstore.Key]Fingerprint),
	}
	lister, ok := backend.(keyLister)
	if !ok {
		return s, nil
	}
	for _, k := range lister.Keys() {
		data, err := backend.Get(k)
		if err != nil {
			return nil, fmt.Errorf("cas: recover index: %w", err)
		}
		fp := Sum(data)
		if fp.Key() != k {
			continue // a (blob, id)-addressed chunk, not ours
		}
		s.indexLocked(fp, uint32(len(data)), 0)
		s.index[fp].pinned = true
	}
	return s, nil
}

// NewMem returns a CAS store over a fresh in-memory backend.
func NewMem() *Store {
	s, _ := NewStore(chunkstore.NewMem()) // Mem recovery cannot fail
	return s
}

// indexLocked installs an index entry. Caller holds s.mu (or is in init).
func (s *Store) indexLocked(fp Fingerprint, size uint32, refs uint64) {
	s.index[fp] = &entry{fp: fp, refs: refs, size: size}
	s.byKey[fp.Key()] = fp
	s.logicalBytes += refs * uint64(size)
}

// Ref takes one reference on fp if the repository holds its body, and
// reports whether it did. A false return means the caller must upload the
// body with PutContent ("have fingerprint?" round trip).
func (s *Store) Ref(fp Fingerprint) bool {
	st := s.stripe(fp.Key())
	st.Lock()
	defer st.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[fp]
	if !ok {
		return false
	}
	e.refs++
	s.hits++
	s.logicalBytes += uint64(e.size)
	return true
}

// PutContent stores a body under its fingerprint and takes one reference.
// If the body is already held (a concurrent writer won the race), no bytes
// are written and dup is true.
func (s *Store) PutContent(fp Fingerprint, data []byte) (dup bool, err error) {
	if Sum(data) != fp {
		return false, fmt.Errorf("%w: %s", ErrContentMismatch, fp)
	}
	st := s.stripe(fp.Key())
	st.Lock()
	defer st.Unlock()
	s.mu.Lock()
	if e, ok := s.index[fp]; ok {
		e.refs++
		s.hits++
		s.logicalBytes += uint64(e.size)
		s.mu.Unlock()
		return true, nil
	}
	s.mu.Unlock()
	// Backend write outside mu: same-fingerprint writers are serialized by
	// the stripe, different bodies land in the backend concurrently.
	if err := s.backend.Put(fp.Key(), data); err != nil {
		return false, err
	}
	s.mu.Lock()
	s.indexLocked(fp, uint32(len(data)), 1)
	s.misses++
	s.mu.Unlock()
	return false, nil
}

// Release drops one reference on fp. When the count reaches zero the body is
// deleted — unless the entry was recovered from a pre-existing backend
// (pinned), whose true count is unknown: pinned bodies outlive their counted
// references and are left for the mark-and-sweep pass. Releasing an unknown
// fingerprint is a no-op (the body was already collected by a sweep).
func (s *Store) Release(fp Fingerprint) (remaining uint64, reclaimedBytes uint64, err error) {
	st := s.stripe(fp.Key())
	st.Lock()
	defer st.Unlock()
	s.mu.Lock()
	e, ok := s.index[fp]
	if !ok {
		s.mu.Unlock()
		return 0, 0, nil
	}
	if e.refs > 0 {
		e.refs--
		s.logicalBytes -= uint64(e.size)
	}
	if e.refs > 0 || e.pinned {
		rem := e.refs
		s.mu.Unlock()
		return rem, 0, nil
	}
	s.mu.Unlock()
	// Count hit zero: delete the body. The stripe (held) keeps a concurrent
	// Ref from reviving the entry while the backend delete is in flight.
	if err := s.backend.Delete(fp.Key()); err != nil {
		s.mu.Lock()
		e.refs++ // keep the index consistent with the backend
		s.logicalBytes += uint64(e.size)
		rem := e.refs
		s.mu.Unlock()
		return rem, 0, err
	}
	s.mu.Lock()
	delete(s.index, fp)
	delete(s.byKey, fp.Key())
	s.reclaimedChunks++
	s.reclaimedBytes += uint64(e.size)
	s.mu.Unlock()
	return 0, uint64(e.size), nil
}

// GetContent returns the body for fp.
func (s *Store) GetContent(fp Fingerprint) ([]byte, error) {
	return s.backend.Get(fp.Key())
}

// HasContent reports whether the repository holds fp without taking a
// reference.
func (s *Store) HasContent(fp Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[fp]
	return ok
}

// Refs returns the live reference count for fp (0 if absent).
func (s *Store) Refs(fp Fingerprint) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[fp]; ok {
		return e.refs
	}
	return 0
}

// Stats returns a snapshot of the dedup accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Chunks:          uint64(len(s.index)),
		Refs:            s.refsLocked(),
		PhysicalBytes:   s.physicalLocked(),
		LogicalBytes:    s.logicalBytes,
		Hits:            s.hits,
		Misses:          s.misses,
		ReclaimedChunks: s.reclaimedChunks,
		ReclaimedBytes:  s.reclaimedBytes,
	}
}

func (s *Store) refsLocked() uint64 {
	var n uint64
	for _, e := range s.index {
		n += e.refs
	}
	return n
}

func (s *Store) physicalLocked() uint64 {
	var n uint64
	for _, e := range s.index {
		n += uint64(e.size)
	}
	return n
}

// --- chunkstore.Store interface ---
//
// The CAS store is itself a chunk store: plain (blob, id)-keyed puts pass
// through to the backend untouched, reads and usage accounting see both kinds
// of chunk, and Delete — the mark-and-sweep GC's primitive — also drops the
// dedup index entry so a swept body cannot be resurrected by a stale count.

// Put implements chunkstore.Store (non-CAS passthrough). Only same-key puts
// serialize; the backend sees concurrent puts from concurrent committers.
func (s *Store) Put(k chunkstore.Key, data []byte) error {
	st := s.stripe(k)
	st.Lock()
	defer st.Unlock()
	return s.backend.Put(k, data)
}

// Get implements chunkstore.Store.
func (s *Store) Get(k chunkstore.Key) ([]byte, error) { return s.backend.Get(k) }

// ReadInto implements chunkstore.ReaderInto: Get into the caller's memory,
// without an intermediate buffer when the backend can place it there itself.
func (s *Store) ReadInto(k chunkstore.Key, alloc func(n int) []byte) error {
	return chunkstore.ReadInto(s.backend, k, alloc)
}

// BodyBytes returns the summed length of the bodies the dedup index holds
// under keys (a key it does not know counts as 0) — what a batch read needs
// to size its response before touching the backend.
func (s *Store) BodyBytes(keys []chunkstore.Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, k := range keys {
		if e, ok := s.index[s.byKey[k]]; ok {
			total += int(e.size)
		}
	}
	return total
}

// Has implements chunkstore.Store.
func (s *Store) Has(k chunkstore.Key) bool { return s.backend.Has(k) }

// Delete implements chunkstore.Store. Deleting a CAS-held body removes its
// index entry regardless of its count: the caller (a mark-and-sweep GC pass)
// has global reachability knowledge that overrides local counting.
func (s *Store) Delete(k chunkstore.Key) error {
	st := s.stripe(k)
	st.Lock()
	defer st.Unlock()
	s.mu.Lock()
	if fp, ok := s.byKey[k]; ok {
		if e, ok := s.index[fp]; ok {
			s.logicalBytes -= e.refs * uint64(e.size)
			s.reclaimedChunks++
			s.reclaimedBytes += uint64(e.size)
		}
		delete(s.index, fp)
		delete(s.byKey, k)
	}
	s.mu.Unlock()
	return s.backend.Delete(k)
}

// Len implements chunkstore.Store.
func (s *Store) Len() int { return s.backend.Len() }

// UsedBytes implements chunkstore.Store (physical bytes).
func (s *Store) UsedBytes() int64 { return s.backend.UsedBytes() }

// Keys returns all stored chunk keys (garbage collection sweeps).
func (s *Store) Keys() []chunkstore.Key {
	if l, ok := s.backend.(keyLister); ok {
		return l.Keys()
	}
	return nil
}

// EngineStats implements chunkstore.EngineStatser, forwarding the backend's
// engine view with the CAS layer noted in the backend name.
func (s *Store) EngineStats() chunkstore.EngineStats {
	es := chunkstore.StatsOf(s.backend)
	es.Backend = "cas+" + es.Backend
	return es
}

// CompactNow implements chunkstore.Compactor by delegating to the backend;
// for backends with nothing to compact it is a zero-result no-op.
func (s *Store) CompactNow() (chunkstore.CompactResult, error) {
	if c, ok := s.backend.(chunkstore.Compactor); ok {
		return c.CompactNow()
	}
	return chunkstore.CompactResult{}, nil
}

// Close releases the backend's resources (segment files, directory handles).
func (s *Store) Close() error {
	if c, ok := s.backend.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

var (
	_ chunkstore.Store         = (*Store)(nil)
	_ chunkstore.EngineStatser = (*Store)(nil)
	_ chunkstore.Compactor     = (*Store)(nil)
	_ chunkstore.ReaderInto    = (*Store)(nil)
)
