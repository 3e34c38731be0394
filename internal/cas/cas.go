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
// replica (Ref on a dedup hit; on a miss PutContentBatch, which takes a
// provider's whole put frame — PutContent is its one-item case). Retiring a
// snapshot releases the references its superseded writes held (ReleaseBatch,
// a provider's whole share at once); a body whose count reaches zero is
// deleted immediately. This makes snapshot-retire
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

// Sum fingerprints a chunk body: its SHA-256. An all-zero body — most of a
// sparse guest image — is answered from a per-length memo of exactly that
// digest, so it costs a scan (chunkstore.IsZero, which gives up at the first
// non-zero word) instead of a hash wherever a body is fingerprinted: the
// committing client, the provider's verification, the restart read path.
func Sum(data []byte) Fingerprint {
	if len(data) == 0 || !chunkstore.IsZero(data) {
		return sha256.Sum256(data)
	}
	zeroSums.RLock()
	fp, ok := zeroSums.byLen[len(data)]
	zeroSums.RUnlock()
	if !ok {
		fp = sha256.Sum256(data)
		zeroSums.Lock()
		if len(zeroSums.byLen) < maxZeroSums {
			zeroSums.byLen[len(data)] = fp
		}
		zeroSums.Unlock()
	}
	return fp
}

// zeroSums memoizes the SHA-256 of n zero bytes by n. Bodies come in a
// handful of lengths (the chunk sizes in use and their tails); the bound
// keeps a peer that sends every length from growing the memo without limit.
var zeroSums = struct {
	sync.RWMutex
	byLen map[int]Fingerprint
}{byLen: make(map[int]Fingerprint)}

const maxZeroSums = 64

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
// index and counters and is never held across backend calls. A put frame
// (PutContentBatch) and a retire's releases (ReleaseBatch) take every stripe
// their fingerprints touch and hand the backend the misses, or the bodies
// whose count reached zero, as one batch — one append and one fsync in the
// segment log — so it is frames, not chunks, that meet there.
//
// Lock order: stripes in ascending index order (single-fingerprint
// operations hold exactly one), then mu.
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
	return &s.stripes[stripeIndex(k)]
}

func stripeIndex(k chunkstore.Key) int {
	h := (k.Blob ^ k.ID) * 0x9e3779b97f4a7c15 // Fibonacci mixing
	return int((h >> 32) % casStripes)
}

// lockStripes takes the distinct stripes of fps in ascending index order —
// the order every multi-stripe operation uses, so two frames with
// overlapping fingerprints in opposite orders cannot deadlock — and returns
// the function that releases them.
func (s *Store) lockStripes(fps []Fingerprint) (unlock func()) {
	var need [casStripes]bool
	for _, fp := range fps {
		need[stripeIndex(fp.Key())] = true
	}
	for i := range need {
		if need[i] {
			s.stripes[i].Lock()
		}
	}
	return func() {
		for i := range need {
			if need[i] {
				s.stripes[i].Unlock()
			}
		}
	}
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

// PutContent stores a body under its fingerprint and takes one reference:
// PutContentBatch of one item. If the body is already held (a concurrent
// writer won the race), no bytes are written and dup is true.
func (s *Store) PutContent(fp Fingerprint, data []byte) (dup bool, err error) {
	dups, err := s.PutContentBatch([]Fingerprint{fp}, [][]byte{data})
	if err != nil {
		return false, err
	}
	return dups[0], nil
}

// PutContentBatch stores a frame of bodies under their fingerprints and
// takes one reference per item, all or nothing. Every body is verified
// against its fingerprint first, on parallel workers: a frame with one bad
// body changes nothing. Then, holding the frame's stripes, items whose body
// is already held — before the frame, or by an earlier item of it — become
// references (dups[i] true) and the rest reach the backend as one batch;
// only when that batch is durable are they indexed and the references
// counted. A backend failure takes no reference and leaves no body behind.
func (s *Store) PutContentBatch(fps []Fingerprint, bodies [][]byte) (dups []bool, err error) {
	bad := make([]bool, len(fps))
	chunkstore.ForEachParallel(len(fps), func(i int) { bad[i] = Sum(bodies[i]) != fps[i] })
	for i := range fps {
		if bad[i] {
			return nil, fmt.Errorf("%w: %s", ErrContentMismatch, fps[i])
		}
	}
	defer s.lockStripes(fps)()

	// The stripes pin every item's held/missing state until they are
	// released, so the frame can be classified now and applied after the
	// backend write.
	dups = make([]bool, len(fps))
	var keys []chunkstore.Key
	var missBodies [][]byte
	inFrame := make(map[Fingerprint]bool)
	s.mu.Lock()
	for i, fp := range fps {
		if _, held := s.index[fp]; held || inFrame[fp] {
			dups[i] = true
			continue
		}
		inFrame[fp] = true
		keys = append(keys, fp.Key())
		missBodies = append(missBodies, bodies[i])
	}
	s.mu.Unlock()
	if len(keys) > 0 {
		if err := chunkstore.PutBatch(s.backend, keys, missBodies); err != nil {
			chunkstore.DeleteBatch(s.backend, keys) //nolint:errcheck // best effort: none of them is indexed
			return nil, err
		}
	}
	s.mu.Lock()
	for i, fp := range fps {
		if e, ok := s.index[fp]; ok {
			e.refs++
			s.hits++
			s.logicalBytes += uint64(e.size)
			continue
		}
		s.indexLocked(fp, uint32(len(bodies[i])), 1)
		s.misses++
	}
	s.mu.Unlock()
	return dups, nil
}

// Release drops one reference on fp: ReleaseBatch of one fingerprint,
// reporting the count that remains.
func (s *Store) Release(fp Fingerprint) (remaining uint64, reclaimedBytes uint64, err error) {
	remaining, _, reclaimedBytes, err = s.release([]Fingerprint{fp})
	return remaining, reclaimedBytes, err
}

// ReleaseBatch drops one reference per listed fingerprint (one listed twice
// drops two). A body whose count reaches zero is deleted — all of them as
// one backend batch — unless the entry was recovered from a pre-existing
// backend (pinned), whose true count is unknown: pinned bodies outlive
// their counted references and are left for the mark-and-sweep pass.
// Releasing an unknown fingerprint is a no-op (the body was already
// collected by a sweep). It reports how many bodies were deleted and the
// payload bytes they held.
func (s *Store) ReleaseBatch(fps []Fingerprint) (reclaimedChunks int, reclaimedBytes uint64, err error) {
	_, reclaimedChunks, reclaimedBytes, err = s.release(fps)
	return reclaimedChunks, reclaimedBytes, err
}

// release is the one release path; remaining is the count left on the last
// fingerprint.
func (s *Store) release(fps []Fingerprint) (remaining uint64, reclaimedChunks int, reclaimedBytes uint64, err error) {
	defer s.lockStripes(fps)()
	var dead []*entry
	s.mu.Lock()
	for _, fp := range fps {
		e, ok := s.index[fp]
		if !ok || e.refs == 0 {
			remaining = 0
			continue // unknown, a pinned floor, or already dying in this batch
		}
		e.refs--
		s.logicalBytes -= uint64(e.size)
		remaining = e.refs
		if e.refs == 0 && !e.pinned {
			dead = append(dead, e)
		}
	}
	s.mu.Unlock()
	if len(dead) == 0 {
		return remaining, 0, 0, nil
	}
	// Counts hit zero: delete the bodies. The stripes (held) keep a
	// concurrent Ref from reviving an entry while the delete is in flight.
	keys := make([]chunkstore.Key, len(dead))
	for i, e := range dead {
		keys[i] = e.fp.Key()
	}
	err = chunkstore.DeleteBatch(s.backend, keys)
	survived := make([]bool, len(dead)) // bodies a failed batch left in the backend
	for i := range dead {
		survived[i] = err != nil && s.backend.Has(keys[i])
	}
	s.mu.Lock()
	for i, e := range dead {
		if survived[i] {
			e.refs++ // keep the index consistent with the backend
			s.logicalBytes += uint64(e.size)
			remaining = e.refs
			continue
		}
		delete(s.index, e.fp)
		delete(s.byKey, e.fp.Key())
		s.reclaimedChunks++
		s.reclaimedBytes += uint64(e.size)
		reclaimedChunks++
		reclaimedBytes += uint64(e.size)
	}
	s.mu.Unlock()
	return remaining, reclaimedChunks, reclaimedBytes, err
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
