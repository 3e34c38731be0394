package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/maphash"
	"sync/atomic"

	"blobcr/internal/chunkstore"
)

// Memo is a one-generation fingerprint dictionary: the bodies and
// fingerprints of the last set of bodies a writer committed. A checkpoint
// that rewrites the same state (CM1's rewritten fields, stdchk's successive
// images) hands the hash stage bodies byte-equal to ones it fingerprinted a
// round ago; comparing a body with its one candidate is a memory pass, where
// SHA-256 is several. The memo answers a body only when bytes.Equal holds
// on the whole of it, so its fingerprint is exactly Sum's.
//
// It is safe for concurrent callers, its zero value is an empty memo, and a
// nil *Memo is plain Sum. It holds the kept bodies by reference and copies
// nothing, so it is only sound where a kept body is never mutated — the
// mirroring module's captured buffers, which are frozen for life.
type Memo struct {
	gen atomic.Pointer[map[uint64]memoEntry] // sampled key -> last generation's body
}

type memoEntry struct {
	body []byte
	fp   Fingerprint
}

// memoWindow is the width of each of the three windows (head, middle, tail)
// the sampled key reads. A key over the whole body would be one more
// memory-bound pass, which is most of what the memo saves.
const memoWindow = 64

var memoSeed = maphash.MakeSeed()

// memoKey is a hash of body's length and its head, middle and tail windows
// (the whole body when it is no longer than the three). Bodies that share
// them but differ in between share a key; bytes.Equal tells them apart.
func memoKey(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(memoSeed)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(body)))
	h.Write(n[:])
	if len(body) <= 3*memoWindow {
		h.Write(body)
		return h.Sum64()
	}
	mid := (len(body) - memoWindow) / 2
	h.Write(body[:memoWindow])
	h.Write(body[mid : mid+memoWindow])
	h.Write(body[len(body)-memoWindow:])
	return h.Sum64()
}

// Sum returns body's fingerprint — always Sum(body) — and whether the memo
// answered it. An all-zero body is answered by Sum's zero memo (hit false);
// any other takes the fingerprint of the kept body with its sampled key if
// the two are byte-equal, and is hashed otherwise.
func (m *Memo) Sum(body []byte) (Fingerprint, bool) {
	if m == nil || len(body) == 0 || chunkstore.IsZero(body) {
		return Sum(body), false
	}
	if gen := m.gen.Load(); gen != nil {
		if e, ok := (*gen)[memoKey(body)]; ok && bytes.Equal(e.body, body) {
			return e.fp, true
		}
	}
	return sha256.Sum256(body), false
}

// Keep replaces the memo's generation with bodies[i] under fps[i], which
// must be Sum(bodies[i]); all-zero bodies are left to Sum's zero memo. The
// memo holds the bodies themselves: the caller promises that no kept body
// is ever mutated. A nil *Memo keeps nothing.
func (m *Memo) Keep(bodies [][]byte, fps []Fingerprint) {
	if m == nil {
		return
	}
	gen := make(map[uint64]memoEntry, len(bodies))
	for i, body := range bodies {
		if len(body) == 0 || isZeroSum(len(body), fps[i]) {
			continue
		}
		gen[memoKey(body)] = memoEntry{body: body, fp: fps[i]}
	}
	m.gen.Store(&gen)
}

// Drop empties the memo, releasing the bodies it held.
func (m *Memo) Drop() {
	if m != nil {
		m.gen.Store(nil)
	}
}

// isZeroSum reports whether fp is the fingerprint of n zero bytes, as far
// as Sum's zero memo already knows it.
func isZeroSum(n int, fp Fingerprint) bool {
	zeroSums.RLock()
	z, ok := zeroSums.byLen[n]
	zeroSums.RUnlock()
	return ok && z == fp
}
