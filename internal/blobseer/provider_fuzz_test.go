package blobseer

import (
	"bytes"
	"maps"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/wire"
)

// providerState is what a data provider request may change: the CAS
// accounting, every stored body and the reference count of each
// fingerprint the fuzz target knows.
type providerState struct {
	stats  cas.Stats
	bodies map[chunkstore.Key]string
	refs   map[cas.Fingerprint]uint64
}

func snapshotProvider(s *cas.Store, fps []cas.Fingerprint) providerState {
	st := providerState{stats: s.Stats(), bodies: make(map[chunkstore.Key]string), refs: make(map[cas.Fingerprint]uint64)}
	for _, k := range s.Keys() {
		body, _ := s.Get(k)
		st.bodies[k] = string(body)
	}
	for _, fp := range fps {
		st.refs[fp] = s.Refs(fp)
	}
	return st
}

func (a providerState) equal(b providerState) bool {
	return a.stats == b.stats && maps.Equal(a.bodies, b.bodies) && maps.Equal(a.refs, b.refs)
}

// fingerprintFrame encodes a batch frame of op over fingerprints, with the
// body after each fingerprint when bodies is not nil.
func fingerprintFrame(op byte, fps []cas.Fingerprint, bodies [][]byte) []byte {
	w := wire.NewBuffer(64)
	w.PutU8(op)
	w.PutUvarint(uint64(len(fps)))
	for i, fp := range fps {
		putFingerprint(w, fp)
		if bodies != nil {
			w.PutBytes(bodies[i])
		}
	}
	return w.Bytes()
}

// mismatchedPut reports whether req is a well-formed cas-put-batch frame
// carrying a body that does not hash to its fingerprint.
func mismatchedPut(req []byte) bool {
	q, err := decodeRequest(req)
	if err != nil || q.op != opCasPutBatch {
		return false
	}
	for i, fp := range q.fps {
		if cas.Sum(q.bodies[i]) != fp {
			return true
		}
	}
	return false
}

// reencodes fails t unless frame decodes to a request whose encoding is
// frame itself.
func reencodes(t *testing.T, frame []byte) {
	t.Helper()
	q, err := decodeRequest(frame)
	if err != nil {
		t.Fatalf("a served frame does not decode: %v", err)
	}
	if got := q.encode().Bytes(); !bytes.Equal(got, frame) {
		t.Fatalf("frame %x re-encodes as %x", frame, got)
	}
}

// FuzzDataProviderRequest drives the data provider's request handler with
// arbitrary frames, seeded with a real frame of each batch op: a
// chunk-get-batch, a cas-ref-batch, a cas-put-batch of a new and a held
// body, one whose body does not match its fingerprint, a cas-release-batch,
// and the non-canonical frames of nonCanonicalFrames. No input panics; a
// refused frame leaves the CAS bodies and reference counts as they were; a
// cas-put-batch with any body that does not match its fingerprint is
// refused; and every accepted frame re-encodes byte for byte, so no two
// frames are served alike.
func FuzzDataProviderRequest(f *testing.F) {
	held := [][]byte{[]byte("held body"), bytes.Repeat([]byte{0xC3}, 700), {}}
	fresh := []byte("a body the provider lacks")
	fps := []cas.Fingerprint{cas.Sum(held[0]), cas.Sum(held[1]), cas.Sum(held[2]), cas.Sum(fresh)}
	absent := chunkstore.Key{Blob: 404, ID: 404}

	get := wire.NewBuffer(64)
	get.PutU8(opChunkGetBatch)
	get.PutUvarint(3)
	putChunkKey(get, fps[0].Key())
	putChunkKey(get, absent)
	putChunkKey(get, fps[1].Key())
	f.Add(get.Bytes())
	f.Add(fingerprintFrame(opCasRefBatch, []cas.Fingerprint{fps[1], fps[3]}, nil))
	f.Add(fingerprintFrame(opCasPutBatch, []cas.Fingerprint{fps[3], fps[0]}, [][]byte{fresh, held[0]}))
	f.Add(fingerprintFrame(opCasPutBatch, []cas.Fingerprint{fps[3], fps[0]}, [][]byte{fresh, held[1]}))
	f.Add(fingerprintFrame(opCasReleaseBatch, []cas.Fingerprint{fps[0], fps[1], fps[3]}, nil))
	for _, frame := range nonCanonicalFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, req []byte) {
		store := cas.NewMem()
		for i, body := range held {
			for range i + 1 { // refcounts 1, 2 and 3
				if _, err := store.PutContent(fps[i], body); err != nil {
					t.Fatal(err)
				}
			}
		}
		dp := NewDataProvider(store)
		before := snapshotProvider(store, fps)
		_, err := dp.handle(ctx, req)
		if mismatchedPut(req) && err == nil {
			t.Fatal("a cas-put-batch carrying a body that does not match its fingerprint was accepted")
		}
		if err != nil && !snapshotProvider(store, fps).equal(before) {
			t.Fatalf("a refused frame (%v) changed the provider's bodies or reference counts", err)
		}
		if err == nil {
			reencodes(t, req)
		}
	})
}
