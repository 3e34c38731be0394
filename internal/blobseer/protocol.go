// Package blobseer implements the BlobSeer versioning BLOB storage service
// the paper uses as its checkpoint repository (Nicolae et al., JPDC 2011).
//
// A deployment consists of:
//
//   - one version manager, which serializes version publication per BLOB and
//     stores the per-version descriptors (size, metadata root);
//   - one provider manager, which tracks the data-provider membership that
//     writers rendezvous-hash their chunks over;
//   - N metadata providers, which store segment-tree nodes (package meta)
//     sharded by key hash;
//   - M data providers, which store immutable content-addressed chunks
//     (package cas over a package chunkstore engine).
//
// Clients stripe BLOBs into fixed-size chunks, fingerprint them, ship the
// bodies no provider already holds, build the new version's metadata tree,
// and commit the version.
// Shadowing and cloning (the operations BlobCR's COMMIT and CLONE map to)
// come from the versioned segment tree: see package meta.
//
// All services speak a compact binary protocol over transport.Network, so a
// deployment can run in-process (tests, examples) or across machines
// (cmd/blobseerd).
//
// # Batch verbs
//
// The hot data paths move whole per-provider sets per round trip instead of
// one item per call. Every batch frame starts with the op byte and a uvarint
// item count, followed by the items back to back:
//
//   - opChunkGetBatch: n x chunk key. Response: n x (present bool, body if
//     present). Absent chunks are reported per item, not as a frame error,
//     so the reader fails over only the chunks that need it.
//   - opCasRefBatch: n x fingerprint. Response: n x held bool. One "have
//     these fingerprints?" round trip per provider per commit; a reference
//     is taken for every held fingerprint, so a writer that gets `true` back
//     never ships the body at all.
//   - opCasPutBatch: n x (fingerprint, body). Response: n x dup bool. All
//     fingerprints are validated against their bodies before any item is
//     applied, so a corrupt frame takes no references; the bodies the
//     provider lacks reach its engine as one batch.
//   - opCasReleaseBatch: n x fingerprint. Response: reclaimed bodies and
//     bytes. One reference dropped per fingerprint.
//   - opNodePutBatch: n x (node key, encoded node). Response: empty. A
//     Publish flushes its whole staged node set in one frame per shard.
//   - opNodeGetBatch: n x node key. Response: n x (present bool, encoded
//     node if present). Missing nodes are per-item, letting the tree layer
//     distinguish holes from corruption. The client splits its keys into
//     frames by the bytes it expects back (meta.NodeSizeHint per node).
//
// A malformed batch frame (truncated mid-item, implausible count) is
// rejected before any item is applied.
//
// # The boot-set hint
//
// The version manager keeps, per blob, the latest demand record a mirroring
// module published for it: the chunk indices an instance attached to one of
// the blob's snapshots had to fetch before it could run, in first-need order.
// The next attach replays it with one prefetch (the paper's adaptive
// prefetching). The record is advisory and heap-only — losing it costs one
// cold restart — so it needs no journal.
//
//   - opHintPut: u64 blob, n x uvarint chunk index. Response: empty. Replaces
//     the blob's record; a record whose chunks exceed maxHintBytes is
//     rejected whole.
//   - opHintGet: u64 blob. Response: n x uvarint chunk index (n = 0 when the
//     blob has no record).
package blobseer

import (
	"fmt"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/wire"
)

// Op codes for the version manager.
const (
	opCreate = iota + 1 // create blob
	opTicket            // reserve a version number
	opCommit            // publish a version
	opAbort             // abandon a reserved ticket
	opGetVersion
	opLatest
	opClone
	opListLive
	opRetire
	opListBlobs

	// opRelocate rewrites the provider entries of the version manager's
	// write events (lastWrite, superseded, unpublished manifests): every
	// occurrence of `from` on events carrying the given fingerprint becomes
	// `to`, and the occurrence count is returned. With apply=false it only
	// counts — the repair plane pre-installs exactly that many references at
	// the new provider before committing the rewrite, so Retire's releases
	// stay exact through a re-replication.
	opRelocate

	// The boot-set hint (see the package comment): opHintPut replaces a
	// blob's demand record, opHintGet returns it.
	opHintPut
	opHintGet
)

// maxHintBytes caps a stored demand record by the bytes of the chunks it
// names: the mirror's record cap, so a hostile or corrupt hint costs a
// restart at most this much prefetch.
const maxHintBytes = 32 << 20

// Op codes for the provider manager.
const (
	opRegister = iota + 32 // JOIN: the provider becomes placement-eligible
	opProviders
	opUnregister

	// Dynamic-membership verbs (internal/repair). opDrain marks a provider
	// DRAINING: it leaves the placement rotation but keeps serving reads
	// while the repair plane re-places its replicas; opRetireProvider
	// removes a drained provider for good; opMembership reports the full
	// membership with states and the epoch that bumps on every change.
	opMembership
	opDrain
	opRetireProvider
)

// Op codes for data providers.
const (
	opChunkDelete = iota + 64
	opChunkList
	opChunkUsage

	// Content-addressed repository ops (internal/cas). opCasReleaseBatch
	// drops one reference per listed fingerprint — a retire's, or an aborted
	// commit's, whole share of one provider in a round trip, the bodies whose
	// count reaches zero deleted as one backend batch. Request: n x
	// fingerprint. Response: bodies reclaimed (uvarint), their bytes (u64).
	opCasReleaseBatch
	opCasStats

	// Batch verbs (see the package comment): many items per frame, one
	// frame per provider per commit or restore pass.
	opChunkGetBatch
	opCasRefBatch
	opCasPutBatch

	// opCasReleaseN drops n references on one fingerprint in a single
	// round trip — the repair plane settles relocation diffs and releases a
	// drained provider's whole reference count per chunk without one call
	// per reference.
	opCasReleaseN

	// Storage-engine ops (internal/chunkstore engine extensions).
	// opStoreStats reports the provider's backend name and its
	// engine-specific counters (blobcr-ctl store, the benchmark harness).
	// opStoreCompact asks a log-structured backend to run a compaction pass
	// now (the repair scrubber's cadence, blobcr-ctl); engines with nothing
	// to compact report a zero result.
	opStoreStats
	opStoreCompact
)

// Op codes for metadata providers.
const (
	opNodeList = iota + 96
	opNodeDelete
	opNodeUsage
	opNodePutBatch
	opNodeGetBatch
)

// Op bytes from 0xE0 up are not BlobSeer's: 0xE0–0xE4 are the introspection
// ops every endpoint answers (transport.Introspect, which each Serve mounts
// ahead of the service's own handler), and 0xF0 up are transport markers
// such as the trace-context header.

// maxBatchItems bounds the item count of one batch frame: far above any
// legitimate batch (the client splits its frames by batchBytesLimit and
// maxFrameItems, both well below this) and small enough to reject a corrupt
// count before allocating.
const maxBatchItems = 1 << 20

// batchCount decodes and sanity-checks a batch frame's item count.
func batchCount(op int, r *wire.Reader) (uint64, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("blobseer: bad request for op %d: %w", op, err)
	}
	if n > maxBatchItems {
		return 0, fmt.Errorf("blobseer: op %d: implausible batch of %d items", op, n)
	}
	return n, nil
}

// VersionInfo describes one published version of a BLOB.
type VersionInfo struct {
	Version uint64
	Size    uint64       // logical size in bytes
	Span    uint64       // metadata tree span, in chunks
	Root    meta.NodeRef // invalid for an empty blob
}

func putVersionInfo(w *wire.Buffer, v VersionInfo) {
	w.PutU64(v.Version)
	w.PutU64(v.Size)
	w.PutU64(v.Span)
	w.PutBool(v.Root.Valid)
	w.PutU64(v.Root.Blob)
	w.PutU64(v.Root.Version)
}

func getVersionInfo(r *wire.Reader) VersionInfo {
	var v VersionInfo
	v.Version = r.U64()
	v.Size = r.U64()
	v.Span = r.U64()
	v.Root.Valid = r.Bool()
	v.Root.Blob = r.U64()
	v.Root.Version = r.U64()
	return v
}

func putNodeKey(w *wire.Buffer, k meta.NodeKey) {
	w.PutU64(k.Blob)
	w.PutU64(k.Version)
	w.PutU64(k.Offset)
	w.PutU64(k.Span)
}

func getNodeKey(r *wire.Reader) meta.NodeKey {
	var k meta.NodeKey
	k.Blob = r.U64()
	k.Version = r.U64()
	k.Offset = r.U64()
	k.Span = r.U64()
	return k
}

func putFingerprint(w *wire.Buffer, fp cas.Fingerprint) {
	w.PutBytes(fp[:])
}

func getFingerprint(r *wire.Reader) cas.Fingerprint {
	var fp cas.Fingerprint
	copy(fp[:], r.Bytes())
	return fp
}

func putCasStats(w *wire.Buffer, s cas.Stats) {
	w.PutU64(s.Chunks)
	w.PutU64(s.Refs)
	w.PutU64(s.PhysicalBytes)
	w.PutU64(s.LogicalBytes)
	w.PutU64(s.Hits)
	w.PutU64(s.Misses)
	w.PutU64(s.ReclaimedChunks)
	w.PutU64(s.ReclaimedBytes)
}

func getCasStats(r *wire.Reader) cas.Stats {
	var s cas.Stats
	s.Chunks = r.U64()
	s.Refs = r.U64()
	s.PhysicalBytes = r.U64()
	s.LogicalBytes = r.U64()
	s.Hits = r.U64()
	s.Misses = r.U64()
	s.ReclaimedChunks = r.U64()
	s.ReclaimedBytes = r.U64()
	return s
}

// manifestEntry records one chunk write of a published version: the index it
// covers, the content fingerprint, and the replica providers holding the
// body. The version manager uses manifests to track which write supersedes
// which, so Retire can release exactly the references retired snapshots held.
type manifestEntry struct {
	index     uint64
	fp        cas.Fingerprint
	providers []string
}

func putManifest(w *wire.Buffer, m []manifestEntry) {
	w.PutUvarint(uint64(len(m)))
	for _, e := range m {
		w.PutUvarint(e.index)
		putFingerprint(w, e.fp)
		w.PutUvarint(uint64(len(e.providers)))
		for _, p := range e.providers {
			w.PutString(p)
		}
	}
}

func getManifest(r *wire.Reader) ([]manifestEntry, error) {
	n, err := getCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]manifestEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		e := manifestEntry{index: r.Uvarint(), fp: getFingerprint(r)}
		if e.providers, err = getProviderList(r); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, r.Err()
}

// getCount decodes the item count of a list whose items each occupy at
// least one byte (wire.Reader.Count).
func getCount(r *wire.Reader) (uint64, error) {
	n := r.Count()
	return n, r.Err()
}

// getProviderList decodes a write event's replica provider addresses.
func getProviderList(r *wire.Reader) ([]string, error) {
	n, err := getCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out, r.Err()
}

// Relocation asks the version manager to move one fingerprint's write-event
// references from one provider to another (see opRelocate).
type Relocation struct {
	FP   cas.Fingerprint
	From string
	To   string
}

func putRelocations(w *wire.Buffer, apply bool, relocs []Relocation) {
	w.PutU8(opRelocate)
	w.PutBool(apply)
	w.PutUvarint(uint64(len(relocs)))
	for _, rl := range relocs {
		putFingerprint(w, rl.FP)
		w.PutString(rl.From)
		w.PutString(rl.To)
	}
}

func putChunkKey(w *wire.Buffer, k chunkstore.Key) {
	w.PutU64(k.Blob)
	w.PutU64(k.ID)
}

func getChunkKey(r *wire.Reader) chunkstore.Key {
	var k chunkstore.Key
	k.Blob = r.U64()
	k.ID = r.U64()
	return k
}

func putEngineStats(w *wire.Buffer, es chunkstore.EngineStats) {
	w.PutString(es.Backend)
	w.PutUvarint(uint64(len(es.Fields)))
	for _, f := range es.Fields {
		w.PutString(f.Name)
		w.PutU64(f.Value)
	}
}

func getEngineStats(r *wire.Reader) chunkstore.EngineStats {
	var es chunkstore.EngineStats
	es.Backend = r.String()
	n := r.Uvarint()
	if n > 4096 {
		return es // implausible; the reader's error latch will surface it
	}
	es.Fields = make([]chunkstore.EngineField, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		es.Fields = append(es.Fields, chunkstore.EngineField{Name: r.String(), Value: r.U64()})
	}
	return es
}

// reqErr wraps a decode failure of an incoming request.
func reqErr(op int, r *wire.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("blobseer: bad request for op %d: %w", op, err)
	}
	return nil
}
