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
// # Requests
//
// A request is an op byte, named in the transport's op registry (verbs.go),
// followed by the op's fields in the wire encoding. The table below is the
// one description of each request's fields: request.encode writes them,
// decodeRequest reads them, and a service serves a frame only if it decoded
// whole, with nothing after its last field. An op owned by another service
// is refused as unknown before any of its fields is read.
//
// An "n x item" field is a uvarint count and the items back to back; a
// batch's reply has one item per request item, without a count. A
// fingerprint is a length-prefixed field of exactly 32 bytes. A version info
// is u64 version, u64 size, u64 span, bool root valid, u64 root blob and u64
// root version. A manifest entry is uvarint index, fingerprint and n x string
// provider. A chunk key is u64 blob, u64 id; a node key is u64 blob, u64
// version, u64 offset, u64 span. An index list is wire's (Buffer.PutIndices).
//
//	op   name               request fields                          reply
//	     version manager
//	1    create             u64 chunk size                          u64 blob
//	2    ticket             u64 blob                                u64 version
//	3    commit             u64 blob, version info, n x manifest    u64 published horizon
//	4    abort              u64 blob, u64 version                   empty
//	5    get-version        u64 blob, u64 version                   version info, u64 chunk size
//	6    latest             u64 blob                                version info, u64 chunk size
//	7    clone              u64 blob, u64 version                   u64 blob
//	8    list-live          —                                       n x (u64 blob, version info, u64 chunk size)
//	9    retire             u64 blob, u64 before                    u64 horizon, n x (fingerprint, n x string provider)
//	10   list-blobs         —                                       n x (u64 blob, u64 chunk size, u64 versions)
//	11   relocate           bool apply, n x (fingerprint,           per item: uvarint occurrences
//	                        string from, string to)
//	12   hint-put           u64 blob, index list                    empty
//	13   hint-get           u64 blob                                index list
//	     provider manager
//	32   register           string addr                             empty
//	33   providers          —                                       n x string addr
//	34   unregister         string addr                             empty
//	35   membership         —                                       u64 epoch, n x (string addr, u8 state)
//	36   drain              string addr                             empty
//	37   retire-provider    string addr                             empty
//	     data providers
//	64   chunk-delete       chunk key                               empty
//	65   chunk-list         —                                       n x chunk key
//	66   chunk-usage        —                                       u64 bytes, u64 chunks
//	67   cas-release-batch  n x fingerprint                         uvarint bodies reclaimed, u64 bytes
//	68   cas-stats          —                                       cas.Stats: 8 u64 counters
//	69   chunk-get-batch    n x chunk key                           per item: bool present, body if present
//	70   cas-ref-batch      n x fingerprint                         per item: bool held
//	71   cas-put-batch      n x (fingerprint, body)                 per item: bool dup
//	72   cas-release-n      fingerprint, uvarint n                  u64 refs left, u64 bytes reclaimed
//	73   store-stats        —                                       string backend, n x (string name, u64 value)
//	74   store-compact      —                                       uvarint segments, uvarint relocated, u64 bytes
//	     metadata providers
//	96   node-list          —                                       n x node key
//	97   node-delete        node key                                empty
//	98   node-usage         —                                       u64 bytes, u64 nodes
//	99   node-put-batch     n x (node key, encoded node)            empty
//	100  node-get-batch     n x node key                            per item: bool present, node if present
//
// Op bytes from 0xE0 up are not BlobSeer's: 0xE0–0xE4 are the introspection
// ops every endpoint answers (transport.Introspect, which each Serve mounts
// ahead of the service's own handler), and 0xF0 up are transport markers
// such as the trace-context header.
//
// # Batch verbs
//
// The hot data paths move whole per-provider sets per round trip instead of
// one item per call. chunk-get-batch reports absent chunks per item, not as
// a frame error, so the reader fails over only the chunks that need it.
// cas-ref-batch is the "have these fingerprints?" round trip, one per
// provider per commit: a reference is taken for every held fingerprint, so a
// writer that gets true back never ships the body at all. cas-put-batch
// validates every fingerprint against its body before any item is applied,
// so a corrupt frame takes no references, and the bodies the provider lacks
// reach its engine as one batch. cas-release-batch drops one reference per
// fingerprint — a retire's, or an aborted commit's, whole share of one
// provider. A Publish flushes its whole staged node set in one
// node-put-batch frame per shard; node-get-batch reports missing nodes per
// item, letting the tree layer tell holes from corruption, and the client
// splits its keys into frames by the bytes it expects back
// (meta.NodeSizeHint per node).
//
// # The boot-set hint
//
// The version manager keeps, per blob, the latest demand record a mirroring
// module published for it: the chunk indices an instance attached to one of
// the blob's snapshots had to fetch before it could run, in first-need order.
// The next attach replays it with one prefetch (the paper's adaptive
// prefetching). The record is advisory and heap-only — losing it costs one
// cold restart — so it needs no journal. hint-put replaces the blob's
// record, and a record whose chunks exceed maxHintBytes is refused whole;
// hint-get answers an empty list for a blob without one.
package blobseer

import (
	"encoding/binary"
	"fmt"
	"math"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// Op codes for the version manager.
const (
	opCreate = iota + 1
	opTicket
	opCommit
	opAbort
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

	// The boot-set hint (see the package comment).
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
	opCasReleaseBatch
	opCasStats
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

// maxBatchItems bounds the item count of one batch frame: far above any
// legitimate batch (the client splits its frames by batchBytesLimit and
// maxFrameItems, both well below this) and small enough to reject a corrupt
// count before allocating.
const maxBatchItems = 1 << 20

// request is one BlobSeer request, decoded or to be encoded. Which fields an
// op carries is the package comment's table.
type request struct {
	op   byte
	blob uint64 // the blob a version manager op names
	arg  uint64 // create's chunk size; the version of abort, get-version and clone; retire's before; cas-release-n's n
	addr string // the provider manager's ops

	info     VersionInfo     // commit
	manifest []manifestEntry // commit
	apply    bool            // relocate
	relocs   []Relocation    // relocate
	indices  []uint64        // hint-put

	fps    []cas.Fingerprint // the cas batches; cas-release-n's one
	bodies [][]byte          // cas-put-batch, aligned with fps
	chunks []chunkstore.Key  // chunk-get-batch; chunk-delete's one
	nodes  []meta.NodeKey    // node-get-batch, node-put-batch; node-delete's one
	vals   [][]byte          // node-put-batch's encoded nodes, aligned with nodes
}

// encode builds q's request frame. A cas-put-batch frame comes from wire's
// frame pool: once the call returns, the caller hands it back with
// wire.PutFrame.
func (q request) encode() *wire.Buffer {
	size := 64 + len(q.addr) + 48*len(q.fps) + 40*len(q.nodes) + 16*len(q.chunks) +
		64*(len(q.relocs)+len(q.manifest)) + binary.MaxVarintLen64*len(q.indices)
	for i := range q.bodies {
		size += len(q.bodies[i])
	}
	for i := range q.vals {
		size += len(q.vals[i])
	}
	var w *wire.Buffer
	if q.op == opCasPutBatch {
		w = wire.NewFrameBuffer(size)
	} else {
		w = wire.NewBuffer(size)
	}
	w.PutU8(q.op)
	switch q.op {
	case opCreate:
		w.PutU64(q.arg)
	case opTicket, opLatest, opHintGet:
		w.PutU64(q.blob)
	case opAbort, opGetVersion, opClone, opRetire:
		w.PutU64(q.blob)
		w.PutU64(q.arg)
	case opCommit:
		w.PutU64(q.blob)
		putVersionInfo(w, q.info)
		putList(w, q.manifest, putManifestEntry)
	case opRelocate:
		w.PutBool(q.apply)
		putList(w, q.relocs, putRelocation)
	case opHintPut:
		w.PutU64(q.blob)
		w.PutIndices(q.indices)
	case opRegister, opUnregister, opDrain, opRetireProvider:
		w.PutString(q.addr)
	case opChunkDelete:
		putChunkKey(w, q.chunks[0])
	case opChunkGetBatch:
		putList(w, q.chunks, putChunkKey)
	case opCasRefBatch, opCasReleaseBatch:
		putList(w, q.fps, putFingerprint)
	case opCasPutBatch:
		w.PutUvarint(uint64(len(q.fps)))
		for i, fp := range q.fps {
			putFingerprint(w, fp)
			w.PutBytes(q.bodies[i])
		}
	case opCasReleaseN:
		putFingerprint(w, q.fps[0])
		w.PutUvarint(q.arg)
	case opNodeDelete:
		putNodeKey(w, q.nodes[0])
	case opNodeGetBatch:
		putList(w, q.nodes, putNodeKey)
	case opNodePutBatch:
		w.PutUvarint(uint64(len(q.nodes)))
		for i, k := range q.nodes {
			putNodeKey(w, k)
			w.PutBytes(q.vals[i])
		}
	}
	return w
}

// decodeRequest parses a request frame. The frame comes off the network, so
// an unknown op, a truncated or non-canonical field, an implausible count or
// a byte after the last field rejects it whole, before anything is served.
// Bodies and encoded nodes are windows of frame.
func decodeRequest(frame []byte) (request, error) {
	r := wire.NewReader(frame)
	q := request{op: r.U8()}
	switch q.op {
	case opCreate:
		q.arg = r.U64()
	case opTicket, opLatest, opHintGet:
		q.blob = r.U64()
	case opAbort, opGetVersion, opClone, opRetire:
		q.blob, q.arg = r.U64(), r.U64()
	case opCommit:
		// The manifest is the only record Retire releases from: a commit
		// of more chunks than a batch still carries all of them.
		q.blob, q.info, q.manifest = r.U64(), getVersionInfo(r), getList(r, math.MaxUint64, getManifestEntry)
	case opRelocate:
		q.apply, q.relocs = r.Bool(), getList(r, maxBatchItems, getRelocation)
	case opHintPut:
		// The cap depends on the blob's chunk size, which the handler
		// checks; a chunk is at least one byte, so no record under the cap
		// names more than maxHintBytes chunks.
		q.blob, q.indices = r.U64(), r.Indices(maxHintBytes)
	case opRegister, opUnregister, opDrain, opRetireProvider:
		q.addr = r.String()
	case opChunkDelete:
		q.chunks = []chunkstore.Key{getChunkKey(r)}
	case opChunkGetBatch:
		q.chunks = getList(r, maxBatchItems, getChunkKey)
	case opCasRefBatch, opCasReleaseBatch:
		q.fps = getList(r, maxBatchItems, getFingerprint)
	case opCasPutBatch:
		n := r.CountAtMost(maxBatchItems)
		q.fps, q.bodies = make([]cas.Fingerprint, n), make([][]byte, n)
		for i := range q.fps {
			q.fps[i], q.bodies[i] = getFingerprint(r), r.Bytes()
		}
	case opCasReleaseN:
		q.fps, q.arg = []cas.Fingerprint{getFingerprint(r)}, r.Uvarint()
	case opNodeDelete:
		q.nodes = []meta.NodeKey{getNodeKey(r)}
	case opNodeGetBatch:
		q.nodes = getList(r, maxBatchItems, getNodeKey)
	case opNodePutBatch:
		n := r.CountAtMost(maxBatchItems)
		q.nodes, q.vals = make([]meta.NodeKey, n), make([][]byte, n)
		for i := range q.nodes {
			q.nodes[i], q.vals[i] = getNodeKey(r), r.Bytes()
		}
	case opListLive, opListBlobs, opProviders, opMembership, opChunkList, opChunkUsage,
		opCasStats, opStoreStats, opStoreCompact, opNodeList, opNodeUsage:
	default:
		return q, fmt.Errorf("blobseer: unknown op %d", q.op)
	}
	if err := r.End(); err != nil {
		return q, fmt.Errorf("blobseer: bad %s request: %w", transport.OpName(q.op), err)
	}
	return q, nil
}

// decodeFor decodes a request to the service whose ops run from first to
// last. Any other op is another service's, refused as unknown before any of
// its fields is read.
func decodeFor(service string, first, last byte, frame []byte) (request, error) {
	if len(frame) > 0 && (frame[0] < first || frame[0] > last) {
		return request{}, fmt.Errorf("blobseer: %s: unknown op %d", service, frame[0])
	}
	return decodeRequest(frame)
}

// putList writes a list field: a uvarint count, then each item.
func putList[T any](w *wire.Buffer, items []T, put func(*wire.Buffer, T)) {
	w.PutUvarint(uint64(len(items)))
	for _, item := range items {
		put(w, item)
	}
}

// getList reads a list field of at most limit items. A count over the limit
// or over the bytes left in the frame fails the reader before anything is
// allocated from it.
func getList[T any](r *wire.Reader, limit uint64, get func(*wire.Reader) T) []T {
	n := r.CountAtMost(limit)
	if r.Err() != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(r)
	}
	return out
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
	copy(fp[:], r.FixedBytes(len(fp)))
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
// A retire reply's releases are manifest entries without an index.
type manifestEntry struct {
	index     uint64
	fp        cas.Fingerprint
	providers []string
}

func putManifestEntry(w *wire.Buffer, e manifestEntry) {
	w.PutUvarint(e.index)
	putRelease(w, e)
}

func getManifestEntry(r *wire.Reader) manifestEntry {
	index := r.Uvarint()
	e := getRelease(r)
	e.index = index
	return e
}

// putRelease writes a retire reply's release: a fingerprint and the
// providers holding its references.
func putRelease(w *wire.Buffer, e manifestEntry) {
	putFingerprint(w, e.fp)
	putList(w, e.providers, (*wire.Buffer).PutString)
}

func getRelease(r *wire.Reader) manifestEntry {
	return manifestEntry{fp: getFingerprint(r), providers: getList(r, math.MaxUint64, (*wire.Reader).String)}
}

// Relocation asks the version manager to move one fingerprint's write-event
// references from one provider to another (see opRelocate).
type Relocation struct {
	FP   cas.Fingerprint
	From string
	To   string
}

func putRelocation(w *wire.Buffer, rl Relocation) {
	putFingerprint(w, rl.FP)
	w.PutString(rl.From)
	w.PutString(rl.To)
}

func getRelocation(r *wire.Reader) Relocation {
	return Relocation{FP: getFingerprint(r), From: r.String(), To: r.String()}
}

func putChunkKey(w *wire.Buffer, k chunkstore.Key) {
	w.PutU64(k.Blob)
	w.PutU64(k.ID)
}

func getChunkKey(r *wire.Reader) chunkstore.Key {
	return chunkstore.Key{Blob: r.U64(), ID: r.U64()}
}

// maxEngineFields bounds the counters of a store-stats reply.
const maxEngineFields = 4096

func putEngineStats(w *wire.Buffer, es chunkstore.EngineStats) {
	w.PutString(es.Backend)
	putList(w, es.Fields, func(w *wire.Buffer, f chunkstore.EngineField) {
		w.PutString(f.Name)
		w.PutU64(f.Value)
	})
}

func getEngineStats(r *wire.Reader) chunkstore.EngineStats {
	return chunkstore.EngineStats{
		Backend: r.String(),
		Fields: getList(r, maxEngineFields, func(r *wire.Reader) chunkstore.EngineField {
			return chunkstore.EngineField{Name: r.String(), Value: r.U64()}
		}),
	}
}
