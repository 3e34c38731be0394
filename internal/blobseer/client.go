package blobseer

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// Client accesses a BlobSeer deployment. Apart from the deployment addresses
// its only state is a bounded cache of immutable metadata-tree nodes
// (meta.NodeCache), which never goes stale; it is safe for concurrent use and
// cheap to create one per goroutine. A Client starts cold: whoever wants a
// restart measured without a warm cache gives it a Client of its own, as
// internal/cloud does for every instance it deploys.
//
// Every commit is content-addressed (internal/cas): chunks are fingerprinted,
// placed by rendezvous hash of their content, and a "have these
// fingerprints?" round trip (opCasRefBatch, one per provider per commit)
// skips the body transfer for content any snapshot already stored. Retire
// releases the retired snapshots' references, and every body read back is
// verified against its content key.
//
// Every operation takes a context.Context: cancelling it abandons the
// operation. A cancelled commit runs its abort path under a detached context
// (context.WithoutCancel), releasing the version ticket and every
// content-addressed reference the commit had taken, so dedup refcounts never
// leak.
//
// Concurrent writers to *different* blobs are fully supported (that is the
// checkpoint workload: one checkpoint image per VM). Concurrent writers to
// the same blob are serialized by version-manager tickets; each writer
// should base its metadata on the latest *published* version.
type Client struct {
	Net         transport.Network
	VMAddr      string   // version manager
	PMAddr      string   // provider manager
	MetaAddrs   []string // metadata providers, hash-sharded
	Replication int      // chunk replica count (default 1)

	// Parallelism bounds how many per-provider streams a commit or restore
	// runs concurrently. The data path groups chunks by provider and moves
	// each group in batched frames over its own stream, so wall time scales
	// down with the striping width up to this bound. Zero means
	// DefaultParallelism.
	Parallelism int

	// Obs is the metrics registry the client's instrumentation records into
	// (commit stage spans, dedup hit bytes, batch round trips, per-provider
	// stream times, failover counters). Nil means obs.Default.
	Obs *obs.Registry

	nodesOnce sync.Once
	nodes     *meta.NodeCache
}

// nodeCacheBytes bounds the client's tree-node cache. One of its two
// generations holds the whole tree of a 128 Ki-chunk image (8 192 full
// bottom nodes of ~370 bytes), or the upper levels of any larger one.
const nodeCacheBytes = 8 << 20

// Registry returns the client's metrics registry (obs.Default when unset),
// so layers above (mirror, proxy) record into the same scrape surface.
func (c *Client) Registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default
}

func (c *Client) replication() int {
	if c.Replication < 1 {
		return 1
	}
	return c.Replication
}

// call issues one request under an RPC span named by the op byte and
// decodes errors.
func (c *Client) call(ctx context.Context, addr string, w *wire.Buffer) (*wire.Reader, error) {
	req := w.Bytes()
	resp, err := c.rpc(ctx, addr, OpName(req[0]), req)
	if err != nil {
		return nil, err
	}
	return wire.NewReader(resp), nil
}

// nodeStore returns the remote metadata NodeStore view, bound to ctx for the
// duration of one tree operation.
func (c *Client) nodeStore(ctx context.Context) *remoteNodeStore {
	return &remoteNodeStore{ctx: ctx, c: c, addrs: c.MetaAddrs, par: c.parallelism()}
}

// tree returns the metadata tree over the client's node cache, bound to ctx
// for the duration of one tree operation.
func (c *Client) tree(ctx context.Context) *meta.Tree {
	return c.treeOver(c.nodeStore(ctx))
}

// treeOver is tree over a store view the caller keeps, to read its
// round-trip count afterwards. The cache is created on first use: a Client
// is built as a struct literal.
func (c *Client) treeOver(store *remoteNodeStore) *meta.Tree {
	c.nodesOnce.Do(func() { c.nodes = meta.NewNodeCache(nodeCacheBytes) })
	reg := obs.RegistryFrom(store.ctx)
	return &meta.Tree{Store: c.nodes.Store(store,
		reg.Counter("blobseer_node_cache_hits_total"), reg.Counter("blobseer_node_cache_misses_total"))}
}

// remoteNodeStore shards tree nodes across metadata providers by key hash.
// It is a request-scoped view: the context is the operation's, captured when
// the store is created, because meta.NodeStore is context-free. Node sets
// are grouped by shard and moved with one batched round trip per metadata
// provider, the shard calls running concurrently up to par streams.
type remoteNodeStore struct {
	ctx   context.Context
	c     *Client
	addrs []string
	par   int
	gets  atomic.Uint64 // node-get-batch round trips issued through this view
}

func (s *remoteNodeStore) shard(k meta.NodeKey) string {
	h := fnv.New64a()
	var buf [32]byte
	le := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	le(0, k.Blob)
	le(8, k.Version)
	le(16, k.Offset)
	le(24, k.Span)
	h.Write(buf[:])
	return s.addrs[h.Sum64()%uint64(len(s.addrs))]
}

// PutNodes implements meta.NodeStore: the staged node set is grouped by
// shard and flushed with one opNodePutBatch frame per metadata provider.
// What a commit's publish stage writes is counted into
// blobseer_publish_nodes_total and blobseer_publish_node_bytes_total.
func (s *remoteNodeStore) PutNodes(puts []meta.NodePut) error {
	if len(puts) == 0 {
		return nil
	}
	groups := make(map[string][]meta.NodePut)
	var size uint64
	for _, p := range puts {
		addr := s.shard(p.Key)
		groups[addr] = append(groups[addr], p)
		size += uint64(len(p.Encoded))
	}
	reg := obs.RegistryFrom(s.ctx)
	reg.Counter("blobseer_publish_nodes_total").Add(uint64(len(puts)))
	reg.Counter("blobseer_publish_node_bytes_total").Add(size)
	return runGroups(s.ctx, s.par, groups, func(ctx context.Context, addr string, batch []meta.NodePut) error {
		return splitByBytes(len(batch), func(i int) int { return 40 + len(batch[i].Encoded) }, func(start, end int) error {
			size := 16
			for _, p := range batch[start:end] {
				size += 40 + len(p.Encoded)
			}
			w := wire.NewBuffer(size)
			w.PutU8(opNodePutBatch)
			w.PutUvarint(uint64(end - start))
			for _, p := range batch[start:end] {
				putNodeKey(w, p.Key)
				w.PutBytes(p.Encoded)
			}
			obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "node-put-batch")).Inc()
			if _, err := s.c.rpc(ctx, addr, "node-put-batch", w.Bytes()); err != nil {
				return fmt.Errorf("blobseer: put %d nodes to %s: %w", end-start, addr, err)
			}
			return nil
		})
	})
}

// GetNodes implements meta.NodeStore: keys are grouped by shard, fetched
// with opNodeGetBatch frames per metadata provider — one, unless the nodes
// expected back exceed batchBytesLimit — and returned aligned with the input
// (missing nodes are nil entries).
func (s *remoteNodeStore) GetNodes(keys []meta.NodeKey) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	groups := make(map[string][]int) // shard -> positions in keys
	for i, k := range keys {
		addr := s.shard(k)
		groups[addr] = append(groups[addr], i)
	}
	out := make([][]byte, len(keys))
	err := runGroups(s.ctx, s.par, groups, func(ctx context.Context, addr string, positions []int) error {
		return splitByBytes(len(positions), func(int) int { return meta.NodeSizeHint }, func(start, end int) error {
			w := wire.NewBuffer(16 + 40*(end-start))
			w.PutU8(opNodeGetBatch)
			w.PutUvarint(uint64(end - start))
			for _, pos := range positions[start:end] {
				putNodeKey(w, keys[pos])
			}
			obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "node-get-batch")).Inc()
			s.gets.Add(1)
			resp, err := s.c.rpc(ctx, addr, "node-get-batch", w.Bytes())
			if err != nil {
				return fmt.Errorf("blobseer: get %d nodes from %s: %w", end-start, addr, err)
			}
			r := wire.NewReader(resp)
			for _, pos := range positions[start:end] {
				if r.Bool() {
					out[pos] = r.BytesCopy()
				}
			}
			return r.Err()
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CreateBlob registers a new empty BLOB with the given chunk size and
// returns its id.
func (c *Client) CreateBlob(ctx context.Context, chunkSize uint64) (uint64, error) {
	w := wire.NewBuffer(16)
	w.PutU8(opCreate)
	w.PutU64(chunkSize)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return 0, err
	}
	id := r.U64()
	return id, r.Err()
}

// Latest returns the most recent published version of the blob and the
// blob's chunk size.
func (c *Client) Latest(ctx context.Context, blob uint64) (VersionInfo, uint64, error) {
	w := wire.NewBuffer(16)
	w.PutU8(opLatest)
	w.PutU64(blob)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return VersionInfo{}, 0, err
	}
	info := getVersionInfo(r)
	cs := r.U64()
	return info, cs, r.Err()
}

// GetVersion returns the referenced published version and the blob's chunk
// size.
func (c *Client) GetVersion(ctx context.Context, ref SnapshotRef) (VersionInfo, uint64, error) {
	w := wire.NewBuffer(24)
	w.PutU8(opGetVersion)
	w.PutU64(ref.Blob)
	w.PutU64(ref.Version)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return VersionInfo{}, 0, err
	}
	info := getVersionInfo(r)
	cs := r.U64()
	return info, cs, r.Err()
}

// ChunkSize returns the blob's chunk size (works for blobs with no
// published versions).
func (c *Client) ChunkSize(ctx context.Context, blob uint64) (uint64, error) {
	blobs, err := c.ListBlobs(ctx)
	if err != nil {
		return 0, err
	}
	for _, b := range blobs {
		if b.ID == blob {
			return b.ChunkSize, nil
		}
	}
	return 0, fmt.Errorf("%w: %d", ErrBlobNotFound, blob)
}

// BlobInfo summarizes one blob in ListBlobs output.
type BlobInfo struct {
	ID        uint64
	ChunkSize uint64
	Versions  uint64
}

// ListBlobs enumerates all blobs known to the version manager.
func (c *Client) ListBlobs(ctx context.Context) ([]BlobInfo, error) {
	w := wire.NewBuffer(8)
	w.PutU8(opListBlobs)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return nil, err
	}
	n, err := getCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]BlobInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, BlobInfo{ID: r.U64(), ChunkSize: r.U64(), Versions: r.U64()})
	}
	return out, r.Err()
}

// CommitStats reports what one WriteVersion moved and what deduplication
// saved. LogicalBytes is the commit's payload — each written chunk counted
// once, independent of replication — so dedup hit-rate math is not skewed by
// the replica count; TransferBytes is what actually crossed the network,
// including replica copies.
type CommitStats struct {
	Chunks        int    // chunks written by the commit
	DedupChunks   int    // chunks whose body was already held by every replica
	LogicalBytes  uint64 // payload bytes, counted once per chunk
	DedupHitBytes uint64 // payload bytes of the dedup'd chunks (counted once per chunk)
	TransferBytes uint64 // bytes actually shipped to data providers

	// Bodies the hash stage did not hash: byte-equal to one the writer's
	// fingerprint memo kept from its previous commit (cas.Memo), which
	// lent its fingerprint.
	HashMemoChunks int
	HashMemoBytes  uint64
}

// Add accumulates other into s (aggregation across commits or modules).
func (s *CommitStats) Add(o CommitStats) {
	s.Chunks += o.Chunks
	s.DedupChunks += o.DedupChunks
	s.LogicalBytes += o.LogicalBytes
	s.DedupHitBytes += o.DedupHitBytes
	s.TransferBytes += o.TransferBytes
	s.HashMemoChunks += o.HashMemoChunks
	s.HashMemoBytes += o.HashMemoBytes
}

// WriteVersion publishes a new version of blob consisting of the previous
// version's content overlaid with the given whole-chunk writes, and resizes
// the blob to newSize bytes (pass the previous size to keep it). The chunk
// data slices must each be at most chunkSize long. This is the COMMIT
// primitive of the paper: only the written chunks move; everything else is
// shared with the previous version.
func (c *Client) WriteVersion(ctx context.Context, blob uint64, writes map[uint64][]byte, newSize uint64) (VersionInfo, error) {
	info, _, err := c.WriteVersionStats(ctx, blob, writes, newSize)
	return info, err
}

// WriteVersionStats is WriteVersion returning per-commit transfer and dedup
// accounting. If ctx is cancelled mid-commit, the abort path runs under a
// detached context: the version ticket is released and every
// content-addressed reference the commit took is returned, so refcounts stay
// balanced.
func (c *Client) WriteVersionStats(ctx context.Context, blob uint64, writes map[uint64][]byte, newSize uint64) (VersionInfo, CommitStats, error) {
	return c.writeVersion(ctx, blob, nil, nil, writes, newSize)
}

// WriteVersionFrom publishes a new version of base.Blob whose unwritten
// content comes from the given published base snapshot rather than from the
// blob's latest version. This is the rollback-safe COMMIT: after a
// deployment rolls back to an older snapshot, a newer orphaned version (a
// commit that was publishing when the failure hit) may still be the blob's
// latest — basing the next commit on it would silently resurrect the very
// writes the rollback undid. The mirroring module commits through this path,
// passing the snapshot its device actually exposes.
func (c *Client) WriteVersionFrom(ctx context.Context, base SnapshotRef, writes map[uint64][]byte, newSize uint64) (VersionInfo, error) {
	info, _, err := c.writeVersion(ctx, base.Blob, &base, nil, writes, newSize)
	return info, err
}

// WriteVersionStatsFrom is WriteVersionFrom returning per-commit transfer
// and dedup accounting. The hash stage fingerprints through memo (nil
// hashes every body) and then keeps this commit's bodies in it, so a body
// the next commit finds byte-equal to one of them is not hashed again. A
// kept body must never be mutated afterwards: pass a memo only when writes
// holds buffers no one writes again, as the mirroring module's frozen
// captures are.
func (c *Client) WriteVersionStatsFrom(ctx context.Context, base SnapshotRef, memo *cas.Memo, writes map[uint64][]byte, newSize uint64) (VersionInfo, CommitStats, error) {
	return c.writeVersion(ctx, base.Blob, &base, memo, writes, newSize)
}

// writeVersion implements both commit flavors: with base == nil the new
// version overlays the blob's latest published version; otherwise it
// overlays the explicitly named base snapshot. It wraps the staged
// implementation with the commit-level telemetry: per-commit counters and
// the registry attachment the stage spans and batch counters below record
// through.
func (c *Client) writeVersion(ctx context.Context, blob uint64, base *SnapshotRef, memo *cas.Memo, writes map[uint64][]byte, newSize uint64) (VersionInfo, CommitStats, error) {
	ctx = obs.WithRegistry(ctx, c.Obs)
	reg := obs.RegistryFrom(ctx)
	info, stats, err := c.writeVersionStaged(ctx, blob, base, memo, writes, newSize)
	if err != nil {
		reg.Counter("blobseer_commit_failures_total").Inc()
		return info, stats, err
	}
	reg.Counter("blobseer_commits_total").Inc()
	reg.Counter("blobseer_commit_chunks_total").Add(uint64(stats.Chunks))
	reg.Counter("blobseer_dedup_hit_chunks_total").Add(uint64(stats.DedupChunks))
	reg.Counter("blobseer_dedup_hit_bytes_total").Add(stats.DedupHitBytes)
	reg.Counter("blobseer_hash_memo_chunks_total").Add(uint64(stats.HashMemoChunks))
	reg.Counter("blobseer_hash_memo_bytes_total").Add(stats.HashMemoBytes)
	reg.Counter("blobseer_commit_logical_bytes_total").Add(stats.LogicalBytes)
	reg.Counter("blobseer_commit_transfer_bytes_total").Add(stats.TransferBytes)
	return info, stats, nil
}

// writeVersionStaged is the commit pipeline proper, decomposed into the
// named probe → hash → upload → publish → durable stages the suspend-window
// breakdown reports (the capture stage happens above, in internal/mirror,
// under the VM suspend).
func (c *Client) writeVersionStaged(ctx context.Context, blob uint64, base *SnapshotRef, memo *cas.Memo, writes map[uint64][]byte, newSize uint64) (VersionInfo, CommitStats, error) {
	var stats CommitStats
	// Cleanup must run even when ctx is already cancelled.
	cleanupCtx := context.WithoutCancel(ctx)

	// Stage: probe — base-version lookup, size validation, ticket. Each
	// stage's derived context parents the RPC spans issued inside it, so an
	// assembled trace nests the wire traffic under its stage. The deferred
	// Ends are no-ops on the success path (End is idempotent); they close the
	// in-flight stage when an error path returns early.
	probeCtx, probe := obs.StartSpan(ctx, obs.SpanCommitProbe)
	defer probe.End()

	// Previous version (absent for the first write).
	var prev VersionInfo
	var chunkSize uint64
	if base != nil {
		prevInfo, cs, err := c.GetVersion(probeCtx, *base)
		if err != nil {
			return VersionInfo{}, stats, fmt.Errorf("blobseer: commit base %s: %w", *base, err)
		}
		prev = prevInfo
		chunkSize = cs
	} else {
		prevInfo, cs, err := c.Latest(probeCtx, blob)
		switch {
		case err == nil:
			prev = prevInfo
			chunkSize = cs
		case IsNotFound(err):
			chunkSize, err = c.ChunkSize(probeCtx, blob)
			if err != nil {
				return VersionInfo{}, stats, err
			}
		default:
			return VersionInfo{}, stats, err
		}
	}
	for idx, data := range writes {
		if uint64(len(data)) > chunkSize {
			return VersionInfo{}, stats, fmt.Errorf("blobseer: chunk %d: %d bytes exceeds chunk size %d", idx, len(data), chunkSize)
		}
	}

	// Ticket: the version number this commit will publish under.
	w := wire.NewBuffer(16)
	w.PutU8(opTicket)
	w.PutU64(blob)
	r, err := c.call(probeCtx, c.VMAddr, w)
	if err != nil {
		return VersionInfo{}, stats, err
	}
	version := r.U64()
	if err := r.Err(); err != nil {
		return VersionInfo{}, stats, err
	}
	probe.End()

	// Stage: hash — every dirty chunk is fingerprinted before the first
	// probe can leave. It is pure CPU, so it runs on every core the process
	// has (and no more: a restart beside it keeps its share). A body
	// byte-equal to one the memo kept from the writer's previous commit
	// takes that body's fingerprint instead of a second SHA-256.
	hashCtx, hash := obs.StartSpan(ctx, obs.SpanCommitHash)
	defer hash.End()
	sw := obs.StartTimer()
	// Deterministic order of chunk uploads.
	indices := make([]uint64, 0, len(writes))
	for idx := range writes {
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
	fps := make([]cas.Fingerprint, len(indices))
	bodies := make([][]byte, len(indices))
	memoHits := make([]bool, len(indices))
	if err := runLimited(hashCtx, runtime.GOMAXPROCS(0), len(indices), func(_ context.Context, i int) error {
		bodies[i] = writes[indices[i]]
		fps[i], memoHits[i] = memo.Sum(bodies[i])
		return nil
	}); err != nil {
		c.abort(cleanupCtx, blob, version)
		return VersionInfo{}, stats, err
	}
	for i, hit := range memoHits {
		if hit {
			stats.HashMemoChunks++
			stats.HashMemoBytes += uint64(len(bodies[i]))
		}
	}
	memo.Keep(bodies, fps)
	sw.ObserveInto(obs.RegistryFrom(ctx).Histogram("blobseer_commit_hash_ns"))
	hash.End()

	// Stage: upload — chunk bodies move to the data providers.
	uploadCtx, upload := obs.StartSpan(ctx, obs.SpanCommitUpload)
	defer upload.End()

	leaves, manifest, err := c.uploadDedup(uploadCtx, indices, fps, writes, &stats)
	if err != nil {
		c.abort(cleanupCtx, blob, version)
		return VersionInfo{}, stats, err
	}
	upload.End()

	// Stage: publish — the metadata tree for the new version.
	publishCtx, publish := obs.StartSpan(ctx, obs.SpanCommitPublish)
	defer publish.End()

	// Metadata tree for the new version.
	maxIdx := uint64(0)
	if newSize > 0 {
		maxIdx = (newSize + chunkSize - 1) / chunkSize
	}
	for _, idx := range indices {
		if idx+1 > maxIdx {
			maxIdx = idx + 1
		}
	}
	newSpan := meta.NextPow2(maxIdx)
	if newSpan < prev.Span {
		newSpan = prev.Span
	}
	root, err := c.tree(publishCtx).Publish(blob, version, prev.Root, prev.Span, newSpan, leaves)
	if err != nil {
		c.releaseRefs(cleanupCtx, manifest)
		c.abort(cleanupCtx, blob, version)
		return VersionInfo{}, stats, err
	}
	publish.End()

	// Stage: durable — the version-manager commit makes the version
	// restart-visible.
	durableCtx, durable := obs.StartSpan(ctx, obs.SpanCommitDurable)
	defer durable.End()

	// Commit. The write manifest rides along so the version manager can
	// track which write supersedes which (refcount GC).
	info := VersionInfo{Version: version, Size: newSize, Span: newSpan, Root: root}
	w = wire.NewBuffer(64)
	w.PutU8(opCommit)
	w.PutU64(blob)
	putVersionInfo(w, info)
	putManifest(w, manifest)
	if _, err := c.call(durableCtx, c.VMAddr, w); err != nil {
		// The commit may or may not have landed; releasing refs here could
		// double-release a published version's chunks. Leave reconciliation
		// to the mark-and-sweep fallback.
		return VersionInfo{}, stats, err
	}
	durable.End()
	return info, stats, nil
}

// uploadDedup is the commit's upload stage: each chunk — fps[i] is the
// fingerprint of writes[indices[i]], from the hash stage — is placed on the
// providers that rendezvous-hashing assigns to its content (so identical
// content always lands on the same providers, cluster-wide), and shipped
// only if the provider does not already hold the fingerprint. Returns
// the leaves and the commit's write manifest. On any failure — including ctx
// cancellation — every reference taken so far is released under a detached
// context before returning.
//
// The probe/upload traffic is batched per provider: each round issues one
// "have these fingerprints?" round trip (opCasRefBatch) and at most one body
// upload pass (opCasPutBatch frames) per provider, the providers proceeding
// concurrently — O(providers) round trips per commit instead of O(chunks),
// and each put frame is one batch in the provider's engine: one sync per
// frame, not per chunk. When a ranked provider is unreachable, its chunks move to the next-ranked
// provider in the following round (write-path failover); the leaf and
// manifest record where replicas actually landed, so reads and refcount
// releases find them.
func (c *Client) uploadDedup(ctx context.Context, indices []uint64, fps []cas.Fingerprint, writes map[uint64][]byte, stats *CommitStats) (map[uint64]meta.Leaf, []manifestEntry, error) {
	leaves := make(map[uint64]meta.Leaf, len(writes))
	manifest := make([]manifestEntry, 0, len(writes))
	if len(writes) == 0 {
		return leaves, nil, nil
	}
	providers, err := c.Providers(ctx)
	if err != nil {
		return nil, nil, err
	}
	if len(providers) == 0 {
		return nil, nil, errors.New("blobseer: no data providers registered")
	}

	type casChunk struct {
		idx     uint64
		data    []byte
		fp      cas.Fingerprint
		ranked  []string
		next    int      // next rank to try
		want    int      // replicas required
		taken   []string // providers holding a reference for this chunk
		shipped int      // replica bodies that crossed the network
		lastErr error
	}
	chunks := make([]*casChunk, len(indices))
	for i, idx := range indices {
		data, fp := writes[idx], fps[i]
		ranked := casPlacementRanked(fp, providers)
		want := c.replication()
		if want > len(ranked) {
			want = len(ranked)
		}
		chunks[i] = &casChunk{idx: idx, data: data, fp: fp, ranked: ranked, want: want}
	}

	// abort releases every reference taken so far under a detached context,
	// so refcounts stay exactly balanced even on cancellation.
	abort := func() {
		rel := make([]manifestEntry, 0, len(chunks))
		for _, ch := range chunks {
			if len(ch.taken) > 0 {
				rel = append(rel, manifestEntry{fp: ch.fp, providers: ch.taken})
			}
		}
		c.releaseRefs(context.WithoutCancel(ctx), rel)
	}

	failed := make(map[string]bool) // providers seen unreachable this commit
	var mu sync.Mutex               // guards failed and per-chunk result fields

	for {
		// Assign every unsatisfied chunk to its next-ranked live provider.
		assign := make(map[string][]*casChunk)
		for _, ch := range chunks {
			if len(ch.taken) >= ch.want {
				continue
			}
			for ch.next < len(ch.ranked) && failed[ch.ranked[ch.next]] {
				ch.next++
			}
			if ch.next >= len(ch.ranked) {
				abort()
				lastErr := ch.lastErr
				if lastErr == nil {
					// The chunk's remaining ranks were all skipped via the
					// shared failed set: the frame that failed belonged to
					// other chunks, so this one never recorded an error.
					lastErr = fmt.Errorf("%w: every remaining ranked provider failed earlier in this commit", transport.ErrUnreachable)
				}
				return nil, nil, fmt.Errorf("blobseer: chunk %d: placed %d of %d replicas: %w", ch.idx, len(ch.taken), ch.want, lastErr)
			}
			addr := ch.ranked[ch.next]
			ch.next++
			assign[addr] = append(assign[addr], ch)
		}
		if len(assign) == 0 {
			break // every chunk holds its full replica count
		}
		err := runGroups(ctx, c.parallelism(), assign, func(ctx context.Context, addr string, batch []*casChunk) error {
			fps := make([]cas.Fingerprint, len(batch))
			for i, ch := range batch {
				fps[i] = ch.fp
			}
			// One "have these fingerprints?" probe for the whole batch; a
			// held fingerprint has taken its reference the moment the
			// response lands, so record it immediately — an error later in
			// the commit must release exactly these. On a mid-probe error
			// the completed frames' references are recorded first (valid
			// bounds them), then the rest of the batch fails over.
			held, valid, err := c.casRefBatch(ctx, addr, fps)
			if err != nil {
				mu.Lock()
				for i, ch := range batch {
					if i < valid && held[i] {
						ch.taken = append(ch.taken, addr)
					} else {
						ch.lastErr = err
					}
				}
				failed[addr] = true
				mu.Unlock()
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				return nil // failover: chunks retry on their next rank
			}
			// Split the misses into one representative per distinct
			// fingerprint (its body must ship) and duplicates (same content
			// at another chunk index: once the representative's body lands,
			// a second probe turns them into dedup hits — no redundant body
			// in the frame).
			var missing, dupes []*casChunk
			seen := make(map[cas.Fingerprint]bool)
			mu.Lock()
			for i, ch := range batch {
				switch {
				case held[i]:
					ch.taken = append(ch.taken, addr)
				case seen[ch.fp]:
					dupes = append(dupes, ch)
				default:
					seen[ch.fp] = true
					missing = append(missing, ch)
				}
			}
			mu.Unlock()
			// Upload the bodies the provider lacks, in frames of at most
			// batchBytesLimit. The body crosses the network even if a
			// concurrent writer wins the race and the provider reports a
			// duplicate, so it always counts as transferred.
			err = splitByBytes(len(missing), func(i int) int { return len(missing[i].data) }, func(start, end int) error {
				bfps := make([]cas.Fingerprint, 0, end-start)
				bodies := make([][]byte, 0, end-start)
				for _, ch := range missing[start:end] {
					bfps = append(bfps, ch.fp)
					bodies = append(bodies, ch.data)
				}
				if err := c.casPutBatch(ctx, addr, bfps, bodies); err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return cerr
					}
					mu.Lock()
					failed[addr] = true
					for _, ch := range missing[start:] {
						ch.lastErr = err
					}
					for _, ch := range dupes {
						ch.lastErr = err
					}
					mu.Unlock()
					return errStopGroup // earlier frames' references stand; rest fail over
				}
				mu.Lock()
				for _, ch := range missing[start:end] {
					ch.taken = append(ch.taken, addr)
					ch.shipped++
				}
				mu.Unlock()
				return nil
			})
			if errors.Is(err, errStopGroup) {
				return nil // the dupes' lastErr is marked; they fail over too
			}
			if err != nil {
				return err
			}
			if len(dupes) > 0 {
				// The representatives' bodies are stored now: a second probe
				// takes the duplicates' references as dedup hits.
				dfps := make([]cas.Fingerprint, len(dupes))
				for i, ch := range dupes {
					dfps[i] = ch.fp
				}
				dheld, dvalid, err := c.casRefBatch(ctx, addr, dfps)
				mu.Lock()
				for i, ch := range dupes {
					switch {
					case i < dvalid && dheld[i]:
						ch.taken = append(ch.taken, addr)
					case err != nil:
						ch.lastErr = err
					default:
						// A body swept between the put and this probe is
						// rare; the chunk simply retries on its next-ranked
						// provider.
					}
				}
				if err != nil {
					failed[addr] = true
				}
				mu.Unlock()
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return cerr
					}
					return nil
				}
			}
			return nil
		})
		if err != nil {
			abort()
			return nil, nil, err
		}
	}

	for _, ch := range chunks {
		stats.Chunks++
		stats.LogicalBytes += uint64(len(ch.data))
		stats.TransferBytes += uint64(ch.shipped) * uint64(len(ch.data))
		if ch.shipped == 0 {
			stats.DedupChunks++
			stats.DedupHitBytes += uint64(len(ch.data))
		}
		leaves[ch.idx] = meta.Leaf{Providers: ch.taken, Key: ch.fp.Key(), Size: uint32(len(ch.data))}
		manifest = append(manifest, manifestEntry{index: ch.idx, fp: ch.fp, providers: ch.taken})
	}
	return leaves, manifest, nil
}

// casPlacementRanked ranks every provider by rendezvous preference for the
// fingerprint. The ranking is keyed by the fingerprint-derived storage key
// (see PlacementRanked): every writer maps the same content to the same
// ranking, which is what makes dedup global, and readers and the repair
// plane recompute the same ranking from a leaf's key alone. The first
// `replication` entries are the canonical placement; the write-path
// failover walks down the ranking when a preferred provider is unreachable.
func casPlacementRanked(fp cas.Fingerprint, providers []string) []string {
	return PlacementRanked(fp.Key(), providers)
}

// releaseRefs drops the references the manifest's entries hold — what a
// failed commit acquired, or what a retire superseded — in O(providers)
// calls: the fingerprints are grouped by provider, each group goes out as
// opCasReleaseBatch frames, the providers proceeding concurrently. It is
// best effort: a reference whose provider cannot be reached is counted in
// Failed and left to the mark-and-sweep fallback GC. Callers pass a detached
// context so releases run even after cancellation.
func (c *Client) releaseRefs(ctx context.Context, manifest []manifestEntry) ReclaimStats {
	groups := make(map[string][]cas.Fingerprint)
	for _, e := range manifest {
		for _, addr := range e.providers {
			groups[addr] = append(groups[addr], e.fp)
		}
	}
	var stats ReclaimStats
	var mu sync.Mutex
	runGroups(ctx, c.parallelism(), groups, func(ctx context.Context, addr string, fps []cas.Fingerprint) error { //nolint:errcheck // the callback never fails: errors are counted
		for start := 0; start < len(fps); start += maxFrameItems {
			frame := fps[start:min(start+maxFrameItems, len(fps))]
			chunks, freed, err := c.casReleaseBatch(ctx, addr, frame)
			mu.Lock()
			if err != nil {
				stats.Failed += len(frame)
			} else {
				stats.ReleasedRefs += len(frame)
				stats.ReclaimedChunks += chunks
				stats.ReclaimedBytes += freed
			}
			mu.Unlock()
		}
		return nil
	})
	return stats
}

// casReleaseBatch drops one reference per fingerprint at one provider.
func (c *Client) casReleaseBatch(ctx context.Context, addr string, fps []cas.Fingerprint) (reclaimedChunks int, reclaimedBytes uint64, err error) {
	w := wire.NewBuffer(16 + 40*len(fps))
	w.PutU8(opCasReleaseBatch)
	w.PutUvarint(uint64(len(fps)))
	for _, fp := range fps {
		putFingerprint(w, fp)
	}
	obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "cas-release-batch")).Inc()
	r, err := c.call(ctx, addr, w)
	if err != nil {
		return 0, 0, err
	}
	chunks := r.Uvarint()
	reclaimedBytes = r.U64()
	if err := r.Err(); err != nil {
		return 0, 0, err
	}
	if chunks > uint64(len(fps)) {
		return 0, 0, fmt.Errorf("blobseer: cas release batch on %s: %d bodies reclaimed by %d releases", addr, chunks, len(fps))
	}
	return int(chunks), reclaimedBytes, nil
}

// CasStats aggregates the content-addressed repository counters across the
// given data providers: dedup hit rate, logical vs physical bytes, and
// refcount reclamation.
func (c *Client) CasStats(ctx context.Context, dataProviders []string) (cas.Stats, error) {
	var total cas.Stats
	for _, addr := range dataProviders {
		w := wire.NewBuffer(8)
		w.PutU8(opCasStats)
		r, err := c.call(ctx, addr, w)
		if err != nil {
			return total, err
		}
		s := getCasStats(r)
		if err := r.Err(); err != nil {
			return total, err
		}
		total.Add(s)
	}
	return total, nil
}

// StoreEngineStats reports one data provider's storage-engine view: the
// backend name ("seglog", "files", "mem", with a "cas+" prefix under the
// dedup layer) and its engine-specific counters.
func (c *Client) StoreEngineStats(ctx context.Context, addr string) (chunkstore.EngineStats, error) {
	w := wire.NewBuffer(8)
	w.PutU8(opStoreStats)
	r, err := c.call(ctx, addr, w)
	if err != nil {
		return chunkstore.EngineStats{}, err
	}
	es := getEngineStats(r)
	if err := r.Err(); err != nil {
		return chunkstore.EngineStats{}, err
	}
	return es, nil
}

// CompactChunkStore asks one data provider's storage engine to run a
// compaction pass now. supported is false for engines with nothing to
// compact (file-per-chunk, in-memory), which is not an error.
func (c *Client) CompactChunkStore(ctx context.Context, addr string) (res chunkstore.CompactResult, supported bool, err error) {
	w := wire.NewBuffer(8)
	w.PutU8(opStoreCompact)
	r, err := c.call(ctx, addr, w)
	if err != nil {
		return res, false, err
	}
	supported = r.Bool()
	if supported {
		res.Segments = int(r.Uvarint())
		res.Relocated = int(r.Uvarint())
		res.ReclaimedBytes = r.U64()
	}
	if err := r.Err(); err != nil {
		return chunkstore.CompactResult{}, false, err
	}
	return res, supported, nil
}

func (c *Client) abort(ctx context.Context, blob, version uint64) {
	w := wire.NewBuffer(24)
	w.PutU8(opAbort)
	w.PutU64(blob)
	w.PutU64(version)
	c.call(ctx, c.VMAddr, w) // best effort; the version slot is released
}

// WriteAt publishes a new version with data written at offset, performing
// read-modify-write for partially covered boundary chunks.
func (c *Client) WriteAt(ctx context.Context, blob uint64, offset uint64, data []byte) (VersionInfo, error) {
	if len(data) == 0 {
		prev, _, err := c.Latest(ctx, blob)
		if err != nil && !IsNotFound(err) {
			return VersionInfo{}, err
		}
		return prev, nil
	}
	var chunkSize uint64
	var prevSize uint64
	var prevVersion uint64
	var havePrev bool
	prev, cs, err := c.Latest(ctx, blob)
	switch {
	case err == nil:
		chunkSize, prevSize, prevVersion, havePrev = cs, prev.Size, prev.Version, true
	case IsNotFound(err):
		chunkSize, err = c.ChunkSize(ctx, blob)
		if err != nil {
			return VersionInfo{}, err
		}
	default:
		return VersionInfo{}, err
	}

	end := offset + uint64(len(data))
	newSize := prevSize
	if end > newSize {
		newSize = end
	}
	firstChunk := offset / chunkSize
	lastChunk := (end - 1) / chunkSize
	writes := make(map[uint64][]byte)
	for idx := firstChunk; idx <= lastChunk; idx++ {
		chunkStart := idx * chunkSize
		chunkEnd := chunkStart + chunkSize
		lo := max(chunkStart, offset)
		hi := min(chunkEnd, end)
		full := lo == chunkStart && hi == chunkEnd
		var chunk []byte
		if full {
			chunk = make([]byte, chunkSize)
			copy(chunk, data[lo-offset:hi-offset])
		} else {
			// Boundary chunk: merge with existing content. The chunk is
			// truncated when it is the blob's last chunk.
			chunkLen := chunkSize
			if chunkEnd > newSize {
				chunkLen = newSize - chunkStart
			}
			chunk = make([]byte, chunkLen)
			if havePrev && chunkStart < prevSize {
				old, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: prevVersion}, chunkStart, chunkSize)
				if err != nil {
					return VersionInfo{}, err
				}
				copy(chunk, old)
			}
			copy(chunk[lo-chunkStart:], data[lo-offset:hi-offset])
		}
		writes[idx] = chunk
	}
	return c.WriteVersion(ctx, blob, writes, newSize)
}

// Clone creates a new blob whose version 0 is the referenced snapshot of the
// source blob, sharing all content. This is the CLONE primitive.
func (c *Client) Clone(ctx context.Context, src SnapshotRef) (uint64, error) {
	w := wire.NewBuffer(24)
	w.PutU8(opClone)
	w.PutU64(src.Blob)
	w.PutU64(src.Version)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return 0, err
	}
	id := r.U64()
	return id, r.Err()
}

// PutHint publishes the blob's boot-set hint: the chunks an instance attached
// to one of its snapshots needed from the repository, in first-need order.
// It replaces the blob's previous hint. The version manager rejects a hint
// naming more than 32 MiB of chunks.
func (c *Client) PutHint(ctx context.Context, blob uint64, indices []uint64) error {
	w := wire.NewBuffer(16 + 3*len(indices))
	w.PutU8(opHintPut)
	w.PutU64(blob)
	putIndices(w, indices)
	_, err := c.call(ctx, c.VMAddr, w)
	return err
}

// GetHint returns the blob's latest boot-set hint, empty when none was
// published.
func (c *Client) GetHint(ctx context.Context, blob uint64) ([]uint64, error) {
	w := wire.NewBuffer(16)
	w.PutU8(opHintGet)
	w.PutU64(blob)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return nil, err
	}
	return getIndices(r, ^uint64(0))
}

// ReclaimStats reports what a Retire released through the content-addressed
// repository's reference counting.
type ReclaimStats struct {
	ReleasedRefs    int    // references dropped (per chunk write, per replica)
	ReclaimedChunks int    // bodies whose count reached zero and were deleted
	ReclaimedBytes  uint64 // payload bytes those bodies held
	Failed          int    // release calls that could not reach their provider
}

// Retire marks all versions of blob below `before` as garbage-collectable.
func (c *Client) Retire(ctx context.Context, blob, before uint64) error {
	_, err := c.RetireStats(ctx, blob, before)
	return err
}

// RetireStats retires versions below `before` and immediately releases the
// content-addressed references held by the superseded chunk writes of the
// retired snapshots — incremental garbage collection in O(retired chunks),
// no repository sweep. Releases to unreachable providers are counted in Failed and left for the
// sweep to reconcile.
func (c *Client) RetireStats(ctx context.Context, blob, before uint64) (ReclaimStats, error) {
	w := wire.NewBuffer(24)
	w.PutU8(opRetire)
	w.PutU64(blob)
	w.PutU64(before)
	r, err := c.call(ctx, c.VMAddr, w)
	if err != nil {
		return ReclaimStats{}, err
	}
	r.U64() // retired horizon
	n, err := getCount(r)
	if err != nil {
		return ReclaimStats{}, err
	}
	releases := make([]manifestEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		rel := manifestEntry{fp: getFingerprint(r)}
		if rel.providers, err = getProviderList(r); err != nil {
			return ReclaimStats{}, err
		}
		releases = append(releases, rel)
	}
	if err := r.Err(); err != nil {
		return ReclaimStats{}, err
	}
	// The version manager already dropped its supersede records: finish the
	// releases even if ctx is cancelled meanwhile, or the refs would leak
	// until the sweep.
	return c.releaseRefs(context.WithoutCancel(ctx), releases), nil
}

// GCStats reports what a garbage collection pass reclaimed.
type GCStats struct {
	LiveChunks    int
	LiveNodes     int
	DeletedChunks int
	DeletedNodes  int
}

// GC performs a mark-and-sweep over the whole deployment: every tree node
// and chunk reachable from a non-retired version survives; everything else
// is deleted from the metadata and data providers. This implements the
// paper's proposed future-work extension (transparent snapshot garbage
// collection) in its exhaustive form.
//
// RetireStats already reclaims retired snapshots' chunk bodies incrementally through the content-addressed repository's reference
// counts, in O(retired chunks); this sweep remains the full-fidelity
// fallback — it also collects metadata-tree nodes, chunks orphaned by failed
// commits, and references leaked past unreachable providers. Sweeping a
// CAS-held chunk deletes its body and dedup index entry together, so the two
// collectors compose safely.
func (c *Client) GC(ctx context.Context, dataProviders []string) (GCStats, error) {
	var stats GCStats
	live, err := c.LiveVersions(ctx)
	if err != nil {
		return stats, err
	}
	liveNodes := make(map[meta.NodeKey]struct{})
	liveChunks := make(map[chunkstore.Key]struct{})
	tr := c.tree(ctx)
	for _, lr := range live {
		if !lr.Info.Root.Valid {
			continue
		}
		err := tr.Walk(lr.Info.Root, lr.Info.Span, func(k meta.NodeKey, isLeaf bool, l meta.Leaf) error {
			liveNodes[k] = struct{}{}
			if isLeaf {
				liveChunks[l.Key] = struct{}{}
			}
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("blobseer: gc mark blob %d v%d: %w", lr.Blob, lr.Info.Version, err)
		}
	}
	stats.LiveChunks = len(liveChunks)
	stats.LiveNodes = len(liveNodes)

	// Sweep metadata providers.
	for _, addr := range c.MetaAddrs {
		w := wire.NewBuffer(8)
		w.PutU8(opNodeList)
		r, err := c.call(ctx, addr, w)
		if err != nil {
			return stats, err
		}
		n := r.Uvarint()
		var dead []meta.NodeKey
		for i := uint64(0); i < n; i++ {
			k := getNodeKey(r)
			if _, ok := liveNodes[k]; !ok {
				dead = append(dead, k)
			}
		}
		if err := r.Err(); err != nil {
			return stats, err
		}
		for _, k := range dead {
			w := wire.NewBuffer(40)
			w.PutU8(opNodeDelete)
			putNodeKey(w, k)
			if _, err := c.call(ctx, addr, w); err != nil {
				return stats, err
			}
			stats.DeletedNodes++
		}
	}

	// Sweep data providers.
	for _, addr := range dataProviders {
		w := wire.NewBuffer(8)
		w.PutU8(opChunkList)
		r, err := c.call(ctx, addr, w)
		if err != nil {
			return stats, err
		}
		n := r.Uvarint()
		var dead []chunkstore.Key
		for i := uint64(0); i < n; i++ {
			k := getChunkKey(r)
			if _, ok := liveChunks[k]; !ok {
				dead = append(dead, k)
			}
		}
		if err := r.Err(); err != nil {
			return stats, err
		}
		for _, k := range dead {
			w := wire.NewBuffer(24)
			w.PutU8(opChunkDelete)
			putChunkKey(w, k)
			if _, err := c.call(ctx, addr, w); err != nil {
				return stats, err
			}
			stats.DeletedChunks++
		}
	}
	return stats, nil
}

// Providers returns the registered data provider addresses.
func (c *Client) Providers(ctx context.Context) ([]string, error) {
	w := wire.NewBuffer(8)
	w.PutU8(opProviders)
	r, err := c.call(ctx, c.PMAddr, w)
	if err != nil {
		return nil, err
	}
	n, err := getCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	return out, r.Err()
}

// RegisterProvider announces a data provider to the provider manager.
func (c *Client) RegisterProvider(ctx context.Context, addr string) error {
	w := wire.NewBuffer(32)
	w.PutU8(opRegister)
	w.PutString(addr)
	_, err := c.call(ctx, c.PMAddr, w)
	return err
}

// UnregisterProvider removes a (failed) data provider from placement. Data
// it held remains readable only through replicas on other providers.
func (c *Client) UnregisterProvider(ctx context.Context, addr string) error {
	w := wire.NewBuffer(32)
	w.PutU8(opUnregister)
	w.PutString(addr)
	_, err := c.call(ctx, c.PMAddr, w)
	return err
}

// Usage sums storage used across the given data providers.
func (c *Client) Usage(ctx context.Context, dataProviders []string) (bytes uint64, chunks uint64, err error) {
	for _, addr := range dataProviders {
		w := wire.NewBuffer(8)
		w.PutU8(opChunkUsage)
		r, cerr := c.call(ctx, addr, w)
		if cerr != nil {
			return 0, 0, cerr
		}
		bytes += r.U64()
		chunks += r.U64()
		if err := r.Err(); err != nil {
			return 0, 0, err
		}
	}
	return bytes, chunks, nil
}

// MetaUsage sums metadata bytes across the metadata providers.
func (c *Client) MetaUsage(ctx context.Context) (bytes uint64, nodes uint64, err error) {
	for _, addr := range c.MetaAddrs {
		w := wire.NewBuffer(8)
		w.PutU8(opNodeUsage)
		r, cerr := c.call(ctx, addr, w)
		if cerr != nil {
			return 0, 0, cerr
		}
		bytes += r.U64()
		nodes += r.U64()
		if err := r.Err(); err != nil {
			return 0, 0, err
		}
	}
	return bytes, nodes, nil
}
