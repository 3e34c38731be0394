// Package mirror implements the paper's mirroring module: the layer between
// the hypervisor and the checkpoint repository.
//
// It exposes a BLOB snapshot as a raw block device (vdisk.Device). Reads of
// content not yet present locally are fetched on demand from the repository
// ("lazy transfer"); writes are stored locally as copy-on-write
// modifications at chunk granularity. Two control operations mirror the
// paper's ioctls:
//
//   - Clone: create the VM's checkpoint image as a clone of the base image
//     (first checkpoint only);
//   - CommitAsync: capture the locally accumulated modifications (a walk
//     over the dirty index, the only part that must happen while the VM is
//     suspended) and publish them as a new incremental snapshot in the
//     background, through a bounded per-module pipeline. The returned
//     PendingCommit is the checkpoint handle: Wait/Done/Err observe
//     completion, and cancelling the commit's context runs the repository
//     abort path so dedup refcounts never leak.
//
// Commit is the synchronous convenience wrapper (CommitAsync + Wait).
//
// The capture copies nothing: it hands the module's own dirty buffers to the
// PendingCommit and marks those chunks frozen. The invariant everything
// downstream of the capture relies on — the hash workers, the local tier, the
// partner frame, a store that keeps what it is handed — is that a buffer
// reachable from any PendingCommit is immutable for the rest of its life. The
// module keeps it by never writing a frozen chunk in place: the guest's next
// write to one installs a fresh buffer first (empty for a whole-chunk
// overwrite, a copy of the old content for a partial one) and only that
// clears the mark. A commit's completion, failure, fold or halt never does,
// because a later capture still queued may hold the same buffer. So the one
// copy per chunk per interval is paid by the running guest, and only for
// chunks it rewrites in part. The module's fingerprint memo leans on the
// same invariant: it keeps its last commit's bodies by reference, so a
// dirty chunk byte-equal to one of them takes that body's SHA-256 instead
// of being hashed again.
//
// The module also keeps a bounded demand record — the chunks the guest
// needed from the repository, in first-need order — and publishes it to the
// version manager as the image's boot-set hint. The next Attach of the same
// image replays that hint with one prefetch before it returns, so a restart
// pays its boot set in one batched read instead of one demand fault at a
// time (the paper's adaptive prefetching; see hint.go).
package mirror

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
	"blobcr/internal/vdisk"
)

// ErrNoCheckpointImage is returned by Commit before Clone has been called.
var ErrNoCheckpointImage = errors.New("mirror: no checkpoint image (call Clone first)")

// ErrCommitsInFlight is returned by RollbackTo while captures are still
// travelling through the commit pipeline: rolling back under them would race
// the published chain.
var ErrCommitsInFlight = errors.New("mirror: commits in flight")

// ErrBadRollback is returned by RollbackTo for snapshots the module cannot
// roll back to in place (a different blob than its own chain).
var ErrBadRollback = errors.New("mirror: snapshot is not on this module's chain")

// ErrHalted is returned by CommitAsync after Halt: the module's pipeline has
// been cancelled (the node is being failed or preempted) and accepts no new
// captures.
var ErrHalted = errors.New("mirror: module halted")

// DefaultPipelineDepth bounds how many commits may be in flight per module:
// the capture step blocks once this many snapshots are queued or uploading,
// which is the backpressure that keeps a slow repository from accumulating
// unbounded generations of captured buffers.
const DefaultPipelineDepth = 4

// Module is one VM's mirroring module.
type Module struct {
	client *blobseer.Client

	mu        sync.Mutex
	src       blobseer.SnapshotRef // backing snapshot for unfetched content
	snap      *blobseer.Snapshot   // src, opened: every fetch reads through it
	ckptBlob  uint64               // checkpoint image; 0 until Clone
	hasCkpt   bool
	chunkSize uint64
	size      uint64 // virtual disk size in bytes

	// base is the published snapshot the next commit overlays: the chain this
	// module actually exposes, advanced on every successful commit and moved
	// by RollbackTo. Committing relative to it — rather than to the blob's
	// latest version — is what keeps a rollback from resurrecting writes held
	// in a newer orphaned version (e.g. a commit that was still publishing
	// when its deployment failed over).
	base blobseer.SnapshotRef

	local   map[uint64][]byte // chunk index -> locally available content; nil is a known hole (dirty chunks never are)
	dirty   map[uint64]bool   // modified since the last Commit
	frozen  map[uint64]bool   // local[idx] was handed to a capture: WriteAt replaces it, never writes it
	written map[uint64]bool   // ever locally modified: dropped on RollbackTo

	// The demand record (hint.go): chunks the guest needed from the
	// repository, first-need order, at most recordCap. hinted holds the chunks
	// the attach's hint replay installed that the guest has not touched yet.
	record       []uint64
	hinted       map[uint64]bool
	recordNew    bool // the record holds a demand fault not yet published
	publishing   bool // the publisher goroutine is running
	recordClosed bool // Halt or RollbackTo: record and publish no more

	remoteReads uint64 // chunks fetched from the repository
	localHits   uint64
	commits     uint64

	// Cumulative commit accounting across all Commits. Committed chunks are
	// fingerprinted and bodies the repository already holds are never
	// shipped; these counters expose the savings.
	commitStats blobseer.CommitStats

	// memo holds the bodies and fingerprints of the last commit's hash
	// stage, so a dirty chunk byte-equal to one of them is not hashed again.
	// It may hold captured buffers only because they are frozen for life
	// (see the package comment). It survives RollbackTo — a content hash
	// stays true — and Halt drops it.
	memo cas.Memo

	// Commit pipeline. sem bounds in-flight commits; queue holds captures
	// FIFO for a lazily started worker (a slice, not a channel, so the
	// failure path can fold a failed capture's writes into the captures
	// queued behind it). captureMu serializes capture+enqueue so concurrent
	// CommitAsync calls keep version order.
	pipelineDepth int
	captureMu     sync.Mutex
	pipeOnce      sync.Once
	sem           chan struct{}
	queue         []*PendingCommit
	workerRunning bool
	inFlight      int           // commits captured but not yet completed
	idle          chan struct{} // non-nil while inFlight > 0; closed when it returns to zero

	// Local write-back tier (nil without one). With a tier attached, a
	// capture first travels the stage queue — staged into the node-local
	// store and replicated to the partner, after which it is *locally safe*
	// and its pipeline slot frees — and only then joins the drain queue,
	// which publishes to the remote plane at whatever rate it sustains. The
	// suspend window and the checkpoint ack thereby decouple from remote
	// bandwidth, which is the multilevel-checkpointing point.
	stageCfg           *StageConfig
	seq                uint64 // capture sequence: orders the owner's staged chain
	stageQueue         []*PendingCommit
	stageWorkerRunning bool
	halted             bool
	live               map[*PendingCommit]struct{} // captured, not yet done (Halt cancels these)
}

// StageConfig attaches a node-local write-back tier to a module.
type StageConfig struct {
	// Stage is the node's local fast tier; Owner names this module's chain
	// in it (the VM id).
	Stage *localtier.Stage
	Owner string
	// Replicate pushes one staged capture to the partner proxy so a single
	// node loss cannot lose a locally-safe checkpoint. Nil disables partner
	// replication (single-node deployments).
	Replicate func(ctx context.Context, c *localtier.Capture, chunks []blobseer.Chunk) error
	// Release tells the partner (and the local stage's bookkeeping) that the
	// capture was published as ref, so the replica can be dropped. Nil is
	// allowed; best-effort.
	Release func(owner string, seq uint64, ref blobseer.SnapshotRef)
}

// AttachStage wires the local write-back tier into the module's commit
// pipeline. Call it before the first CommitAsync.
func (m *Module) AttachStage(cfg StageConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageCfg = &cfg
}

// Attach opens the given published snapshot as the device's backing content.
// For a fresh VM this is the base image; on restart it is the disk snapshot
// chosen for rollback. The snapshot's version is pinned here, so a read never
// costs a version-manager call. Before Attach returns, the image's boot-set
// hint — what the last instance attached to it had to fetch — is replayed
// with one prefetch. A demand fault later costs the uncached levels of the
// metadata tree, a handful at most, plus one chunk round trip.
func Attach(ctx context.Context, c *blobseer.Client, ref blobseer.SnapshotRef) (*Module, error) {
	ctx, span := obs.StartSpan(obs.WithRegistry(ctx, c.Obs), obs.SpanRestartAttach)
	defer span.End()
	snap, err := c.Open(ctx, ref)
	if err != nil {
		return nil, fmt.Errorf("mirror: attach %s: %w", ref, err)
	}
	m := &Module{
		client:        c,
		src:           ref,
		snap:          snap,
		chunkSize:     snap.ChunkSize(),
		size:          snap.Size(),
		local:         make(map[uint64][]byte),
		dirty:         make(map[uint64]bool),
		frozen:        make(map[uint64]bool),
		written:       make(map[uint64]bool),
		pipelineDepth: DefaultPipelineDepth,
		live:          make(map[*PendingCommit]struct{}),
	}
	m.replayHint(ctx)
	return m, nil
}

// AttachCheckpoint reopens an existing checkpoint image at a specific
// snapshot: further Commits will extend the same checkpoint image rather
// than cloning a new one. Used when an application resumes checkpointing
// after a restart.
func AttachCheckpoint(ctx context.Context, c *blobseer.Client, ref blobseer.SnapshotRef) (*Module, error) {
	m, err := Attach(ctx, c, ref)
	if err != nil {
		return nil, err
	}
	m.ckptBlob = ref.Blob
	m.hasCkpt = true
	m.base = ref
	return m, nil
}

// Size implements vdisk.Device.
func (m *Module) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.size)
}

// Flush implements vdisk.Device. Local modifications are already durable in
// memory; persistence happens at Commit, so Flush is a no-op, matching the
// paper's model where the guest's sync(2) flushes the page cache to the
// virtual disk (our writes are synchronous).
func (m *Module) Flush() error { return nil }

// fullChunk returns body as the mirror keeps a chunk: chunkSize bytes it may
// write in place until a capture freezes them, or nil for a hole. A whole
// chunk delivered by the repository client is kept as it came — a window of
// its response frame, not a copy — and a hole stays nil: it is known to read
// as zeros and costs no memory until the guest writes to it (WriteAt). The
// device's short tail chunk is the only allocation.
func (m *Module) fullChunk(body []byte) []byte {
	if body == nil || uint64(len(body)) == m.chunkSize {
		return body
	}
	full := make([]byte, m.chunkSize)
	copy(full, body)
	return full
}

// fault pages the given absent chunks (ascending) in from the backing
// snapshot with one read-engine call: one ranged lookup, one batch fetch per
// provider. Caller holds m.mu, so no rollback can interleave.
func (m *Module) fault(indices []uint64) error {
	sw := obs.StartTimer()
	var mu sync.Mutex // deliveries come from the engine's concurrent streams
	fetched := make(map[uint64][]byte, len(indices))
	// vdisk.Device has no context parameter, so demand fetches run under the
	// background context; cancellation applies to commits, not page-ins.
	_, err := m.snap.ReadChunks(context.Background(), indices, func(idx uint64, body []byte) {
		chunk := m.fullChunk(body)
		mu.Lock()
		fetched[idx] = chunk
		mu.Unlock()
	})
	if err != nil {
		return fmt.Errorf("mirror: fetch chunks %d..%d: %w", indices[0], indices[len(indices)-1], err)
	}
	for _, idx := range indices {
		m.local[idx] = fetched[idx]
	}
	m.remoteReads += uint64(len(indices))
	m.noteDemand(indices)
	sw.ObserveInto(m.client.Registry().Histogram("mirror_demand_fault_ns"))
	return nil
}

// ReadAt implements vdisk.Device. Every chunk of the range that is not yet
// local is fetched in one demand fault before anything is copied out.
func (m *Module) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off > int64(m.size) {
		return 0, vdisk.ErrOutOfRange
	}
	total := len(p)
	if off+int64(total) > int64(m.size) {
		total = int(int64(m.size) - off)
	}
	if total > 0 {
		var absent []uint64
		for idx := uint64(off) / m.chunkSize; idx <= (uint64(off)+uint64(total)-1)/m.chunkSize; idx++ {
			if _, ok := m.local[idx]; ok {
				m.localHits++
				m.touchHinted(idx, true)
			} else {
				absent = append(absent, idx)
			}
		}
		if len(absent) > 0 {
			if err := m.fault(absent); err != nil {
				return 0, err
			}
		}
	}
	read := 0
	for read < total {
		o := uint64(off) + uint64(read)
		inner := o % m.chunkSize
		dst := p[read:min(total, read+int(m.chunkSize-inner))]
		if chunk := m.local[o/m.chunkSize]; chunk != nil {
			copy(dst, chunk[inner:])
		} else {
			clear(dst) // a hole
		}
		read += len(dst)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// WriteAt implements vdisk.Device. Writes are stored locally at chunk
// granularity; partially covered chunks are first filled from the backing
// snapshot (copy-on-write). A frozen chunk is never written in place: its
// first write after the capture moves it to a fresh buffer.
func (m *Module) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(m.size) {
		return 0, vdisk.ErrOutOfRange
	}
	written := 0
	for written < len(p) {
		o := uint64(off) + uint64(written)
		idx := o / m.chunkSize
		inner := o % m.chunkSize
		n := m.chunkSize - inner
		if rem := uint64(len(p) - written); n > rem {
			n = rem
		}
		data, ok := m.local[idx]
		if n == m.chunkSize {
			// Whole-chunk overwrite: no fill needed, so the guest needed
			// nothing of the chunk's old content.
			m.touchHinted(idx, false)
		} else if ok {
			m.localHits++ // partial write over local content
			m.touchHinted(idx, true)
		} else {
			// Partial write: copy-on-write over the backing content.
			if err := m.fault([]uint64{idx}); err != nil {
				return written, err
			}
			data = m.local[idx]
		}
		if data == nil || m.frozen[idx] {
			// Never fetched and wholly overwritten, or a hole: its first write
			// is what gives the chunk memory. Or frozen: the old buffer is a
			// capture's now, and only a partial write has content to keep.
			fresh := make([]byte, m.chunkSize)
			if data != nil && n < m.chunkSize {
				copy(fresh, data)
				m.client.Registry().Counter("mirror_cow_copies_total").Inc()
				m.client.Registry().Counter("mirror_cow_bytes_total").Add(m.chunkSize)
			}
			data = fresh
			m.local[idx] = data
			delete(m.frozen, idx)
		}
		copy(data[inner:inner+n], p[written:written+int(n)])
		if !m.dirty[idx] {
			m.dirty[idx] = true
		}
		m.written[idx] = true
		written += int(n)
	}
	return written, nil
}

// Clone creates the checkpoint image as a clone of the backing snapshot.
// Idempotent: calling it when the checkpoint image exists does nothing.
// This is the CLONE ioctl. The proxy issues it before it suspends the VM, so
// the module lock is not held across the round trip: the guest keeps going.
func (m *Module) Clone(ctx context.Context) error {
	m.captureMu.Lock() // one clone at a time, and none beside a capture
	defer m.captureMu.Unlock()
	m.mu.Lock()
	has, src := m.hasCkpt, m.src // src cannot move before there is a checkpoint image to roll back to
	m.mu.Unlock()
	if has {
		return nil
	}
	ckpt, err := m.client.Clone(ctx, src)
	if err != nil {
		return fmt.Errorf("mirror: clone: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ckptBlob = ckpt
	m.hasCkpt = true
	// The clone's version 0 is the backing snapshot's content: the first
	// commit overlays it.
	m.base = blobseer.SnapshotRef{Blob: ckpt, Version: 0}
	return nil
}

// RollbackTo reverts the module in place to the given published snapshot of
// its own chain — the checkpoint image (any version this module committed)
// or the backing source itself. Every chunk locally modified since attach is
// dropped (its content may differ in the rollback target) and the dirty set
// is cleared, while chunks that were only ever read stay cached: their
// content is identical in every version this module produced, so the warm
// cache survives the rollback. Subsequent commits overlay the rollback
// target, never a newer orphaned version. Partial restart uses this to roll
// healthy members back without re-deploying them.
//
// RollbackTo fails with ErrCommitsInFlight while captures are still in the
// commit pipeline; callers drain (or time out and re-deploy) first.
func (m *Module) RollbackTo(ctx context.Context, ref blobseer.SnapshotRef) error {
	snap, err := m.client.Open(ctx, ref)
	if err != nil {
		return fmt.Errorf("mirror: rollback to %s: %w", ref, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inFlight > 0 {
		return fmt.Errorf("%w: %d pending", ErrCommitsInFlight, m.inFlight)
	}
	if !(m.hasCkpt && ref.Blob == m.ckptBlob) && ref != m.src {
		return fmt.Errorf("%w: %s", ErrBadRollback, ref)
	}
	if snap.ChunkSize() != m.chunkSize {
		return fmt.Errorf("mirror: rollback to %s: chunk size %d != %d", ref, snap.ChunkSize(), m.chunkSize)
	}
	for idx := range m.written {
		delete(m.local, idx)
	}
	m.written = make(map[uint64]bool)
	m.dirty = make(map[uint64]bool)
	m.frozen = make(map[uint64]bool) // every frozen chunk was written, so its buffer just left m.local
	m.closeRecord()                  // what the guest needs next is another incarnation's record
	m.src = ref
	m.snap = snap
	m.base = ref
	if m.hasCkpt && ref.Blob != m.ckptBlob {
		// Back to the source after Clone: the next commit must still land on
		// the checkpoint image, whose version 0 is the source's content.
		m.base = blobseer.SnapshotRef{Blob: m.ckptBlob, Version: 0}
	}
	m.size = snap.Size()
	if m.stageCfg != nil {
		// Staged captures overlay the pre-rollback chain; they are stale now.
		m.stageCfg.Stage.Drop(m.stageCfg.Owner)
	}
	return nil
}

// PendingCommit is an asynchronous checkpoint handle: one dirty-set capture
// travelling through the module's commit pipeline. It is safe to share
// across goroutines; any number may Wait on it.
type PendingCommit struct {
	ctx    context.Context // the commit's context; cancelling aborts the upload
	cancel context.CancelFunc

	// chunks is the captured dirty set, in dirty-map order until the
	// pipeline worker that dequeues the capture sorts it: sorting inside
	// CommitAsync would lengthen the suspend window.
	chunks []blobseer.Chunk
	size   uint64

	// Two-watermark state. seq orders this module's captures; captureBase is
	// the published chain head at capture time (the partner drain's fallback
	// base). localSafe closes once the capture is staged locally and
	// replicated to the partner — or, without a tier, together with done.
	// capture is the staged handle (nil when staging failed or no tier).
	seq         uint64
	captureBase blobseer.SnapshotRef
	localSafe   chan struct{}
	localErr    error // set before localSafe closes, immutable afterwards
	capture     *localtier.Capture

	done chan struct{}
	// Set before done closes, immutable afterwards.
	info blobseer.VersionInfo
	ref  blobseer.SnapshotRef
	err  error
}

// Seq returns the capture's sequence number in its module's staged chain.
func (p *PendingCommit) Seq() uint64 { return p.seq }

// LocallySafe reports whether the capture has reached local safety: staged
// in the node's fast tier and replicated to the partner. Without a tier this
// becomes true only with global durability.
func (p *PendingCommit) LocallySafe() bool {
	select {
	case <-p.localSafe:
		return p.localErr == nil
	default:
		return false
	}
}

// WaitLocallySafe blocks until the capture is locally safe or ctx expires.
// When staging failed (or the module has no tier), local safety degrades to
// global durability: the wait continues until the remote commit completes
// and returns its outcome.
func (p *PendingCommit) WaitLocallySafe(ctx context.Context) error {
	select {
	case <-p.localSafe:
	case <-ctx.Done():
		return ctx.Err()
	}
	if p.localErr == nil {
		return nil
	}
	select {
	case <-p.done:
		return p.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns a channel closed when the commit has completed (successfully
// or not).
func (p *PendingCommit) Done() <-chan struct{} { return p.done }

// Err returns the commit's outcome: nil while in flight and after success,
// the commit error after a failure. Check it after Done is closed.
func (p *PendingCommit) Err() error {
	select {
	case <-p.done:
		return p.err
	default:
		return nil
	}
}

// Ref returns the published snapshot and true once the commit has succeeded.
func (p *PendingCommit) Ref() (blobseer.SnapshotRef, bool) {
	select {
	case <-p.done:
		return p.ref, p.err == nil
	default:
		return blobseer.SnapshotRef{}, false
	}
}

// Info returns the published version descriptor and true once the commit
// has succeeded.
func (p *PendingCommit) Info() (blobseer.VersionInfo, bool) {
	select {
	case <-p.done:
		return p.info, p.err == nil
	default:
		return blobseer.VersionInfo{}, false
	}
}

// Wait blocks until the commit completes or ctx is cancelled, and returns
// the published snapshot. ctx here only bounds the wait; to abort the
// commit itself, cancel the context passed to CommitAsync.
func (p *PendingCommit) Wait(ctx context.Context) (blobseer.SnapshotRef, error) {
	select {
	case <-p.done:
		if p.err != nil {
			return blobseer.SnapshotRef{}, p.err
		}
		return p.ref, nil
	case <-ctx.Done():
		return blobseer.SnapshotRef{}, ctx.Err()
	}
}

// CommitAsync captures the dirty chunks — it takes their buffers and freezes
// them, the only work done while the VM is suspended — clears the dirty set and
// returns a PendingCommit that publishes the capture as a new incremental
// snapshot of the checkpoint image in the background. This is the COMMIT
// ioctl split in two: capture now, publish later.
//
// The pipeline is bounded (DefaultPipelineDepth in-flight commits): when it
// is full, CommitAsync blocks until a slot frees or ctx is cancelled. The
// same ctx governs the background upload; cancelling it aborts the commit
// through the repository's abort path (ticket released, CAS references
// returned) and re-marks the captured chunks dirty so the next commit
// retries them.
func (m *Module) CommitAsync(ctx context.Context) (*PendingCommit, error) {
	return m.commitAsync(ctx, ctx)
}

// CommitAsyncDetached is CommitAsync with the upload detached from ctx's
// cancellation: ctx governs only the bounded admission (so a caller holding
// a VM suspended can still bail out when the pipeline is full), while the
// background upload runs under context.WithoutCancel(ctx) and outlives the
// request. This is what the checkpointing proxy uses: the CHECKPOINT
// exchange must not drag the commit down with it when the client hangs up.
func (m *Module) CommitAsyncDetached(ctx context.Context) (*PendingCommit, error) {
	return m.commitAsync(ctx, context.WithoutCancel(ctx))
}

// commitAsync implements both admission policies: admitCtx bounds the wait
// for a pipeline slot, uploadCtx governs the background publish.
func (m *Module) commitAsync(admitCtx, uploadCtx context.Context) (*PendingCommit, error) {
	m.pipeOnce.Do(func() {
		depth := m.pipelineDepth
		if depth < 1 {
			depth = DefaultPipelineDepth
		}
		m.sem = make(chan struct{}, depth)
	})
	// Bounded admission, outside m.mu so reads/writes proceed meanwhile.
	select {
	case m.sem <- struct{}{}:
	case <-admitCtx.Done():
		return nil, admitCtx.Err()
	}
	// Serialize capture+enqueue: pipeline order is version order.
	m.captureMu.Lock()
	defer m.captureMu.Unlock()
	m.mu.Lock()
	if !m.hasCkpt {
		m.mu.Unlock()
		<-m.sem
		return nil, ErrNoCheckpointImage
	}
	if m.halted {
		m.mu.Unlock()
		<-m.sem
		return nil, ErrHalted
	}
	// Attach the client's registry so every stage of this commit — the
	// capture here and the probe/upload/publish/durable stages inside the
	// client — lands in one scrape surface; a Trace carried by the caller's
	// context survives too (WithoutCancel preserves values).
	uploadCtx = obs.WithRegistry(uploadCtx, m.client.Obs)
	// Per-commit cancellation on top of the caller's context, so Halt can
	// abort every live commit (including detached ones) through the
	// repository's abort path.
	uploadCtx, cancel := context.WithCancel(uploadCtx)
	m.seq++
	pc := &PendingCommit{
		ctx:         uploadCtx,
		cancel:      cancel,
		chunks:      make([]blobseer.Chunk, 0, len(m.dirty)),
		size:        m.size,
		seq:         m.seq,
		captureBase: m.base,
		localSafe:   make(chan struct{}),
		done:        make(chan struct{}),
	}
	// Stage: capture — the only pipeline stage inside the suspend window. The
	// dirty buffers change hands, uncopied: WriteAt keeps the suspended state
	// intact by moving a frozen chunk to a fresh buffer before it writes.
	_, capture := obs.StartSpan(uploadCtx, obs.SpanCommitCapture)
	for idx := range m.dirty {
		chunk := m.local[idx]
		// The device's final chunk may extend past the virtual size; trim
		// so the repository never stores bytes beyond the device.
		end := (idx + 1) * m.chunkSize
		if end > m.size {
			chunk = chunk[:m.size-idx*m.chunkSize]
		}
		pc.chunks = append(pc.chunks, blobseer.Chunk{Index: idx, Body: chunk})
		m.frozen[idx] = true
	}
	m.client.Registry().Counter("mirror_capture_chunks_total").Add(uint64(len(m.dirty)))
	m.dirty = make(map[uint64]bool)
	capture.End()
	if m.inFlight == 0 {
		m.idle = make(chan struct{})
	}
	m.inFlight++
	m.live[pc] = struct{}{}
	if m.stageCfg != nil {
		// Write-back path: the capture first lands in the local tier; its
		// pipeline slot frees once it is staged, so admission is paced by
		// local staging speed, not by the remote plane.
		m.stageQueue = append(m.stageQueue, pc)
		if !m.stageWorkerRunning {
			m.stageWorkerRunning = true
			go m.stageWorker()
		}
	} else {
		close(pc.localSafe) // degenerate: local safety == global durability
		m.queue = append(m.queue, pc)
		if !m.workerRunning {
			m.workerRunning = true
			go m.commitWorker()
		}
	}
	m.mu.Unlock()
	return pc, nil
}

// stageWorker drains the stage FIFO: each capture is staged into the local
// tier, replicated to the partner, acknowledged locally safe, and handed to
// the drain queue. The pipeline slot is released here — after staging, not
// after the remote publish — which is what decouples admission from remote
// bandwidth.
func (m *Module) stageWorker() {
	for {
		m.mu.Lock()
		if len(m.stageQueue) == 0 {
			m.stageWorkerRunning = false
			m.mu.Unlock()
			return
		}
		pc := m.stageQueue[0]
		m.stageQueue = m.stageQueue[1:]
		m.mu.Unlock()
		blobseer.SortChunks(pc.chunks)
		m.runStage(pc)
		<-m.sem
	}
}

// runStage stages one capture locally and replicates it to the partner.
func (m *Module) runStage(pc *PendingCommit) {
	m.mu.Lock()
	cfg := m.stageCfg
	m.mu.Unlock()
	if err := pc.ctx.Err(); err != nil {
		// Halted (or the caller aborted) before staging: finish the handle
		// without touching the tier or the drain queue.
		m.mu.Lock()
		m.retireLocked(pc)
		m.mu.Unlock()
		pc.localErr = err
		close(pc.localSafe)
		pc.err = fmt.Errorf("mirror: commit: %w", err)
		pc.chunks = nil
		pc.cancel()
		close(pc.done)
		return
	}
	_, span := obs.StartSpan(pc.ctx, obs.SpanCommitStageLocal)
	cap, err := cfg.Stage.Put(cfg.Owner, pc.seq, pc.captureBase, pc.size, m.chunkSize, pc.chunks, false)
	if err == nil && cfg.Replicate != nil {
		if rerr := cfg.Replicate(pc.ctx, cap, pc.chunks); rerr != nil {
			err = fmt.Errorf("mirror: replicate capture %d to partner: %w", pc.seq, rerr)
		}
	}
	span.End()
	m.mu.Lock()
	if err != nil {
		// Staging or replication failed: the capture is not locally safe, and
		// its ack degrades to global durability.
		pc.localErr = err
	}
	if cap != nil {
		// Staged, replicated or not: the drain re-reads it from the stage and
		// its durable publish unstages it, so a failed replication leaves
		// nothing behind in the tier.
		pc.capture = cap
		pc.chunks = nil
	}
	// Otherwise staging itself failed, but the capture is still in memory:
	// it takes the direct remote path, so local-tier trouble degrades to
	// untiered behavior instead of losing the checkpoint.
	close(pc.localSafe)
	m.queue = append(m.queue, pc)
	if !m.workerRunning {
		m.workerRunning = true
		go m.commitWorker()
	}
	m.mu.Unlock()
}

// commitWorker drains the pipeline FIFO and exits when it runs dry; the
// next CommitAsync (or stageWorker hand-off) restarts it.
func (m *Module) commitWorker() {
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.workerRunning = false
			m.mu.Unlock()
			return
		}
		pc := m.queue[0]
		m.queue = m.queue[1:]
		stageMode := m.stageCfg != nil
		m.mu.Unlock()
		if !stageMode {
			blobseer.SortChunks(pc.chunks) // stageWorker sorted a write-back capture
		}
		m.runCommit(pc)
		if !stageMode {
			<-m.sem // write-back slots were already freed by stageWorker
		}
	}
}

// drainBackoffMax caps the retry backoff of the write-back drainer.
const drainBackoffMax = time.Second

// runCommit publishes one captured dirty set. A staged capture (write-back
// tier) is kept by the node's stage, so a remote failure is retried with
// capped backoff until the commit's context is cancelled — the drain keeps
// pace with whatever the remote plane sustains instead of failing the
// checkpoint.
func (m *Module) runCommit(pc *PendingCommit) {
	// Overlay the module's own chain (the last snapshot it published, or the
	// rollback target), not the blob's latest version: after a rollback the
	// latest version may be an orphan holding exactly the writes that were
	// rolled back.
	m.mu.Lock()
	base := m.base
	cfg := m.stageCfg
	m.mu.Unlock()

	chunks := pc.chunks
	var info blobseer.VersionInfo
	var cs blobseer.CommitStats
	var err error
	if pc.capture != nil {
		chunks, err = cfg.Stage.Chunks(pc.capture)
	}
	if err == nil {
		backoff := 10 * time.Millisecond
		for {
			info, cs, err = m.client.WriteChunks(pc.ctx, base.Blob, &base, &m.memo, chunks, pc.size)
			if err == nil || pc.capture == nil || pc.ctx.Err() != nil {
				break
			}
			// The repository's abort path already ran inside the failed
			// write (refcounts balanced); the staged copy is intact, so
			// retry at drain pace.
			m.client.Registry().Counter("mirror_drain_retries_total").Inc()
			select {
			case <-pc.ctx.Done():
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > drainBackoffMax {
				backoff = drainBackoffMax
			}
		}
	}

	m.mu.Lock()
	if m.halted {
		m.memo.Drop() // this commit's hash stage may have refilled it after Halt
	}
	if err != nil {
		if pc.capture == nil {
			// The capture is lost to the repository but not to the VM.
			// Captures already queued behind this one were taken with the
			// dirty set cleared, so without help their snapshots would
			// silently miss this commit's writes. Fold the failed writes
			// into the FIRST queued in-memory capture that does not
			// overwrite the same chunk: later queued captures inherit them
			// through the published chain, and folding into every one (or
			// additionally re-marking the chunks dirty) would publish — and
			// count in CommitStats — the same write more than once. Only
			// when nothing is queued to carry them do the chunks go back to
			// the dirty set for a future capture. Either way the buffers stay
			// frozen: the fold shares them, and a chunk re-marked dirty may
			// already sit in a capture still in the stage queue.
			absorbed := false
			for _, q := range m.queue {
				if q.capture != nil {
					continue // staged capture: its writes live in the tier
				}
				q.chunks = foldChunks(q.chunks, pc.chunks)
				absorbed = true
				break
			}
			if !absorbed {
				for _, ch := range pc.chunks {
					if m.local[ch.Index] != nil {
						m.dirty[ch.Index] = true
					}
				}
			}
		}
		// A staged capture needs no fold: its payload stays in the tier (and,
		// once replicated, on the partner), where a restart or the partner
		// drain picks it up.
		pc.err = fmt.Errorf("mirror: commit: %w", err)
		m.client.Registry().Counter("mirror_commit_failures_total").Inc()
	} else {
		m.commitStats.Add(cs)
		m.commits++
		m.client.Registry().Counter("mirror_commits_total").Inc()
		pc.info = info
		pc.ref = blobseer.SnapshotRef{Blob: m.ckptBlob, Version: info.Version}
		m.base = pc.ref
	}
	m.mu.Unlock()
	if err == nil && pc.capture != nil {
		// Globally durable: drop the staged copy, record the drain memo and
		// release the partner replica.
		cfg.Stage.MarkDrained(cfg.Owner, pc.seq, pc.ref)
		if cfg.Release != nil {
			cfg.Release(cfg.Owner, pc.seq, pc.ref)
		}
	}
	pc.chunks = nil // release the capture
	pc.cancel()     // release the per-commit context
	// Retired last: a DrainNow this wakes finds the tier cleared of the capture.
	m.mu.Lock()
	m.retireLocked(pc)
	m.mu.Unlock()
	close(pc.done)
}

// foldChunks merges a failed capture's chunks into a newer capture's and
// returns the newer capture's list, sorted; where both hold an index, the
// newer body wins.
func foldChunks(newer, failed []blobseer.Chunk) []blobseer.Chunk {
	all := append(newer, failed...)
	slices.SortStableFunc(all, func(a, b blobseer.Chunk) int { return cmp.Compare(a.Index, b.Index) })
	return slices.CompactFunc(all, func(a, b blobseer.Chunk) bool { return a.Index == b.Index })
}

// Halt cancels every live commit (queued, staging or publishing) and
// rejects new ones with ErrHalted. It models the node dying or being
// preempted: in-flight uploads abort through the repository's abort path so
// CAS refcounts never leak, while captures already staged in the local tier
// stay there — the partner replica (or a restart in place) drains them.
// Halt does not wait for the aborts to finish. The demand record stops too:
// nothing more is recorded or published.
func (m *Module) Halt() {
	m.mu.Lock()
	m.halted = true
	m.closeRecord()
	m.memo.Drop()
	cancels := make([]context.CancelFunc, 0, len(m.live))
	for pc := range m.live {
		cancels = append(cancels, pc.cancel)
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// Halted reports whether Halt has been called.
func (m *Module) Halted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.halted
}

// DrainNow blocks until every captured commit has fully drained to the
// remote plane (or ctx expires): the preemption path — a spot instance that
// received its notice flushes the local tier inside the grace window so no
// locally-safe-only state is lost with the node.
func (m *Module) DrainNow(ctx context.Context) error {
	m.mu.Lock()
	idle := m.idle
	m.mu.Unlock()
	if idle == nil {
		return nil
	}
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retireLocked takes a finished capture out of the in-flight accounting; the
// last one out wakes DrainNow. Caller holds m.mu.
func (m *Module) retireLocked(pc *PendingCommit) {
	delete(m.live, pc)
	if m.inFlight--; m.inFlight == 0 {
		close(m.idle)
		m.idle = nil
	}
}

// Commit publishes the dirty chunks as a new incremental snapshot of the
// checkpoint image and returns the published version: the synchronous
// convenience wrapper around CommitAsync + Wait. The local cache is
// retained; the dirty set is cleared.
func (m *Module) Commit(ctx context.Context) (blobseer.VersionInfo, error) {
	pc, err := m.CommitAsync(ctx)
	if err != nil {
		return blobseer.VersionInfo{}, err
	}
	if _, err := pc.Wait(ctx); err != nil {
		return blobseer.VersionInfo{}, err
	}
	info, _ := pc.Info()
	return info, nil
}

// CommitStats returns the cumulative commit accounting: chunks committed,
// chunks deduplicated away by the content-addressed repository, and logical
// vs actually-transferred bytes.
func (m *Module) CommitStats() blobseer.CommitStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitStats
}

// CheckpointImage returns the checkpoint blob id, if Clone has happened.
func (m *Module) CheckpointImage() (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ckptBlob, m.hasCkpt
}

// Source returns the snapshot backing unfetched content.
func (m *Module) Source() blobseer.SnapshotRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.src
}

// DirtyChunks returns the number of chunks modified since the last commit.
func (m *Module) DirtyChunks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dirty)
}

// DirtyBytes returns the bytes that the next Commit will upload.
func (m *Module) DirtyBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.dirty)) * m.chunkSize
}

// PendingCommits returns how many commits are captured but not yet
// completed (queued or uploading).
func (m *Module) PendingCommits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight
}

// Stats returns (remote chunk fetches, local hits, commits).
func (m *Module) Stats() (remoteReads, localHits, commits uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remoteReads, m.localHits, m.commits
}

// Prefetch fetches the given chunks into the local cache ahead of demand.
// Already-local chunks are skipped. The missing set — however scattered —
// is resolved with one level-order metadata lookup and fetched with one
// read-engine call, which stripes it across the providers in batched frames
// of at most 4 MiB on Client.Parallelism streams: what is in flight is
// bounded by that, not by the length of the list. Each verified body is
// installed as it arrives, as the window of its response frame it was
// delivered as (no copy), while the next frames are still moving; a hole is
// installed as known-zero and takes no memory. The module
// lock is not held across the network reads, so guest I/O proceeds while a
// (possibly large) list is warming; chunks the guest writes or pages in
// meanwhile are left untouched, and a rollback mid-prefetch stops the fetch
// and discards what it would have installed. What Prefetch installs never
// enters the demand record.
func (m *Module) Prefetch(ctx context.Context, indices []uint64) error {
	return m.prefetch(ctx, indices, false)
}

// prefetch is Prefetch, marking what it installs as hinted when it replays
// a boot-set hint.
func (m *Module) prefetch(ctx context.Context, indices []uint64, hint bool) error {
	m.mu.Lock()
	snap := m.snap
	end := (m.size + m.chunkSize - 1) / m.chunkSize
	need := make([]uint64, 0, len(indices))
	for _, idx := range indices {
		if _, ok := m.local[idx]; !ok && idx < end {
			need = append(need, idx)
		}
	}
	m.mu.Unlock()
	slices.Sort(need)
	need = slices.Compact(need)
	if len(need) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rolledBack := false
	replayed := m.client.Registry().Counter("mirror_hint_replayed_chunks_total")
	_, err := snap.ReadChunks(ctx, need, func(idx uint64, body []byte) {
		chunk := m.fullChunk(body)
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.snap != snap {
			// Rolled back mid-prefetch: this data is stale. Drop it and stop
			// fetching more of it.
			rolledBack = true
			cancel()
			return
		}
		if _, ok := m.local[idx]; ok {
			return // written or paged in while we fetched
		}
		m.remoteReads++
		m.local[idx] = chunk
		if hint {
			if m.hinted == nil {
				m.hinted = make(map[uint64]bool, len(need))
			}
			m.hinted[idx] = true
			replayed.Inc()
		}
	})
	// Every delivery has returned by now, so rolledBack is settled.
	if err != nil && !rolledBack {
		return fmt.Errorf("mirror: prefetch chunks %d..%d: %w", need[0], need[len(need)-1], err)
	}
	return nil
}

// ChunkSize returns the device's chunk granularity.
func (m *Module) ChunkSize() uint64 { return m.chunkSize }

var _ vdisk.Device = (*Module)(nil)
