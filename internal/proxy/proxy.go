// Package proxy implements the checkpointing proxy: the per-compute-node
// service that VM instances contact to request snapshots of their own
// virtual disk.
//
// As in the paper, the proxy is not globally accessible — it only accepts
// requests from instances registered as locally hosted, authenticated by a
// per-VM token. On a checkpoint request it (1) clones the base image into a
// checkpoint image if this is the first checkpoint — while the instance still
// runs — (2) suspends the instance, (3) captures the locally accumulated
// modifications (the mirror hands their buffers over; nothing is copied) and
// (4) resumes the instance — so VM downtime covers only suspend + a walk over
// the dirty index, independent of the dirty-set size.
// The commit of the captured chunks to the repository proceeds in the
// background after resume; the response carries an asynchronous checkpoint
// handle that WAIT or POLL resolve to the published snapshot once the
// upload completes.
//
// The proxy speaks the plane's one binary dialect: each request is an op
// byte named in the transport's op registry, followed by its fields in the
// wire encoding; a refused request is a handler error, which the caller
// receives as a *transport.RemoteError. Instance ops carry the VM id and its
// token as two strings after the op byte:
//
//	op    name        request fields            reply
//	0xC0  CHECKPOINT  vm, token                 u64 handle
//	0xC1  WAIT        vm, token, u64 handle     u64 blob, u64 version
//	0xC2  POLL        vm, token, u64 handle     bool done, u64 blob, u64 version
//	0xC3  WAITLOCAL   vm, token, u64 handle     u64 seq
//	0xC4  STATUS      vm, token                 string state, uvarint dirty, uvarint pending, staged backlog
//	0xC5  PREFETCH    vm, token, index list     empty
//	0xC6  PING        —                         uvarint instances
//	0xC7  BACKLOG     —                         own backlog, partner backlog
//	0xC8  DRAIN-NOW   —                         uvarint modules drained
//	0xC9  DRAINFOR    owner, u64 seq            u64 blob, u64 version
//	0xD0  stage-put   capture header, chunks    empty
//	0xD1  stage-release owner, u64 seq, ref     empty
//
// A backlog is uvarint checkpoints, uvarint chunks, u64 bytes; an index list
// is wire's (Buffer.PutIndices). The node ops from PING on are tokenless,
// and all but PING need a local tier (stage.go).
//
// PREFETCH pages the listed chunks into the instance's local mirror cache
// ahead of demand (the paper's adaptive prefetching on restart): the module
// groups them into contiguous runs and the repository client stripes each
// run across data providers in batched frames.
//
// PING is the liveness probe of the failure detector (internal/supervisor):
// it needs no VM id or token — the round trip itself is the health signal —
// and it touches no instance, so probing never perturbs a checkpoint.
//
// The proxy also answers the binary introspection ops every endpoint shares
// (transport.Introspect): metrics, trace, flight, history and health, all
// tokenless — they expose aggregate telemetry, not any VM's data.
package proxy

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
	"blobcr/internal/wire"
)

// Errors surfaced to callers.
var (
	ErrUnknownVM     = errors.New("proxy: unknown VM instance")
	ErrAuth          = errors.New("proxy: authentication failed")
	ErrProto         = errors.New("proxy: malformed request")
	ErrUnknownHandle = errors.New("proxy: unknown checkpoint handle")
)

// Proxy op codes (the table in the package comment).
const (
	opCheckpoint = 0xC0 + iota
	opWait
	opPoll
	opWaitLocal
	opStatus
	opPrefetch
	opPing
	opBacklog
	opDrainNow
	opDrainFor

	opStagePut     = 0xD0
	opStageRelease = 0xD1
)

func init() {
	transport.RegisterOps(map[byte]string{
		opCheckpoint:   "CHECKPOINT",
		opWait:         "WAIT",
		opPoll:         "POLL",
		opWaitLocal:    "WAITLOCAL",
		opStatus:       "STATUS",
		opPrefetch:     "PREFETCH",
		opPing:         "PING",
		opBacklog:      "BACKLOG",
		opDrainNow:     "DRAIN-NOW",
		opDrainFor:     "DRAINFOR",
		opStagePut:     "stage-put",
		opStageRelease: "stage-release",
	})
}

// request is one proxy request, decoded or to be encoded. Which fields an op
// carries is the package comment's table.
type request struct {
	op      byte
	vm      string // the instance; the owner of DRAINFOR and stage-release
	token   string
	arg     uint64 // the checkpoint handle; the seq of DRAINFOR and stage-release
	indices []uint64
	ref     blobseer.SnapshotRef // stage-release

	capture *localtier.Capture // stage-put
	chunks  []blobseer.Chunk   // stage-put
}

// encode builds q's request frame.
func (q request) encode() []byte {
	if q.op == opStagePut {
		return encodeStagePut(q.capture, q.chunks)
	}
	w := wire.NewBuffer(1 + 2*binary.MaxVarintLen32 + len(q.vm) + len(q.token) + 3*8 + len(q.indices)*binary.MaxVarintLen64)
	w.PutU8(q.op)
	switch q.op {
	case opCheckpoint, opStatus:
		w.PutString(q.vm)
		w.PutString(q.token)
	case opWait, opPoll, opWaitLocal:
		w.PutString(q.vm)
		w.PutString(q.token)
		w.PutU64(q.arg)
	case opPrefetch:
		w.PutString(q.vm)
		w.PutString(q.token)
		w.PutIndices(q.indices)
	case opDrainFor:
		w.PutString(q.vm)
		w.PutU64(q.arg)
	case opStageRelease:
		w.PutString(q.vm)
		w.PutU64(q.arg)
		putRef(w, q.ref)
	}
	return w.Bytes()
}

// decodeRequest parses a request frame. The frame comes off the network, so
// an unknown op, a truncated field or a byte past the last field rejects it
// whole, before anything is served.
func decodeRequest(frame []byte) (request, error) {
	if len(frame) > 0 && frame[0] == opStagePut {
		c, chunks, err := decodeStagePut(frame)
		return request{op: opStagePut, capture: &c, chunks: chunks}, err
	}
	r := wire.NewReader(frame)
	q := request{op: r.U8()}
	switch q.op {
	case opCheckpoint, opStatus:
		q.vm, q.token = r.String(), r.String()
	case opWait, opPoll, opWaitLocal:
		q.vm, q.token, q.arg = r.String(), r.String(), r.U64()
	case opPrefetch:
		q.vm, q.token, q.indices = r.String(), r.String(), r.Indices(math.MaxUint64)
	case opDrainFor:
		q.vm, q.arg = r.String(), r.U64()
	case opStageRelease:
		q.vm, q.arg, q.ref = r.String(), r.U64(), getRef(r)
	case opPing, opBacklog, opDrainNow:
	default:
		return q, fmt.Errorf("proxy: unknown op 0x%02X", q.op)
	}
	if err := r.End(); err != nil {
		return q, fmt.Errorf("%w: %s: %w", ErrProto, transport.OpName(q.op), err)
	}
	return q, nil
}

func putRef(w *wire.Buffer, ref blobseer.SnapshotRef) {
	w.PutU64(ref.Blob)
	w.PutU64(ref.Version)
}

func getRef(r *wire.Reader) blobseer.SnapshotRef {
	return blobseer.SnapshotRef{Blob: r.U64(), Version: r.U64()}
}

func putBacklog(w *wire.Buffer, b localtier.Backlog) {
	w.PutUvarint(uint64(b.Checkpoints))
	w.PutUvarint(uint64(b.Chunks))
	w.PutU64(b.Bytes)
}

func getBacklog(r *wire.Reader) localtier.Backlog {
	return localtier.Backlog{Checkpoints: int(r.Uvarint()), Chunks: int(r.Uvarint()), Bytes: r.U64()}
}

// target is one locally hosted, checkpointable VM.
type target struct {
	inst   *vm.Instance
	mirror *mirror.Module
	token  string

	mu         sync.Mutex
	nextHandle uint64
	pending    map[uint64]*mirror.PendingCommit
}

// DefaultAdmitTimeout bounds how long a CHECKPOINT request may hold the VM
// suspended waiting for a commit-pipeline slot. When the repository wedges
// and the pipeline is full, the request fails (and the VM resumes) after
// this long instead of staying suspended indefinitely — the request context
// alone cannot be relied on for this, because over TCP the handler receives
// the server's lifetime context, not the caller's.
const DefaultAdmitTimeout = 10 * time.Second

// Proxy is one compute node's checkpointing proxy.
type Proxy struct {
	// AdmitTimeout overrides DefaultAdmitTimeout when positive.
	AdmitTimeout time.Duration

	// Obs is the metrics registry the proxy records into and its
	// introspection ops expose. Nil means obs.Default.
	Obs *obs.Registry

	// Multilevel checkpointing (all optional; see stage.go). Stage is the
	// node-local write-back tier: when set, registered modules stage their
	// captures into it before the background drain publishes them remotely.
	// PartnerAddr names the neighbor proxy that keeps a replica of every
	// staged capture (empty disables partner replication); Net carries the
	// partner frames. Repo is the repository client used to drain a dead
	// neighbor's replicas on its behalf (DRAINFOR).
	Stage       *localtier.Stage
	PartnerAddr string
	Net         transport.Network
	Repo        *blobseer.Client

	mu      sync.Mutex
	targets map[string]*target
}

// New returns an empty proxy.
func New() *Proxy {
	return &Proxy{targets: make(map[string]*target)}
}

func (p *Proxy) registry() *obs.Registry {
	if p.Obs != nil {
		return p.Obs
	}
	return obs.Default
}

func (p *Proxy) admitTimeout() time.Duration {
	if p.AdmitTimeout > 0 {
		return p.AdmitTimeout
	}
	return DefaultAdmitTimeout
}

// Register makes a locally hosted instance checkpointable under the given
// authentication token.
func (p *Proxy) Register(vmID, token string, inst *vm.Instance, m *mirror.Module) {
	if p.Stage != nil {
		// A previous incarnation's staged chain is stale for this module.
		p.Stage.Drop(vmID)
		m.AttachStage(p.stageConfigFor(vmID))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.targets[vmID] = &target{inst: inst, mirror: m, token: token, pending: make(map[uint64]*mirror.PendingCommit)}
}

// Unregister removes an instance (it terminated or migrated away).
func (p *Proxy) Unregister(vmID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.targets, vmID)
}

// Serve binds the proxy to addr on n.
func (p *Proxy) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(p.registry, p.handle))
}

func (p *Proxy) lookup(vmID, token string) (*target, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.targets[vmID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVM, vmID)
	}
	if t.token != token {
		return nil, fmt.Errorf("%w: %s", ErrAuth, vmID)
	}
	return t, nil
}

func (p *Proxy) handle(ctx context.Context, frame []byte) ([]byte, error) {
	q, err := decodeRequest(frame)
	if err != nil {
		return nil, err
	}
	w := wire.NewBuffer(32)
	switch q.op {
	case opPing:
		p.mu.Lock()
		w.PutUvarint(uint64(len(p.targets)))
		p.mu.Unlock()
	case opBacklog, opDrainNow, opDrainFor, opStagePut, opStageRelease:
		err = p.serveTier(ctx, q, w)
	default:
		var t *target
		if t, err = p.lookup(q.vm, q.token); err == nil {
			err = p.serveInstance(ctx, t, q, w)
		}
	}
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// serveInstance answers an instance op for the authenticated target t.
func (p *Proxy) serveInstance(ctx context.Context, t *target, q request, w *wire.Buffer) error {
	switch q.op {
	case opCheckpoint:
		handle, err := p.checkpoint(ctx, t)
		if err != nil {
			return err
		}
		w.PutU64(handle)
	case opWait:
		pc, err := t.commit(q.arg)
		if err != nil {
			return err
		}
		ref, err := pc.Wait(ctx)
		if err != nil {
			return err
		}
		putRef(w, ref)
	case opPoll:
		ref, done, err := t.poll(q.arg)
		if err != nil {
			return err
		}
		w.PutBool(done)
		putRef(w, ref)
	case opWaitLocal:
		pc, err := t.commit(q.arg)
		if err != nil {
			return err
		}
		if err := pc.WaitLocallySafe(ctx); err != nil {
			return err
		}
		w.PutU64(pc.Seq())
	case opStatus:
		w.PutString(t.inst.State().String())
		w.PutUvarint(uint64(t.mirror.DirtyChunks()))
		w.PutUvarint(uint64(t.mirror.PendingCommits()))
		var staged localtier.Backlog
		if p.Stage != nil {
			staged = p.Stage.OwnerBacklog(q.vm)
		}
		putBacklog(w, staged)
	default: // opPrefetch
		return t.mirror.Prefetch(ctx, q.indices)
	}
	return nil
}

// checkpoint performs the clone-suspend-capture-resume sequence and returns
// the handle of the in-flight commit. The VM resumes before any chunk is
// uploaded: only the local capture happens under suspend.
func (p *Proxy) checkpoint(ctx context.Context, t *target) (handle uint64, err error) {
	reg := p.registry()
	// The handler span parents under the caller's RPC span via the wire's
	// trace-context header; the capture and the detached upload stages derive
	// from its context, so an assembled trace shows the whole checkpoint
	// under this node's handler.
	ctx, sp := obs.StartSpan(obs.HandlerContext(ctx, reg), "handler/CHECKPOINT")
	defer sp.End()
	defer func() {
		if err != nil {
			reg.Counter("proxy_checkpoint_failures_total").Inc()
		} else {
			reg.Counter("proxy_checkpoints_total").Inc()
		}
	}()
	// The CLONE round trip and admission into the bounded pipeline are
	// bounded by a deadline on top of the request context: if the repository
	// or the pipeline wedges, the request fails — and a suspended VM resumes
	// — after at most the admit timeout instead of waiting without bound.
	// (Over TCP the handler context is the server's, so the deadline — not
	// caller cancellation — is what guarantees the bound.) The upload itself
	// is detached and unaffected.
	admitCtx, cancel := context.WithTimeout(ctx, p.admitTimeout())
	defer cancel()
	// CLONE depends only on the immutable backing snapshot, so it runs while
	// the VM does: a first checkpoint's window holds no round trip, and a
	// repository that is down fails the request without suspending anything.
	if err := t.mirror.Clone(admitCtx); err != nil {
		return 0, err
	}
	sw := obs.StartTimer()
	if err := t.inst.Suspend(); err != nil {
		return 0, err
	}
	// Resume whatever happens — the paper's proxy resumes the instance
	// regardless and reports the outcome. The suspend window — suspend to
	// resume, the paper's headline downtime number — is observed on the way
	// out; the capture span recorded inside it tells where the window went.
	defer func() {
		if rerr := t.inst.Resume(); rerr != nil && err == nil {
			err = rerr
		}
		ns := sw.ElapsedNanos()
		reg.Histogram("proxy_suspend_ns").Observe(ns)
		reg.Gauge("proxy_suspend_last_ns").Set(int64(ns))
	}()
	pc, err := t.mirror.CommitAsyncDetached(admitCtx)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.nextHandle++
	handle = t.nextHandle
	t.pending[handle] = pc
	t.pruneHandlesLocked()
	t.mu.Unlock()
	return handle, nil
}

// maxRetainedHandles bounds target.pending in a long-running proxy:
// completed commits beyond this many are dropped oldest-first (in-flight
// handles are never dropped). Clients wait or poll a handle promptly after
// taking the checkpoint, so a small retention window is plenty.
const maxRetainedHandles = 64

// pruneHandlesLocked evicts the oldest completed handles past the retention
// bound. Caller holds t.mu.
func (t *target) pruneHandlesLocked() {
	if len(t.pending) <= maxRetainedHandles {
		return
	}
	handles := make([]uint64, 0, len(t.pending))
	for h := range t.pending {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	for _, h := range handles {
		if len(t.pending) <= maxRetainedHandles {
			break
		}
		select {
		case <-t.pending[h].Done():
			delete(t.pending, h)
		default:
		}
	}
}

func (t *target) commit(h uint64) (*mirror.PendingCommit, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pc, ok := t.pending[h]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHandle, h)
	}
	return pc, nil
}

// poll reports the commit's state without blocking.
func (t *target) poll(h uint64) (blobseer.SnapshotRef, bool, error) {
	pc, err := t.commit(h)
	if err != nil {
		return blobseer.SnapshotRef{}, false, err
	}
	select {
	case <-pc.Done():
		ref, _ := pc.Ref()
		return ref, true, pc.Err()
	default:
		return blobseer.SnapshotRef{}, false, nil
	}
}

// Client is the guest-side stub that VM instances (or the modified MPI
// library inside them) use to talk to their local proxy.
type Client struct {
	Net   transport.Network
	Addr  string // the co-located proxy's address
	VMID  string
	Token string
}

// do issues an instance op for this client's VM; handle is the checkpoint
// handle of WAIT, POLL and WAITLOCAL.
func (c *Client) do(ctx context.Context, op byte, handle uint64, read func(*wire.Reader)) error {
	return transport.CallOp(ctx, c.Net, c.Addr, request{op: op, vm: c.VMID, token: c.Token, arg: handle}.encode(), read)
}

// RequestCheckpointAsync asks the proxy to snapshot this instance's disk.
// It returns as soon as the instance has resumed: the commit proceeds in
// the background, identified by the returned handle, which WaitCheckpoint
// or PollCheckpoint resolve to the published snapshot.
func (c *Client) RequestCheckpointAsync(ctx context.Context) (handle uint64, err error) {
	ctx, sp := obs.StartSpan(ctx, "rpc/CHECKPOINT")
	defer sp.End()
	err = c.do(ctx, opCheckpoint, 0, func(r *wire.Reader) { handle = r.U64() })
	return handle, err
}

// WaitCheckpoint blocks until the checkpoint behind handle has been
// committed to the repository and returns the published snapshot.
func (c *Client) WaitCheckpoint(ctx context.Context, handle uint64) (ref blobseer.SnapshotRef, err error) {
	err = c.do(ctx, opWait, handle, func(r *wire.Reader) { ref = getRef(r) })
	return ref, err
}

// PollCheckpoint reports without blocking whether the checkpoint behind
// handle has completed, and if so returns the published snapshot. A
// checkpoint that is only locally safe is still pending.
func (c *Client) PollCheckpoint(ctx context.Context, handle uint64) (ref blobseer.SnapshotRef, done bool, err error) {
	err = c.do(ctx, opPoll, handle, func(r *wire.Reader) { done, ref = r.Bool(), getRef(r) })
	return ref, done, err
}

// RequestCheckpoint is the synchronous convenience wrapper: it requests the
// snapshot and waits for the background commit to publish. The instance
// itself still resumes as soon as the capture is done — only this caller
// blocks for the upload.
func (c *Client) RequestCheckpoint(ctx context.Context) (blobseer.SnapshotRef, error) {
	handle, err := c.RequestCheckpointAsync(ctx)
	if err != nil {
		return blobseer.SnapshotRef{}, err
	}
	return c.WaitCheckpoint(ctx, handle)
}

// status fetches the STATUS reply.
func (c *Client) status(ctx context.Context) (state string, dirty, pending int, staged localtier.Backlog, err error) {
	err = c.do(ctx, opStatus, 0, func(r *wire.Reader) {
		state, dirty, pending = r.String(), int(r.Uvarint()), int(r.Uvarint())
		staged = getBacklog(r)
	})
	return state, dirty, pending, staged, err
}

// Status returns the instance state, dirty chunk count and in-flight commit
// count as the proxy sees them.
func (c *Client) Status(ctx context.Context) (state string, dirtyChunks, pendingCommits int, err error) {
	state, dirtyChunks, pendingCommits, _, err = c.status(ctx)
	return state, dirtyChunks, pendingCommits, err
}

// Staged returns what the node's local tier holds of this instance's
// captures not yet drained to the repository; zero without a local tier.
func (c *Client) Staged(ctx context.Context) (localtier.Backlog, error) {
	_, _, _, staged, err := c.status(ctx)
	return staged, err
}

// Prefetch asks the proxy to page the given chunks of this instance's disk
// into the mirroring module's local cache ahead of demand — the restart
// path's adaptive prefetching, driven by another instance's access trace.
// The module resolves the whole set with one metadata lookup and the
// repository client stripes it across the data providers in batched frames,
// so a large trace costs O(tree height + frames) round trips, not O(chunks).
func (c *Client) Prefetch(ctx context.Context, indices []uint64) error {
	if len(indices) == 0 {
		return nil
	}
	return transport.CallOp(ctx, c.Net, c.Addr, request{op: opPrefetch, vm: c.VMID, token: c.Token, indices: indices}.encode(), nil)
}

// Ping probes the proxy at addr for liveness and returns how many instances
// it hosts. No VM id or token is needed: the failure detector pings nodes,
// not instances. An unreachable or partitioned proxy returns the transport
// error.
func Ping(ctx context.Context, n transport.Network, addr string) (instances int, err error) {
	err = transport.CallOp(ctx, n, addr, request{op: opPing}.encode(), func(r *wire.Reader) { instances = int(r.Uvarint()) })
	return instances, err
}
