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
// For maximum compatibility the protocol is a simple REST-ful text exchange:
//
//	request:  CHECKPOINT <vm-id> <token>
//	response: OK <handle> | ERR <message>
//
//	request:  WAIT <vm-id> <token> <handle>
//	response: OK <checkpoint-blob> <snapshot-version> | ERR <message>
//
//	request:  POLL <vm-id> <token> <handle>
//	response: OK PENDING | OK LOCAL <seq> | OK DONE <checkpoint-blob> <snapshot-version> | ERR <message>
//
//	request:  WAITLOCAL <vm-id> <token> <handle>
//	response: OK LOCAL <seq> | ERR <message>
//
//	request:  STATUS <vm-id> <token>
//	response: OK <state> <dirty-chunks> <pending-commits> [staged=<ckpts>/<bytes>] | ERR <message>
//
//	request:  PREFETCH <vm-id> <token> <idx,idx,...>
//	response: OK <count> | ERR <message>
//
//	request:  PING
//	response: OK PONG <registered-instances>
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
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// Errors surfaced to callers.
var (
	ErrUnknownVM     = errors.New("proxy: unknown VM instance")
	ErrAuth          = errors.New("proxy: authentication failed")
	ErrProto         = errors.New("proxy: malformed request")
	ErrUnknownHandle = errors.New("proxy: unknown checkpoint handle")
)

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

func (p *Proxy) handle(ctx context.Context, req []byte) ([]byte, error) {
	// Binary frames (first byte ≥ 0x80) past the introspection wrapper are
	// the partner-replication ops of the local tier; text verbs start with
	// ASCII letters.
	if len(req) > 0 && req[0] >= 0x80 {
		return p.handleStageFrame(ctx, req)
	}
	fields := strings.Fields(string(req))
	if len(fields) == 1 && fields[0] == "PING" {
		p.mu.Lock()
		n := len(p.targets)
		p.mu.Unlock()
		return []byte(fmt.Sprintf("OK PONG %d", n)), nil
	}
	if len(fields) == 0 {
		return []byte("ERR malformed request"), nil
	}
	// The drain-control verbs are node-level and tokenless like PING; all of
	// them require a local tier.
	switch fields[0] {
	case "BACKLOG", "DRAIN-NOW", "DRAINFOR":
		if p.Stage == nil {
			return []byte("ERR no local tier attached"), nil
		}
		switch {
		case fields[0] == "BACKLOG" && len(fields) == 1:
			return p.backlogReply(), nil
		case fields[0] == "DRAIN-NOW" && len(fields) == 1:
			n, err := p.drainAllNow(ctx)
			if err != nil {
				return []byte("ERR " + err.Error()), nil
			}
			return []byte(fmt.Sprintf("OK %d", n)), nil
		case fields[0] == "DRAINFOR" && len(fields) == 3:
			seq, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return []byte("ERR bad sequence " + fields[2]), nil
			}
			ref, err := p.drainFor(ctx, fields[1], seq)
			if err != nil {
				return []byte("ERR " + err.Error()), nil
			}
			return []byte(fmt.Sprintf("OK %d %d", ref.Blob, ref.Version)), nil
		default:
			return []byte("ERR malformed request"), nil
		}
	}
	if len(fields) < 3 {
		return []byte("ERR malformed request"), nil
	}
	verb, vmID, token := fields[0], fields[1], fields[2]
	t, err := p.lookup(vmID, token)
	if err != nil {
		return []byte("ERR " + err.Error()), nil
	}
	switch verb {
	case "CHECKPOINT":
		if len(fields) != 3 {
			return []byte("ERR malformed request"), nil
		}
		handle, err := p.checkpoint(ctx, t)
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte(fmt.Sprintf("OK %d", handle)), nil
	case "WAIT":
		if len(fields) != 4 {
			return []byte("ERR malformed request"), nil
		}
		ref, err := p.wait(ctx, t, fields[3])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte(fmt.Sprintf("OK %d %d", ref.Blob, ref.Version)), nil
	case "POLL":
		if len(fields) != 4 {
			return []byte("ERR malformed request"), nil
		}
		pc, err := t.commit(fields[3])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		ref, done, err := p.poll(t, fields[3])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		if !done {
			// Two-watermark state: a capture that reached the local tier is
			// reported LOCAL (locally safe, not yet globally durable).
			if pc.LocallySafe() {
				return []byte(fmt.Sprintf("OK LOCAL %d", pc.Seq())), nil
			}
			return []byte("OK PENDING"), nil
		}
		return []byte(fmt.Sprintf("OK DONE %d %d", ref.Blob, ref.Version)), nil
	case "WAITLOCAL":
		if len(fields) != 4 {
			return []byte("ERR malformed request"), nil
		}
		pc, err := t.commit(fields[3])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		if err := pc.WaitLocallySafe(ctx); err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte(fmt.Sprintf("OK LOCAL %d", pc.Seq())), nil
	case "STATUS":
		if len(fields) != 3 {
			return []byte("ERR malformed request"), nil
		}
		resp := fmt.Sprintf("OK %s %d %d", t.inst.State(), t.mirror.DirtyChunks(), t.mirror.PendingCommits())
		if p.Stage != nil {
			b := p.Stage.OwnerBacklog(vmID)
			resp += fmt.Sprintf(" staged=%d/%d", b.Checkpoints, b.Bytes)
		}
		return []byte(resp), nil
	case "PREFETCH":
		if len(fields) != 4 {
			return []byte("ERR malformed request"), nil
		}
		indices, err := parseIndices(fields[3])
		if err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		if err := t.mirror.Prefetch(ctx, indices); err != nil {
			return []byte("ERR " + err.Error()), nil
		}
		return []byte(fmt.Sprintf("OK %d", len(indices))), nil
	default:
		return []byte("ERR unknown verb " + verb), nil
	}
}

// parseIndices decodes a PREFETCH request's comma-separated chunk list.
func parseIndices(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad chunk index %q", ErrProto, p)
		}
		out = append(out, v)
	}
	return out, nil
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

func (t *target) commit(handleStr string) (*mirror.PendingCommit, error) {
	h, err := strconv.ParseUint(handleStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad handle %q", ErrProto, handleStr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pc, ok := t.pending[h]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHandle, h)
	}
	return pc, nil
}

// wait blocks until the commit behind handle completes, then returns the
// published snapshot.
func (p *Proxy) wait(ctx context.Context, t *target, handleStr string) (blobseer.SnapshotRef, error) {
	pc, err := t.commit(handleStr)
	if err != nil {
		return blobseer.SnapshotRef{}, err
	}
	return pc.Wait(ctx)
}

// poll reports the commit's state without blocking.
func (p *Proxy) poll(t *target, handleStr string) (blobseer.SnapshotRef, bool, error) {
	pc, err := t.commit(handleStr)
	if err != nil {
		return blobseer.SnapshotRef{}, false, err
	}
	select {
	case <-pc.Done():
		if err := pc.Err(); err != nil {
			return blobseer.SnapshotRef{}, true, err
		}
		ref, _ := pc.Ref()
		return ref, true, nil
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

// RequestCheckpointAsync asks the proxy to snapshot this instance's disk.
// It returns as soon as the instance has resumed: the commit proceeds in
// the background, identified by the returned handle, which WaitCheckpoint
// or PollCheckpoint resolve to the published snapshot.
func (c *Client) RequestCheckpointAsync(ctx context.Context) (handle uint64, err error) {
	ctx, sp := obs.StartSpan(ctx, "rpc/CHECKPOINT")
	defer sp.End()
	resp, err := c.Net.Call(ctx, c.Addr, []byte(fmt.Sprintf("CHECKPOINT %s %s", c.VMID, c.Token)))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) < 1 || fields[0] != "OK" {
		return 0, errorFrom(resp)
	}
	if len(fields) != 2 {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	h, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return h, nil
}

// WaitCheckpoint blocks until the checkpoint behind handle has been
// committed to the repository and returns the published snapshot.
func (c *Client) WaitCheckpoint(ctx context.Context, handle uint64) (blobseer.SnapshotRef, error) {
	resp, err := c.Net.Call(ctx, c.Addr, []byte(fmt.Sprintf("WAIT %s %s %d", c.VMID, c.Token, handle)))
	if err != nil {
		return blobseer.SnapshotRef{}, err
	}
	return parseRef(resp)
}

// PollCheckpoint reports without blocking whether the checkpoint behind
// handle has completed, and if so returns the published snapshot.
func (c *Client) PollCheckpoint(ctx context.Context, handle uint64) (ref blobseer.SnapshotRef, done bool, err error) {
	resp, err := c.Net.Call(ctx, c.Addr, []byte(fmt.Sprintf("POLL %s %s %d", c.VMID, c.Token, handle)))
	if err != nil {
		return blobseer.SnapshotRef{}, false, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) < 1 || fields[0] != "OK" {
		return blobseer.SnapshotRef{}, false, errorFrom(resp)
	}
	switch {
	case len(fields) == 2 && fields[1] == "PENDING":
		return blobseer.SnapshotRef{}, false, nil
	case len(fields) == 3 && fields[1] == "LOCAL":
		// Locally safe but not yet globally durable: still pending from the
		// durability watermark's point of view.
		return blobseer.SnapshotRef{}, false, nil
	case len(fields) == 4 && fields[1] == "DONE":
		blob, err1 := strconv.ParseUint(fields[2], 10, 64)
		version, err2 := strconv.ParseUint(fields[3], 10, 64)
		if err1 != nil || err2 != nil {
			return blobseer.SnapshotRef{}, false, fmt.Errorf("%w: %q", ErrProto, resp)
		}
		return blobseer.SnapshotRef{Blob: blob, Version: version}, true, nil
	default:
		return blobseer.SnapshotRef{}, false, fmt.Errorf("%w: %q", ErrProto, resp)
	}
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

// Status returns the instance state, dirty chunk count and in-flight commit
// count as the proxy sees them.
func (c *Client) Status(ctx context.Context) (state string, dirtyChunks, pendingCommits int, err error) {
	resp, err := c.Net.Call(ctx, c.Addr, []byte(fmt.Sprintf("STATUS %s %s", c.VMID, c.Token)))
	if err != nil {
		return "", 0, 0, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) < 1 || fields[0] != "OK" {
		return "", 0, 0, errorFrom(resp)
	}
	// A proxy with a local tier appends staged-backlog fields; tolerate them.
	if len(fields) < 4 {
		return "", 0, 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	dirty, err1 := strconv.Atoi(fields[2])
	pending, err2 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil {
		return "", 0, 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return fields[1], dirty, pending, nil
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
	parts := make([]string, len(indices))
	for i, idx := range indices {
		parts[i] = strconv.FormatUint(idx, 10)
	}
	req := fmt.Sprintf("PREFETCH %s %s %s", c.VMID, c.Token, strings.Join(parts, ","))
	resp, err := c.Net.Call(ctx, c.Addr, []byte(req))
	if err != nil {
		return err
	}
	fields := strings.Fields(string(resp))
	if len(fields) < 1 || fields[0] != "OK" {
		return errorFrom(resp)
	}
	return nil
}

// Ping probes the proxy at addr for liveness and returns how many instances
// it hosts. No VM id or token is needed: the failure detector pings nodes,
// not instances. An unreachable or partitioned proxy returns the transport
// error.
func Ping(ctx context.Context, n transport.Network, addr string) (instances int, err error) {
	resp, err := n.Call(ctx, addr, []byte("PING"))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) != 3 || fields[0] != "OK" || fields[1] != "PONG" {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	k, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return k, nil
}

func parseRef(resp []byte) (blobseer.SnapshotRef, error) {
	fields := strings.Fields(string(resp))
	if len(fields) < 1 || fields[0] != "OK" {
		return blobseer.SnapshotRef{}, errorFrom(resp)
	}
	if len(fields) != 3 {
		return blobseer.SnapshotRef{}, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	blob, err1 := strconv.ParseUint(fields[1], 10, 64)
	version, err2 := strconv.ParseUint(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		return blobseer.SnapshotRef{}, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return blobseer.SnapshotRef{Blob: blob, Version: version}, nil
}

func errorFrom(resp []byte) error {
	s := string(resp)
	if strings.HasPrefix(s, "ERR ") {
		return errors.New(s[4:])
	}
	return fmt.Errorf("%w: %q", ErrProto, s)
}
