// Multilevel-checkpointing extension of the checkpointing proxy: the
// node-local write-back tier, partner replication, and the drain-control
// verbs.
//
// With a Stage attached (Proxy.Stage), every registered module stages its
// captures into the local tier and — when PartnerAddr names a neighbor proxy
// — replicates each capture there before acknowledging it *locally safe*.
// The background drain then publishes staged captures into the remote
// repository; only that publish makes a checkpoint *globally durable*.
//
// Partner replication uses two binary frames on the proxy port (first byte
// ≥ 0x80, so they cannot collide with the ASCII text verbs):
//
//	stage-put  0xD0: owner, seq, base ref, size, chunk size, chunks
//	stage-rel  0xD1: owner, seq, published ref
//
// Drain control is text, tokenless like PING — node-level operations issued
// by the supervisor or an operator, not by a guest:
//
//	request:  WAITLOCAL <vm-id> <token> <handle>
//	response: OK LOCAL <seq> | ERR <message>
//
//	request:  BACKLOG
//	response: OK own=<ckpts>/<chunks>/<bytes> partner=<ckpts>/<chunks>/<bytes>
//
//	request:  DRAIN-NOW
//	response: OK <modules-drained> | ERR <message>
//
//	request:  DRAINFOR <owner> <seq>
//	response: OK <checkpoint-blob> <snapshot-version> | ERR <message>
//
// DRAIN-NOW is the preemption path: a node that received its spot notice
// flushes every hosted module's staged captures to the remote plane inside
// the grace window. DRAINFOR is the repair path: after a node dies, the
// supervisor asks its partner to publish the dead node's replicated captures
// up to the given sequence on its behalf, so a locally-safe checkpoint
// survives a single node loss.
package proxy

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"blobcr/internal/blobseer"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// Binary stage frame op codes (proxy port; distinct from text verbs).
const (
	opStagePut     = 0xD0
	opStageRelease = 0xD1
)

// minStagedChunkBytes is the least a staged chunk occupies in a stage-put
// frame: its u64 index and a one-byte length prefix.
const minStagedChunkBytes = 9

// handleStageFrame dispatches the binary partner-replication frames.
func (p *Proxy) handleStageFrame(ctx context.Context, req []byte) ([]byte, error) {
	if p.Stage == nil {
		return nil, fmt.Errorf("proxy: no local tier attached")
	}
	r := wire.NewReader(req)
	switch op := r.U8(); op {
	case opStagePut:
		c, chunks, err := decodeStagePut(req)
		if err != nil {
			return nil, err
		}
		// The bodies are windows of req, which is this handler's until it
		// returns: Stage.Put has them in its store — copied, or on disk — by
		// then.
		if _, err := p.Stage.Put(c.Owner, c.Seq, c.Base, c.Size, c.ChunkSize, chunks, true); err != nil {
			return nil, err
		}
		return []byte("OK"), nil
	case opStageRelease:
		owner := r.String()
		seq := r.U64()
		ref := blobseer.SnapshotRef{Blob: r.U64(), Version: r.U64()}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("proxy: stage-release: %w", err)
		}
		p.Stage.MarkDrained(owner, seq, ref)
		return []byte("OK"), nil
	default:
		return nil, fmt.Errorf("proxy: unknown stage op 0x%02X", op)
	}
}

// encodeStagePut builds the stage-put frame of a capture and the chunk list
// it was staged from, in a buffer sized for it up front: a capture is tens
// of MiB, and a frame that outgrows its buffer on the last chunk copies all
// of them again.
func encodeStagePut(c *localtier.Capture, chunks []blobseer.Chunk) []byte {
	header := 1 + binary.MaxVarintLen32 + len(c.Owner) + 5*8 + 4
	b := wire.NewBuffer(header + len(chunks)*(8+binary.MaxVarintLen32) + int(c.Bytes()))
	b.PutU8(opStagePut)
	b.PutString(c.Owner)
	b.PutU64(c.Seq)
	b.PutU64(c.Base.Blob)
	b.PutU64(c.Base.Version)
	b.PutU64(c.Size)
	b.PutU64(c.ChunkSize)
	b.PutU32(uint32(len(chunks)))
	for _, ch := range chunks {
		b.PutU64(ch.Index)
		b.PutBytes(ch.Body)
	}
	return b.Bytes()
}

// decodeStagePut parses a stage-put frame into the header fields of the
// capture it was encoded from and its chunk list. The frame comes off the
// network, so it is rejected unless it is exactly n chunks, strictly
// ascending by index, with no byte after the last. The bodies are windows
// of frame: the caller keeps frame unmodified while it uses them.
func decodeStagePut(frame []byte) (localtier.Capture, []blobseer.Chunk, error) {
	var c localtier.Capture
	r := wire.NewReader(frame)
	if op := r.U8(); op != opStagePut {
		return c, nil, fmt.Errorf("proxy: stage-put: op 0x%02X", op)
	}
	c.Owner = r.String()
	c.Seq = r.U64()
	c.Base = blobseer.SnapshotRef{Blob: r.U64(), Version: r.U64()}
	c.Size = r.U64()
	c.ChunkSize = r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return c, nil, fmt.Errorf("proxy: stage-put: %w", err)
	}
	// Every chunk occupies at least its index and a length prefix: a count
	// the rest of the frame cannot hold is corrupt, and nothing is allocated
	// from it.
	if n > r.Remaining()/minStagedChunkBytes {
		return c, nil, fmt.Errorf("proxy: stage-put: implausible count %d with %d bytes left in the frame", n, r.Remaining())
	}
	chunks := make([]blobseer.Chunk, n)
	for i := range chunks {
		chunks[i] = blobseer.Chunk{Index: r.U64(), Body: r.Bytes()}
		if err := r.Err(); err != nil {
			return c, nil, fmt.Errorf("proxy: stage-put: chunk %d of %d: %w", i, n, err)
		}
		if i > 0 && chunks[i].Index <= chunks[i-1].Index {
			return c, nil, fmt.Errorf("proxy: stage-put: chunk index %d follows %d: not strictly ascending", chunks[i].Index, chunks[i-1].Index)
		}
	}
	if r.Remaining() != 0 {
		return c, nil, fmt.Errorf("proxy: stage-put: %d bytes after chunk %d of %d", r.Remaining(), n, n)
	}
	return c, chunks, nil
}

// releaseReplica tells the partner the capture was published as ref.
func releaseReplica(ctx context.Context, n transport.Network, addr string, owner string, seq uint64, ref blobseer.SnapshotRef) error {
	b := wire.NewBuffer(64)
	b.PutU8(opStageRelease)
	b.PutString(owner)
	b.PutU64(seq)
	b.PutU64(ref.Blob)
	b.PutU64(ref.Version)
	_, err := n.Call(ctx, addr, b.Bytes())
	return err
}

// stageConfigFor builds the mirror.StageConfig wiring one registered module
// into this proxy's tier and partner link.
func (p *Proxy) stageConfigFor(vmID string) mirror.StageConfig {
	cfg := mirror.StageConfig{Stage: p.Stage, Owner: vmID}
	if p.PartnerAddr != "" && p.Net != nil {
		net, partner := p.Net, p.PartnerAddr
		cfg.Replicate = func(ctx context.Context, c *localtier.Capture, chunks []blobseer.Chunk) error {
			_, err := net.Call(ctx, partner, encodeStagePut(c, chunks))
			return err
		}
		cfg.Release = func(owner string, seq uint64, ref blobseer.SnapshotRef) {
			// Best-effort: a lost release only leaves a replica the partner
			// drains later (the CAS dedups the duplicate publish away).
			releaseReplica(context.Background(), net, partner, owner, seq, ref)
		}
	}
	return cfg
}

// backlogReply renders the BACKLOG response.
func (p *Proxy) backlogReply() []byte {
	own, partner := p.Stage.Backlog()
	return []byte(fmt.Sprintf("OK own=%d/%d/%d partner=%d/%d/%d",
		own.Checkpoints, own.Chunks, own.Bytes,
		partner.Checkpoints, partner.Chunks, partner.Bytes))
}

// drainAllNow flushes every hosted module's pipeline to the remote plane.
func (p *Proxy) drainAllNow(ctx context.Context) (int, error) {
	p.mu.Lock()
	mods := make([]*mirror.Module, 0, len(p.targets))
	for _, t := range p.targets {
		mods = append(mods, t.mirror)
	}
	p.mu.Unlock()
	for _, m := range mods {
		if err := m.DrainNow(ctx); err != nil {
			return 0, err
		}
	}
	return len(mods), nil
}

// drainFor publishes owner's staged captures up to and including seq and
// returns the snapshot the chain reached. When this proxy hosts the owner
// and its module is still live, the module's own drain finishes the job;
// otherwise (the partner path: the owner's node is dead) the staged replicas
// are published here, in sequence order, carrying the chain forward from the
// last drained snapshot.
func (p *Proxy) drainFor(ctx context.Context, owner string, seq uint64) (blobseer.SnapshotRef, error) {
	p.mu.Lock()
	t := p.targets[owner]
	p.mu.Unlock()
	if t != nil && !t.mirror.Halted() {
		if err := t.mirror.DrainNow(ctx); err != nil {
			return blobseer.SnapshotRef{}, err
		}
	} else {
		if p.Repo == nil {
			return blobseer.SnapshotRef{}, fmt.Errorf("proxy: no repository client for partner drain")
		}
		for _, c := range p.Stage.Pending(owner) {
			if c.Seq > seq {
				break
			}
			base := c.Base
			if mseq, mref, ok := p.Stage.LastDrained(owner); ok && mseq >= c.Seq {
				continue // already published (e.g. by the owner before it died)
			} else if ok && mseq == c.Seq-1 {
				// Contiguous chain: overlay what the previous drain published
				// rather than the possibly stale base recorded at capture time.
				base = mref
			}
			chunks, err := p.Stage.Chunks(c)
			if err != nil {
				return blobseer.SnapshotRef{}, err
			}
			info, _, err := p.Repo.WriteChunks(ctx, base.Blob, &base, nil, chunks, c.Size)
			if err != nil {
				return blobseer.SnapshotRef{}, fmt.Errorf("proxy: drain %s seq %d: %w", owner, c.Seq, err)
			}
			p.Stage.MarkDrained(owner, c.Seq, blobseer.SnapshotRef{Blob: base.Blob, Version: info.Version})
		}
	}
	mseq, mref, ok := p.Stage.LastDrained(owner)
	if !ok || mseq < seq {
		return blobseer.SnapshotRef{}, fmt.Errorf("proxy: %s seq %d not staged here (drained up to %d)", owner, seq, mseq)
	}
	return mref, nil
}

// WaitCheckpointLocal blocks until the checkpoint behind handle is locally
// safe — staged in the node's fast tier and replicated to the partner — and
// returns its capture sequence number. Without a local tier this completes
// together with global durability.
func (c *Client) WaitCheckpointLocal(ctx context.Context, handle uint64) (seq uint64, err error) {
	resp, err := c.Net.Call(ctx, c.Addr, []byte(fmt.Sprintf("WAITLOCAL %s %s %d", c.VMID, c.Token, handle)))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) != 3 || fields[0] != "OK" || fields[1] != "LOCAL" {
		return 0, errorFrom(resp)
	}
	seq, perr := strconv.ParseUint(fields[2], 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return seq, nil
}

// Backlog probes the proxy at addr for its local-tier drain backlog, split
// into the node's own staged captures and the partner replicas it holds.
// Tokenless, like Ping: the supervisor surveys nodes, not instances.
func Backlog(ctx context.Context, n transport.Network, addr string) (own, partner localtier.Backlog, err error) {
	resp, err := n.Call(ctx, addr, []byte("BACKLOG"))
	if err != nil {
		return own, partner, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) != 3 || fields[0] != "OK" {
		return own, partner, errorFrom(resp)
	}
	if _, err := fmt.Sscanf(fields[1], "own=%d/%d/%d", &own.Checkpoints, &own.Chunks, &own.Bytes); err != nil {
		return own, partner, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	if _, err := fmt.Sscanf(fields[2], "partner=%d/%d/%d", &partner.Checkpoints, &partner.Chunks, &partner.Bytes); err != nil {
		return own, partner, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return own, partner, nil
}

// DrainNow asks the proxy at addr to flush every hosted module's staged
// captures to the remote plane — the preemption path — and returns how many
// modules were drained.
func DrainNow(ctx context.Context, n transport.Network, addr string) (modules int, err error) {
	resp, err := n.Call(ctx, addr, []byte("DRAIN-NOW"))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(resp))
	if len(fields) != 2 || fields[0] != "OK" {
		return 0, errorFrom(resp)
	}
	k, perr := strconv.Atoi(fields[1])
	if perr != nil {
		return 0, fmt.Errorf("%w: %q", ErrProto, resp)
	}
	return k, nil
}

// DrainFor asks the proxy at addr to publish owner's staged captures up to
// seq — the repair path run against a dead node's partner — and returns the
// snapshot the chain reached.
func DrainFor(ctx context.Context, n transport.Network, addr, owner string, seq uint64) (blobseer.SnapshotRef, error) {
	resp, err := n.Call(ctx, addr, []byte(fmt.Sprintf("DRAINFOR %s %d", owner, seq)))
	if err != nil {
		return blobseer.SnapshotRef{}, err
	}
	return parseRef(resp)
}
