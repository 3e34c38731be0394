// Multilevel-checkpointing extension of the checkpointing proxy: the
// node-local write-back tier, partner replication, and the drain-control
// ops.
//
// With a Stage attached (Proxy.Stage), every registered module stages its
// captures into the local tier and — when PartnerAddr names a neighbor proxy
// — replicates each capture there before acknowledging it *locally safe*.
// The background drain then publishes staged captures into the remote
// repository; only that publish makes a checkpoint *globally durable*.
//
// Partner replication is two ops on the proxy port (the package comment's
// table): stage-put carries a capture's header — owner, seq, base ref, size,
// chunk size — and its chunks; stage-release tells the partner the capture
// was published. The drain-control ops BACKLOG, DRAIN-NOW and DRAINFOR are
// tokenless like PING — node-level operations issued by the supervisor or an
// operator, not by a guest.
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
	"errors"
	"fmt"

	"blobcr/internal/blobseer"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// minStagedChunkBytes is the least a staged chunk occupies in a stage-put
// frame: its u64 index and a one-byte length prefix.
const minStagedChunkBytes = 9

// serveTier answers the ops that need the node's local tier.
func (p *Proxy) serveTier(ctx context.Context, q request, w *wire.Buffer) error {
	if p.Stage == nil {
		return errors.New("proxy: no local tier attached")
	}
	switch q.op {
	case opStagePut:
		// The bodies are windows of the request frame, which is this
		// handler's until it returns: Stage.Put has them in its store —
		// copied, or on disk — by then.
		c := q.capture
		_, err := p.Stage.Put(c.Owner, c.Seq, c.Base, c.Size, c.ChunkSize, q.chunks, true)
		return err
	case opStageRelease:
		p.Stage.MarkDrained(q.vm, q.arg, q.ref)
	case opBacklog:
		own, partner := p.Stage.Backlog()
		putBacklog(w, own)
		putBacklog(w, partner)
	case opDrainNow:
		n, err := p.drainAllNow(ctx)
		if err != nil {
			return err
		}
		w.PutUvarint(uint64(n))
	default: // opDrainFor
		ref, err := p.drainFor(ctx, q.vm, q.arg)
		if err != nil {
			return err
		}
		putRef(w, ref)
	}
	return nil
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
	if err := r.End(); err != nil {
		return c, nil, fmt.Errorf("proxy: stage-put: after chunk %d of %d: %w", n, n, err)
	}
	return c, chunks, nil
}

// stageConfigFor builds the mirror.StageConfig wiring one registered module
// into this proxy's tier and partner link.
func (p *Proxy) stageConfigFor(vmID string) mirror.StageConfig {
	cfg := mirror.StageConfig{Stage: p.Stage, Owner: vmID}
	if p.PartnerAddr != "" && p.Net != nil {
		net, partner := p.Net, p.PartnerAddr
		cfg.Replicate = func(ctx context.Context, c *localtier.Capture, chunks []blobseer.Chunk) error {
			return transport.CallOp(ctx, net, partner, request{op: opStagePut, capture: c, chunks: chunks}.encode(), nil)
		}
		cfg.Release = func(owner string, seq uint64, ref blobseer.SnapshotRef) {
			// Best-effort: a lost release only leaves a replica the partner
			// drains later (the CAS dedups the duplicate publish away).
			transport.CallOp(context.Background(), net, partner, request{op: opStageRelease, vm: owner, arg: seq, ref: ref}.encode(), nil) //nolint:errcheck // best-effort
		}
	}
	return cfg
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
	err = c.do(ctx, opWaitLocal, handle, func(r *wire.Reader) { seq = r.U64() })
	return seq, err
}

// Backlog probes the proxy at addr for its local-tier drain backlog, split
// into the node's own staged captures and the partner replicas it holds.
// Tokenless, like Ping: the supervisor surveys nodes, not instances.
func Backlog(ctx context.Context, n transport.Network, addr string) (own, partner localtier.Backlog, err error) {
	err = transport.CallOp(ctx, n, addr, request{op: opBacklog}.encode(), func(r *wire.Reader) { own, partner = getBacklog(r), getBacklog(r) })
	return own, partner, err
}

// DrainNow asks the proxy at addr to flush every hosted module's staged
// captures to the remote plane — the preemption path — and returns how many
// modules were drained.
func DrainNow(ctx context.Context, n transport.Network, addr string) (modules int, err error) {
	err = transport.CallOp(ctx, n, addr, request{op: opDrainNow}.encode(), func(r *wire.Reader) { modules = int(r.Uvarint()) })
	return modules, err
}

// DrainFor asks the proxy at addr to publish owner's staged captures up to
// seq — the repair path run against a dead node's partner — and returns the
// snapshot the chain reached.
func DrainFor(ctx context.Context, n transport.Network, addr, owner string, seq uint64) (ref blobseer.SnapshotRef, err error) {
	err = transport.CallOp(ctx, n, addr, request{op: opDrainFor, vm: owner, arg: seq}.encode(), func(r *wire.Reader) { ref = getRef(r) })
	return ref, err
}
