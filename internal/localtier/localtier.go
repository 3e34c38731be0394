// Package localtier implements the node-local write-back tier of the
// multilevel checkpointing scheme (stdchk / OpenCHK style): captured dirty
// sets land in a cheap nearby chunk store first — typically the seglog disk
// engine on the compute node — and a background drainer streams them into
// the striped remote plane at whatever rate it sustains.
//
// A Stage holds two kinds of captures, distinguished by the Replica flag:
// the node's own staged checkpoints and partner replicas pushed by a
// neighbor proxy. A checkpoint is *locally safe* once its capture is staged
// here and replicated to the partner — a single node loss can then never
// lose it — and becomes *globally durable* only when the drain publishes it
// into the remote repository. MarkDrained records the published snapshot per
// owner, so a partner draining on a dead node's behalf can chain incremental
// captures in sequence order.
package localtier

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
)

// ErrNotStaged is returned when a capture's chunks are no longer (or never
// were) in the stage.
var ErrNotStaged = errors.New("localtier: capture not staged")

// Capture is one staged dirty set: the unit the drainer publishes.
type Capture struct {
	// Owner is the VM whose checkpoint this is; Seq orders the owner's
	// captures (the drain must publish them in Seq order to keep the
	// incremental chain intact).
	Owner string
	Seq   uint64
	// Base is the published snapshot the capture overlays *as recorded at
	// capture time*. When draining on a dead owner's behalf, the partner
	// carries the chain forward from the last drained ref instead when the
	// sequence is contiguous.
	Base      blobseer.SnapshotRef
	Size      uint64
	ChunkSize uint64
	// Replica marks a partner copy pushed by a neighbor proxy, as opposed to
	// a capture staged by the node's own mirror modules.
	Replica bool

	stageBlob uint64 // chunk namespace in the backing store
	indices   []uint64
	bytes     uint64
}

// Bytes returns the capture's staged payload size.
func (c *Capture) Bytes() uint64 { return c.bytes }

// Backlog summarizes staged-but-undrained captures.
type Backlog struct {
	Checkpoints int
	Chunks      int
	Bytes       uint64
}

type entry struct {
	cap *Capture
	sw  obs.Stopwatch // staged-at; drain lag = elapsed when MarkDrained runs
}

type drainMemo struct {
	seq uint64
	ref blobseer.SnapshotRef
}

// Stage is one node's local fast tier over a chunk store.
type Stage struct {
	store chunkstore.Store

	mu        sync.Mutex
	owners    map[string]map[uint64]*entry // owner -> seq -> staged capture
	memo      map[string]drainMemo         // owner -> last drained capture
	nextBlob  uint64
	gCkptOwn  *obs.Gauge
	gCkptPart *obs.Gauge
	gByteOwn  *obs.Gauge
	gBytePart *obs.Gauge
	cStaged   *obs.Counter
	cDrained  *obs.Counter
	cDropped  *obs.Counter
	hStage    *obs.Histogram
	hDrainLag *obs.Histogram
}

// New returns a Stage over store, recording tier metrics into reg (Default
// when nil): staged-checkpoint/byte gauges split by role (own vs partner),
// stage/drain counters, the staging-latency histogram and the drain-lag
// histogram — how long a capture sat locally safe before it became durable.
func New(store chunkstore.Store, reg *obs.Registry) *Stage {
	if reg == nil {
		reg = obs.Default
	}
	return &Stage{
		store:     store,
		owners:    make(map[string]map[uint64]*entry),
		memo:      make(map[string]drainMemo),
		gCkptOwn:  reg.Gauge("localtier_staged_checkpoints", obs.L("role", "own")),
		gCkptPart: reg.Gauge("localtier_staged_checkpoints", obs.L("role", "partner")),
		gByteOwn:  reg.Gauge("localtier_staged_bytes", obs.L("role", "own")),
		gBytePart: reg.Gauge("localtier_staged_bytes", obs.L("role", "partner")),
		cStaged:   reg.Counter("localtier_staged_total"),
		cDrained:  reg.Counter("localtier_drained_total"),
		cDropped:  reg.Counter("localtier_dropped_total"),
		hStage:    reg.Histogram("localtier_stage_ns"),
		hDrainLag: reg.Histogram("localtier_drain_lag_ns"),
	}
}

// Put stages one capture, whose chunk list is strictly ascending by index
// as WriteChunks takes it. Its chunks reach the store as one batch — one
// sync in the segment log, so a locally-safe ack costs one, not one per
// chunk. Staging the same (owner, seq) again replaces the previous copy (a
// partner push retried after a wire error is idempotent). The store is
// written outside s.mu — only the chunk namespace is reserved, and the
// finished capture published, under it — so Backlog, OwnerBacklog and
// Pending never wait for a stage's disk I/O.
func (s *Stage) Put(owner string, seq uint64, base blobseer.SnapshotRef, size, chunkSize uint64, chunks []blobseer.Chunk, replica bool) (*Capture, error) {
	sw := obs.StartTimer()
	c := &Capture{
		Owner:     owner,
		Seq:       seq,
		Base:      base,
		Size:      size,
		ChunkSize: chunkSize,
		Replica:   replica,
		indices:   make([]uint64, len(chunks)),
	}
	bodies := make([][]byte, len(chunks))
	for i, ch := range chunks {
		c.indices[i] = ch.Index
		bodies[i] = ch.Body
		c.bytes += uint64(len(ch.Body))
	}
	s.mu.Lock()
	c.stageBlob = s.nextBlob
	s.nextBlob++
	s.mu.Unlock()

	keys := c.keys()
	if err := chunkstore.PutBatch(s.store, keys, bodies); err != nil {
		// Roll back the partial stage so the store holds no orphans.
		chunkstore.DeleteBatch(s.store, keys) //nolint:errcheck // best effort
		return nil, fmt.Errorf("localtier: stage %s seq %d: %w", owner, seq, err)
	}

	s.mu.Lock()
	var replaced []chunkstore.Key
	if old, ok := s.owners[owner][seq]; ok {
		replaced = s.unlinkLocked(old.cap)
	}
	if s.owners[owner] == nil {
		s.owners[owner] = make(map[uint64]*entry)
	}
	s.owners[owner][seq] = &entry{cap: c, sw: sw}
	s.gauges(c).ckpt.Add(1)
	s.gauges(c).bytes.Add(int64(c.bytes))
	s.mu.Unlock()
	s.discard(replaced)
	s.cStaged.Inc()
	sw.ObserveInto(s.hStage)
	return c, nil
}

// keys returns the store keys of the capture's chunks, in index order.
func (c *Capture) keys() []chunkstore.Key {
	keys := make([]chunkstore.Key, len(c.indices))
	for i, idx := range c.indices {
		keys[i] = chunkstore.Key{Blob: c.stageBlob, ID: idx}
	}
	return keys
}

type rolePair struct{ ckpt, bytes *obs.Gauge }

func (s *Stage) gauges(c *Capture) rolePair {
	if c.Replica {
		return rolePair{s.gCkptPart, s.gBytePart}
	}
	return rolePair{s.gCkptOwn, s.gByteOwn}
}

// Chunks reads a staged capture's chunk list back from the store, in
// ascending index order.
func (s *Stage) Chunks(c *Capture) ([]blobseer.Chunk, error) {
	chunks := make([]blobseer.Chunk, len(c.indices))
	for i, idx := range c.indices {
		data, err := s.store.Get(chunkstore.Key{Blob: c.stageBlob, ID: idx})
		if err != nil {
			return nil, fmt.Errorf("%w: %s seq %d chunk %d: %v", ErrNotStaged, c.Owner, c.Seq, idx, err)
		}
		chunks[i] = blobseer.Chunk{Index: idx, Body: data}
	}
	return chunks, nil
}

// Pending returns the owner's staged-but-undrained captures in Seq order.
func (s *Stage) Pending(owner string) []*Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Capture
	for _, e := range s.owners[owner] {
		out = append(out, e.cap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Owners returns every owner with at least one staged capture.
func (s *Stage) Owners() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.owners))
	for owner, pending := range s.owners {
		if len(pending) > 0 {
			out = append(out, owner)
		}
	}
	sort.Strings(out)
	return out
}

// MarkDrained records that the owner's capture seq was published as ref,
// removes its staged chunks, and observes the capture's drain lag. It is
// tolerant of captures already gone (a partner release arriving after a
// Drop): the memo still advances so chain state survives.
func (s *Stage) MarkDrained(owner string, seq uint64, ref blobseer.SnapshotRef) {
	s.mu.Lock()
	var drained []chunkstore.Key
	if e, ok := s.owners[owner][seq]; ok {
		e.sw.ObserveInto(s.hDrainLag)
		drained = s.unlinkLocked(e.cap)
		s.cDrained.Inc()
	}
	if m, ok := s.memo[owner]; !ok || seq >= m.seq {
		s.memo[owner] = drainMemo{seq: seq, ref: ref}
	}
	s.mu.Unlock()
	s.discard(drained)
}

// LastDrained returns the owner's most recently drained capture sequence and
// the snapshot it published.
func (s *Stage) LastDrained(owner string) (seq uint64, ref blobseer.SnapshotRef, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.memo[owner]
	return m.seq, m.ref, ok
}

// Drop discards every staged capture for owner (both roles) without marking
// anything drained, returning how many were removed. Used when an owner's
// chain is superseded — a rollback, or a re-registration after restart.
func (s *Stage) Drop(owner string) int {
	s.mu.Lock()
	n := 0
	var dropped []chunkstore.Key
	for _, e := range s.owners[owner] {
		dropped = append(dropped, s.unlinkLocked(e.cap)...)
		s.cDropped.Inc()
		n++
	}
	delete(s.owners, owner)
	delete(s.memo, owner)
	s.mu.Unlock()
	s.discard(dropped)
	return n
}

// unlinkLocked removes a capture's bookkeeping and returns the keys of its
// chunks, which the caller discards once it has let go of s.mu. Caller holds
// s.mu.
func (s *Stage) unlinkLocked(c *Capture) []chunkstore.Key {
	if pending, ok := s.owners[c.Owner]; ok {
		delete(pending, c.Seq)
		if len(pending) == 0 {
			delete(s.owners, c.Owner)
		}
	}
	s.gauges(c).ckpt.Add(-1)
	s.gauges(c).bytes.Add(-int64(c.bytes))
	return c.keys()
}

// discard deletes unlinked captures' chunks from the store, as one batch
// and outside s.mu: nothing reaches them any more.
func (s *Stage) discard(keys []chunkstore.Key) {
	if len(keys) > 0 {
		chunkstore.DeleteBatch(s.store, keys) //nolint:errcheck // best effort, as the per-chunk deletes were
	}
}

// Backlog returns the staged-but-undrained totals, split into the node's own
// captures and the partner replicas it holds for its neighbor.
func (s *Stage) Backlog() (own, partner Backlog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pending := range s.owners {
		for _, e := range pending {
			b := &own
			if e.cap.Replica {
				b = &partner
			}
			b.Checkpoints++
			b.Chunks += len(e.cap.indices)
			b.Bytes += e.cap.bytes
		}
	}
	return own, partner
}

// OwnerBacklog returns the staged-but-undrained totals for one owner.
func (s *Stage) OwnerBacklog(owner string) Backlog {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b Backlog
	for _, e := range s.owners[owner] {
		b.Checkpoints++
		b.Chunks += len(e.cap.indices)
		b.Bytes += e.cap.bytes
	}
	return b
}

// Close closes the backing store when the Stage owns one that is closable.
func (s *Stage) Close() error {
	if c, ok := s.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
