// Package seglog is the durable log-structured chunk storage engine: an
// append-only segment log with group commit, per-chunk compression, CRC32C
// integrity, and background compaction, implementing chunkstore.Store for
// the BlobSeer data providers.
//
// Design (stdchk's log-structured aggregation; the paper's assumption that
// checkpoints survive node crashes):
//
//   - Chunks are appended to segment files as self-delimiting records
//     (record.go). A record is visible only after the batch containing it is
//     fsynced, so an acked Put is durable.
//   - Group commit: a PutBatch (a data provider's put frame, a staged
//     capture) and a DeleteBatch (a retire's releases) board the log as one
//     unit — records encoded on parallel workers, then one append and one
//     fdatasync for all of them; Put and Delete are the one-record case.
//     Concurrent callers ride one batch: the first to find no open batch
//     becomes the leader; it claims the batch, writes it with vectored
//     writes (pwritev straight from each record's header and its caller's
//     payload) and a single fsync, installs the index entries, and wakes every
//     rider. Writers that arrive while a leader is flushing form the next
//     batch, so the fsync count is at most the number of calls and under
//     concurrency a fraction of it.
//   - Compression: all-zero payloads (sparse VM images) store as a flag with
//     no payload at all; other payloads are DEFLATE-compressed when that
//     saves at least 1/8th of the bytes, else stored raw (compress.go).
//   - The index (key -> segment/offset/length) lives in memory and is
//     rebuilt on Open by scanning the segments in sequence order. A torn
//     tail — the signature of a crash mid-append — is truncated at the first
//     bad CRC of the highest segment; damage anywhere else is real
//     corruption and fails Open.
//   - Reads are positional (ReadAt), verify the record CRC, and never block
//     behind the writer. A raw payload is read straight into the memory the
//     caller names (ReadInto; Get names a fresh buffer), so the bulk of a
//     restore is never copied inside the engine.
//   - Compaction rewrites sealed segments whose live ratio fell below a
//     threshold (deletes from Retire/GC sweeps leave dead bytes behind): it
//     reads only the live records the index names, and appends them as
//     they lie through the same group-commit path (compact.go).
//   - Segments roll small (8 MiB, about two put frames) because checkpoints
//     die whole and oldest first: a segment holding one checkpoint's
//     records is fully dead once the checkpoint is retired and is unlinked
//     unread, where a segment mixing many checkpoints falls below the live
//     ratio while its younger ones still live and has them copied forward
//     just before they die too.
//
// Locks, in acquisition order: cmu (one compaction at a time) > fmu (one
// flush at a time) > wmu (batch formation) > mu (index and segment table) >
// pmu (pending-record counts). The flush path holds fmu for write+fsync+
// install, which makes install order equal disk order — the invariant the
// crash-recovery reasoning in compact.go leans on.
package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
)

// Options tunes a Store. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the roll size: a batch that would push the active
	// segment past it seals the segment first, so a batch larger than a
	// segment gets one of its own. Default 8 MiB: a segment then holds one
	// full put frame (4 MiB of payload) and the smaller batches beside it,
	// so a checkpoint's records on a provider share segments with little
	// else and, when the checkpoint is retired, leave them fully dead —
	// compaction unlinks them without reading or copying a record, and the
	// active segment (never a victim) strands at most 8 MiB. The cost is
	// files: every segment keeps its descriptor open, about 128 per GiB
	// stored (16 at 64 MiB), and a roll's file create and directory fsync
	// come 8 MiB apart.
	SegmentBytes int64
	// CompactRatio is the live-byte fraction below which a sealed segment
	// becomes a compaction victim. Default 0.5.
	CompactRatio float64
	// NoCompress disables DEFLATE (zero-page elision stays on).
	NoCompress bool
	// DisableAutoCompact turns off the background compactor; CompactNow
	// still works (tests, and callers that drive compaction themselves).
	DisableAutoCompact bool
	// Registry receives the engine's metrics; nil means obs.Default.
	Registry *obs.Registry
	// Label is the "store" label on the metrics; default is the directory
	// base name.
	Label string
}

const (
	defaultSegmentBytes = 8 << 20
	defaultCompactRatio = 0.5
)

var errClosed = errors.New("seglog: store closed")

// entry locates one live chunk in the log.
type entry struct {
	seg   uint32
	off   int64
	size  int64 // full record bytes (header + stored payload)
	ulen  uint32
	flags uint8
}

// segment is one log file. size and live are guarded by mu; only the flush
// path (serialized by fmu) grows size, and a sealed segment's size is
// immutable.
type segment struct {
	seq  uint32
	path string
	f    *os.File
	size int64 // durable valid record bytes
	live int64 // record bytes the index still points at
	// tombs names the keys whose tombstones the segment holds (install and
	// replay fill it), so compaction carries the still-needed ones forward
	// without reading the segment.
	tombs []chunkstore.Key
	// noCompact marks a segment where compaction found a live record whose
	// CRC no longer verifies: relocating it would launder corruption, so the
	// segment is left for the scrub plane to repair chunk by chunk.
	noCompact bool
}

// pending record kinds.
const (
	recNone = iota // nothing to append: the key holds this content, or the put was refused
	recPut
	recTomb
	recReloc     // compaction copy of a live record
	recTombReloc // compaction copy of a still-needed tombstone
)

// pendingRec is one record riding a batch: its encoded bytes (a relocated
// record's header and payload as they lay in the victim) and its outcome.
type pendingRec struct {
	encodedRec
	kind  int
	key   chunkstore.Key
	off   int64 // record offset within the batch
	ulen  uint32
	flags uint8
	old   entry // recReloc: the entry this copy replaces; recTombReloc: .seg is the victim
	moved bool  // recReloc: the index was swung to the copy
	wrote bool  // the record was appended (reloc kinds can be dropped by their guards)
	err   error // per-record outcome (ErrExists, ErrNotFound)
}

// size is the record's length on disk.
func (r *pendingRec) size() int64 { return hdrSize + int64(len(r.payload)) }

// batch is one group commit in formation or flight. It holds its records'
// bytes by reference — each header, then each non-empty payload, in disk
// order — so nothing is copied to form it: every rider blocks in enqueue
// until the batch is durable, which keeps the referenced memory in place.
type batch struct {
	parts   [][]byte
	size    int64
	recs    []*pendingRec
	done    chan struct{}
	err     error
	claimed bool
	seg     *segment
	base    int64
}

type metricHandles struct {
	puts, gets, deletes, fsyncs, batches   *obs.Counter
	zero, flate, raw                       *obs.Counter
	compactions, relocated, reclaimed      *obs.Counter
	tornTruncs                             *obs.Counter
	appendNs, fsyncNs, getNs               *obs.Histogram
	batchRecs, batchBytes                  *obs.Histogram
	segments, diskBytes, logicalB, livePct *obs.Gauge
}

// Store is the log-structured engine. It implements chunkstore.Store plus
// Keys (GC sweeps), EngineStats and CompactNow (chunkstore extension
// interfaces). Safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	dirf *os.File

	mu      sync.RWMutex
	index   map[chunkstore.Key]entry
	segs    map[uint32]*segment
	active  *segment
	logical int64

	wmu sync.Mutex
	cur *batch
	fmu sync.Mutex

	cmu sync.Mutex

	pmu          sync.Mutex
	pendingPuts  map[chunkstore.Key]int
	pendingTombs map[chunkstore.Key]int

	closed    atomic.Bool
	compactCh chan struct{}
	quit      chan struct{}
	quitOnce  sync.Once
	wg        sync.WaitGroup

	puts, gets, deletes, fsyncs, batches          atomic.Uint64
	zeroChunks, flateChunks, rawChunks            atomic.Uint64
	compactions, relocated, reclaimed, tornTruncs atomic.Uint64

	m   metricHandles
	reg *obs.Registry // resolved Options.Registry; group-commit spans record here

	// compactHook, when set (tests only), runs after each compaction group
	// is durable and installed, with the group's number from 0; an error
	// stops the pass there, as a crash would.
	compactHook func(group int) error
}

// Open opens (creating if needed) a segment log rooted at dir, rebuilding
// the in-memory index by scanning the segments. A torn tail on the highest
// segment — the crash-mid-append shape — is truncated away; a bad record in
// any sealed segment is corruption and fails the open.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.CompactRatio <= 0 || opts.CompactRatio > 1 {
		opts.CompactRatio = defaultCompactRatio
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: create dir: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: open dir: %w", err)
	}
	s := &Store{
		dir:          dir,
		opts:         opts,
		dirf:         dirf,
		index:        make(map[chunkstore.Key]entry),
		segs:         make(map[uint32]*segment),
		pendingPuts:  make(map[chunkstore.Key]int),
		pendingTombs: make(map[chunkstore.Key]int),
		compactCh:    make(chan struct{}, 1),
		quit:         make(chan struct{}),
	}
	s.initMetrics()
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if !opts.DisableAutoCompact {
		s.wg.Add(1)
		go s.compactLoop()
		s.triggerCompact() // a reopened log may carry pre-crash garbage
	}
	return s, nil
}

// recover scans existing segments in sequence order, rebuilds the index
// (later records win, tombstones suppress), and picks the active segment.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("seglog: scan dir: %w", err)
	}
	var seqs []uint32
	for _, ent := range ents {
		var seq uint32
		if _, err := fmt.Sscanf(ent.Name(), "seg-%08d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		path := s.segPath(seq)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("seglog: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("seglog: stat segment: %w", err)
		}
		seg := &segment{seq: seq, path: path, f: f}
		s.segs[seq] = seg // before the scan: duplicate keys may hit this segment
		valid, torn, err := scanSegment(f, st.Size(), s.replay(seg))
		if err != nil {
			return fmt.Errorf("seglog: scan %s: %w", path, err)
		}
		if torn {
			if i != len(seqs)-1 {
				return fmt.Errorf("seglog: segment %s has a bad record at offset %d mid-log: corruption, refusing to open", path, valid)
			}
			// The crash tail: none of it was acked. Drop it.
			if err := f.Truncate(valid); err != nil {
				return fmt.Errorf("seglog: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				return fmt.Errorf("seglog: sync truncated segment: %w", err)
			}
			s.tornTruncs.Add(1)
			s.m.tornTruncs.Inc()
		}
		seg.size = valid
	}
	if n := len(seqs); n > 0 {
		last := s.segs[seqs[n-1]]
		if last.size < s.opts.SegmentBytes {
			s.active = last
		}
	}
	if s.active == nil {
		next := uint32(1)
		if n := len(seqs); n > 0 {
			next = seqs[n-1] + 1
		}
		seg, err := s.createSegment(next)
		if err != nil {
			return err
		}
		s.segs[seg.seq] = seg
		s.active = seg
	}
	s.updateGaugesLocked()
	return nil
}

// replay returns the scan callback that rebuilds index state for one
// segment during recovery.
func (s *Store) replay(seg *segment) func(off int64, h header, _ []byte) error {
	return func(off int64, h header, _ []byte) error {
		size := int64(hdrSize) + int64(h.plen)
		if old, ok := s.index[h.key]; ok {
			if oseg := s.segs[old.seg]; oseg != nil {
				oseg.live -= old.size
			}
			s.logical -= int64(old.ulen)
			delete(s.index, h.key)
		}
		if h.flags&flagTombstone != 0 {
			seg.tombs = append(seg.tombs, h.key)
			return nil
		}
		s.index[h.key] = entry{seg: seg.seq, off: off, size: size, ulen: h.ulen, flags: h.flags}
		seg.live += size
		s.logical += int64(h.ulen)
		return nil
	}
}

func (s *Store) segPath(seq uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", seq))
}

// createSegment creates the next segment file and makes its directory entry
// durable before any record lands in it.
func (s *Store) createSegment(seq uint32) (*segment, error) {
	path := s.segPath(seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("seglog: create segment: %w", err)
	}
	if err := s.dirf.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("seglog: sync dir: %w", err)
	}
	return &segment{seq: seq, path: path, f: f}, nil
}

func (s *Store) label() string {
	if s.opts.Label != "" {
		return s.opts.Label
	}
	return filepath.Base(s.dir)
}

func (s *Store) initMetrics() {
	reg := s.opts.Registry
	if reg == nil {
		reg = obs.Default
	}
	s.reg = reg
	l := obs.L("store", s.label())
	s.m.puts = reg.Counter("seglog_puts_total", l)
	s.m.gets = reg.Counter("seglog_gets_total", l)
	s.m.deletes = reg.Counter("seglog_deletes_total", l)
	s.m.fsyncs = reg.Counter("seglog_fsyncs_total", l)
	s.m.batches = reg.Counter("seglog_append_batches_total", l)
	s.m.zero = reg.Counter("seglog_zero_chunks_total", l)
	s.m.flate = reg.Counter("seglog_flate_chunks_total", l)
	s.m.raw = reg.Counter("seglog_raw_chunks_total", l)
	s.m.compactions = reg.Counter("seglog_compactions_total", l)
	s.m.relocated = reg.Counter("seglog_compaction_relocated_records_total", l)
	s.m.reclaimed = reg.Counter("seglog_compaction_reclaimed_bytes_total", l)
	s.m.tornTruncs = reg.Counter("seglog_torn_tail_truncations_total", l)
	s.m.appendNs = reg.Histogram("seglog_append_ns", l)
	s.m.fsyncNs = reg.Histogram("seglog_fsync_ns", l)
	s.m.getNs = reg.Histogram("seglog_get_ns", l)
	s.m.batchRecs = reg.Histogram("seglog_fsync_batch_records", l)
	s.m.batchBytes = reg.Histogram("seglog_fsync_batch_bytes", l)
	s.m.segments = reg.Gauge("seglog_segments", l)
	s.m.diskBytes = reg.Gauge("seglog_disk_bytes", l)
	s.m.logicalB = reg.Gauge("seglog_logical_bytes", l)
	s.m.livePct = reg.Gauge("seglog_live_ratio_pct", l)
}

// updateGaugesLocked refreshes the size gauges. Caller holds mu (any mode
// during recovery; write mode afterwards).
func (s *Store) updateGaugesLocked() {
	var disk, live int64
	n := 0
	for _, seg := range s.segs {
		disk += seg.size
		live += seg.live
		n++
	}
	s.m.segments.Set(int64(n))
	s.m.diskBytes.Set(disk)
	s.m.logicalB.Set(s.logical)
	pct := int64(100)
	if disk > 0 {
		pct = live * 100 / disk
	}
	s.m.livePct.Set(pct)
}

// --- group commit ---

// enqueue rides recs on the open batch, creating one and becoming its
// leader if none is open. Relocation records are re-checked under the batch
// lock (see their guards) and may be dropped. Returns once the batch
// carrying the records is durable; until then the batch references each
// record's header and payload, so recs must not move or change.
func (s *Store) enqueue(recs []pendingRec) error {
	s.wmu.Lock()
	if s.closed.Load() {
		s.wmu.Unlock()
		return errClosed
	}
	leader := false
	if s.cur == nil {
		// Sized for the first boarder: a lone frame or Put never regrows.
		s.cur = &batch{
			parts: make([][]byte, 0, 2*len(recs)),
			recs:  make([]*pendingRec, 0, len(recs)),
			done:  make(chan struct{}),
		}
		leader = true
	}
	b := s.cur
	for i := range recs {
		rec := &recs[i]
		switch rec.kind {
		case recPut:
			s.pmu.Lock()
			s.pendingPuts[rec.key]++
			s.pmu.Unlock()
		case recTomb:
			s.pmu.Lock()
			s.pendingTombs[rec.key]++
			s.pmu.Unlock()
		case recReloc:
			if !s.relocAllowed(rec) {
				continue
			}
		case recTombReloc:
			if !s.tombRelocAllowed(rec) {
				continue
			}
		}
		rec.off = b.size
		rec.wrote = true
		b.parts = append(b.parts, rec.hdr[:])
		if len(rec.payload) > 0 {
			b.parts = append(b.parts, rec.payload)
		}
		b.size += rec.size()
		b.recs = append(b.recs, rec)
	}
	s.wmu.Unlock()
	if leader {
		s.flush(b)
	}
	<-b.done
	return b.err
}

// relocAllowed guards a compaction copy: the entry must still be where the
// scan found it, with no tombstone in flight. Any delete enqueued after
// this check lands at a higher offset than the copy, so on both the live
// index and the on-disk recovery order the delete wins. Caller holds wmu.
func (s *Store) relocAllowed(rec *pendingRec) bool {
	s.pmu.Lock()
	tombs := s.pendingTombs[rec.key]
	s.pmu.Unlock()
	if tombs > 0 {
		return false
	}
	s.mu.RLock()
	cur, ok := s.index[rec.key]
	s.mu.RUnlock()
	return ok && cur == rec.old
}

// tombRelocAllowed guards a tombstone copy out of a compaction victim: it
// is still needed only if the key is absent (no later put supersedes it,
// none is in flight) and an older segment that might hold the key's bytes
// will survive the victim. A put enqueued after this check lands at a
// higher offset, so recovery order keeps it. Caller holds wmu.
func (s *Store) tombRelocAllowed(rec *pendingRec) bool {
	s.pmu.Lock()
	puts := s.pendingPuts[rec.key]
	s.pmu.Unlock()
	if puts > 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.index[rec.key]; ok {
		return false
	}
	for seq := range s.segs {
		if seq < rec.old.seg {
			return true
		}
	}
	return false
}

// maxFormSpins bounds the batch-formation window: how many scheduler yields
// the leader grants boarding putters before claiming its batch.
const maxFormSpins = 16

// flush drives one batch to disk: claim it, write it with one append and
// one fsync, install its records, wake the riders. fmu serializes flushes,
// so install order equals disk order.
//
// Between taking fmu and claiming, the leader holds a short formation
// window: it yields the processor while the batch keeps growing, claiming
// only once boarding pauses (or the spin bound hits). A put frame needs no
// window — PutBatch boards all its records in one enqueue, after encoding
// them — so the window is for everyone else: frames of concurrent committers,
// the bounded-concurrent single Puts of a wrapper that does not forward
// PutBatch (chunkstore.PutBatch's fallback), compaction copies. Those are
// runnable but not yet through their encode step when the leader arrives,
// and get to ride this batch instead of fragmenting into flushes of their
// own. An idle store, and a lone frame, pay one yield (~a microsecond), far
// below the fsync it precedes.
func (s *Store) flush(b *batch) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	prev := int64(-1)
	for spins := 0; spins < maxFormSpins; spins++ {
		s.wmu.Lock()
		n := b.size
		s.wmu.Unlock()
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}
	s.wmu.Lock()
	if b.claimed {
		s.wmu.Unlock()
		return // Close got here first
	}
	b.claimed = true
	if s.cur == b {
		s.cur = nil
	}
	s.wmu.Unlock()
	s.commitBatch(b)
}

// commitBatch writes and installs one claimed batch. Caller holds fmu.
func (s *Store) commitBatch(b *batch) {
	defer close(b.done)
	if b.size == 0 {
		return // every record was dropped by its guard
	}
	// The group-commit span is the engine's unit of durable work: one append
	// + fsync covering every record that boarded the batch. It lands in the
	// store's flight ring, so a post-mortem dump shows the final batches a
	// dying provider committed.
	sp := obs.StartSpanIn(s.reg, "seglog/groupcommit")
	defer sp.End()
	if err := s.writeBatch(b); err != nil {
		b.err = err
		s.releasePending(b)
		return
	}
	s.install(b)
}

// writeBatch appends the batch to the active segment (rolling it first if
// the batch would overflow it) and fsyncs. Caller holds fmu.
func (s *Store) writeBatch(b *batch) error {
	seg := s.active
	if seg.size > 0 && seg.size+b.size > s.opts.SegmentBytes {
		ns, err := s.createSegment(seg.seq + 1)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.segs[ns.seq] = ns
		s.active = ns
		s.mu.Unlock()
		seg = ns
	}
	sw := obs.StartTimer()
	if err := writeParts(seg.f, b.parts, seg.size); err != nil {
		seg.f.Truncate(seg.size) //nolint:errcheck // best-effort tail drop
		return fmt.Errorf("seglog: append: %w", err)
	}
	sw.ObserveInto(s.m.appendNs)
	sw = obs.StartTimer()
	if err := datasync(seg.f); err != nil {
		seg.f.Truncate(seg.size) //nolint:errcheck
		return fmt.Errorf("seglog: fsync: %w", err)
	}
	sw.ObserveInto(s.m.fsyncNs)
	s.fsyncs.Add(1)
	s.batches.Add(1)
	s.m.fsyncs.Inc()
	s.m.batches.Inc()
	s.m.batchRecs.Observe(uint64(len(b.recs)))
	s.m.batchBytes.Observe(uint64(b.size))
	b.seg = seg
	b.base = seg.size
	return nil
}

// install applies a durable batch to the index. Caller holds fmu; the
// records are processed in offset order, matching what recovery would
// replay.
func (s *Store) install(b *batch) {
	s.mu.Lock()
	seg := b.seg
	for _, rec := range b.recs {
		recOff := b.base + rec.off
		switch rec.kind {
		case recPut:
			s.pendingDone(s.pendingPuts, rec.key)
			if old, ok := s.index[rec.key]; ok {
				// A concurrent writer published this key first. Identical
				// re-delivery is fine (this copy is dead bytes); different
				// content violates immutability.
				if s.sameStoredRecordLocked(old, &rec.encodedRec) {
					continue
				}
				rec.err = fmt.Errorf("%w: %v", chunkstore.ErrExists, rec.key)
				continue
			}
			s.index[rec.key] = entry{seg: seg.seq, off: recOff, size: rec.size(), ulen: rec.ulen, flags: rec.flags}
			seg.live += rec.size()
			s.logical += int64(rec.ulen)
		case recTomb:
			s.pendingDone(s.pendingTombs, rec.key)
			seg.tombs = append(seg.tombs, rec.key)
			old, ok := s.index[rec.key]
			if !ok {
				rec.err = fmt.Errorf("%w: %v", chunkstore.ErrNotFound, rec.key)
				continue
			}
			if oseg := s.segs[old.seg]; oseg != nil {
				oseg.live -= old.size
			}
			s.logical -= int64(old.ulen)
			delete(s.index, rec.key)
		case recReloc:
			// The enqueue guard makes a mismatch here impossible today;
			// keep the check so a future race turns into dead bytes, not
			// resurrection.
			if cur, ok := s.index[rec.key]; ok && cur == rec.old {
				s.index[rec.key] = entry{seg: seg.seq, off: recOff, size: rec.size(), ulen: rec.ulen, flags: rec.flags}
				if oseg := s.segs[rec.old.seg]; oseg != nil {
					oseg.live -= rec.old.size
				}
				seg.live += rec.size()
				rec.moved = true
			}
		case recTombReloc:
			// Nothing to index: the bytes carry the delete across the
			// victim's removal for recovery's sake.
			seg.tombs = append(seg.tombs, rec.key)
		}
	}
	seg.size += b.size
	s.updateGaugesLocked()
	s.mu.Unlock()
}

// releasePending drops the pending-record marks of a batch that failed to
// write (install never ran).
func (s *Store) releasePending(b *batch) {
	for _, rec := range b.recs {
		switch rec.kind {
		case recPut:
			s.pendingDone(s.pendingPuts, rec.key)
		case recTomb:
			s.pendingDone(s.pendingTombs, rec.key)
		}
	}
}

func (s *Store) pendingDone(m map[chunkstore.Key]int, k chunkstore.Key) {
	s.pmu.Lock()
	if m[k] <= 1 {
		delete(m, k)
	} else {
		m[k]--
	}
	s.pmu.Unlock()
}

// sameStoredRecordLocked compares a stored record's raw bytes with a freshly
// encoded one. Encoding is deterministic, so equal chunks encode equally.
// Caller holds mu, which also pins the entry's segment open.
func (s *Store) sameStoredRecordLocked(e entry, rec *encodedRec) bool {
	if hdrSize+int64(len(rec.payload)) != e.size {
		return false
	}
	seg := s.segs[e.seg]
	if seg == nil {
		return false
	}
	stored := make([]byte, e.size)
	if _, err := seg.f.ReadAt(stored, e.off); err != nil {
		return false
	}
	return bytes.Equal(stored[:hdrSize], rec.hdr[:]) && bytes.Equal(stored[hdrSize:], rec.payload)
}

// --- chunkstore.Store ---

// Put appends the chunk and returns once it is fsync-durable: PutBatch of
// one record, encoded on the caller's goroutine. Concurrent Puts share a
// batch and an fsync.
func (s *Store) Put(k chunkstore.Key, data []byte) error {
	s.puts.Add(1)
	s.m.puts.Inc()
	recs := make([]pendingRec, 1)
	if err := s.encodePut(&recs[0], k, data); err != nil || recs[0].kind == recNone {
		return err
	}
	if err := s.enqueue(recs); err != nil {
		return err
	}
	return recs[0].err
}

// PutBatch implements chunkstore.BatchPutter: the records are encoded on
// parallel workers — the idempotence check, zero test, DEFLATE and CRC of
// each are independent, and none of it runs on the group-commit leader —
// and board the log with one enqueue, so a batch nobody else rides costs one
// append and one fdatasync however many records it carries. Re-putting
// identical content is a no-op; different content under a stored key is
// ErrExists (for that record: the others are stored).
func (s *Store) PutBatch(keys []chunkstore.Key, bodies [][]byte) error {
	if len(keys) == 1 {
		return s.Put(keys[0], bodies[0]) // nothing to fan out
	}
	s.puts.Add(uint64(len(keys)))
	s.m.puts.Add(uint64(len(keys)))
	recs := make([]pendingRec, len(keys))
	errs := make([]error, len(keys))
	chunkstore.ForEachParallel(len(keys), func(i int) {
		errs[i] = s.encodePut(&recs[i], keys[i], bodies[i])
	})
	// Records already stored (or refused) drop out; the rest board together.
	n := 0
	for i := range recs {
		if recs[i].kind != recNone {
			recs[n] = recs[i]
			n++
		}
	}
	if n > 0 {
		if err := s.enqueue(recs[:n]); err != nil {
			return err
		}
		for i := range recs[:n] {
			if recs[i].err != nil {
				errs = append(errs, recs[i].err)
			}
		}
	}
	return errors.Join(errs...)
}

// encodePut fills rec with the boarding form of one put. rec stays recNone
// when there is nothing to append: the key already holds this content, or
// the returned error says why it cannot be stored.
func (s *Store) encodePut(rec *pendingRec, k chunkstore.Key, data []byte) error {
	if existing, found, err := s.read(k, ownedBuf); err != nil {
		return err
	} else if found {
		if bytes.Equal(existing, data) {
			return nil // idempotent replica re-delivery
		}
		return fmt.Errorf("%w: %v", chunkstore.ErrExists, k)
	}
	flags, payload := s.encodePayload(data)
	switch {
	case flags&flagZero != 0:
		s.zeroChunks.Add(1)
		s.m.zero.Inc()
	case flags&flagFlate != 0:
		s.flateChunks.Add(1)
		s.m.flate.Inc()
	default:
		s.rawChunks.Add(1)
		s.m.raw.Inc()
	}
	*rec = pendingRec{kind: recPut, key: k, ulen: uint32(len(data)), flags: flags}
	rec.encode(header{key: k, flags: flags, ulen: rec.ulen, plen: uint32(len(payload))}, payload)
	return nil
}

// Get returns the chunk body, verifying the record CRC on the way out.
func (s *Store) Get(k chunkstore.Key) ([]byte, error) {
	return s.get(k, ownedBuf)
}

// ReadInto implements chunkstore.ReaderInto: Get into the caller's memory.
func (s *Store) ReadInto(k chunkstore.Key, alloc func(n int) []byte) error {
	_, err := s.get(k, alloc)
	return err
}

// ownedBuf is the alloc of a read whose caller keeps the body: a fresh,
// exactly-sized buffer.
func ownedBuf(n int) []byte { return make([]byte, n) }

// get is read under the get counters and latency histogram, with absence
// reported as ErrNotFound.
func (s *Store) get(k chunkstore.Key, alloc func(n int) []byte) ([]byte, error) {
	sw := obs.StartTimer()
	s.gets.Add(1)
	s.m.gets.Inc()
	data, found, err := s.read(k, alloc)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %v", chunkstore.ErrNotFound, k)
	}
	sw.ObserveInto(s.m.getNs)
	return data, nil
}

// readBufs pools the pread buffers of compressed records; a raw payload is
// read straight into its destination and needs none.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 64*1024)
	return &b
}}

// read fetches and decodes a chunk into the slice alloc returns for its
// length (called at most once, and only for a chunk the index holds). found
// distinguishes absence from an empty body. A read that fails because
// compaction moved the record under us is retried against the entry's new
// home.
func (s *Store) read(k chunkstore.Key, alloc func(n int) []byte) (data []byte, found bool, err error) {
	allocated := false
	for attempt := 0; attempt < 8; attempt++ {
		s.mu.RLock()
		e, ok := s.index[k]
		var f *os.File
		if ok {
			if seg := s.segs[e.seg]; seg != nil {
				f = seg.f
			}
		}
		s.mu.RUnlock()
		if !ok {
			return nil, false, nil
		}
		if s.closed.Load() {
			return nil, true, errClosed
		}
		if f == nil {
			continue // entry mid-relocation; re-resolve
		}
		if !allocated {
			data, allocated = alloc(int(e.ulen)), true
		}
		rerr := readRecord(f, e, data)
		if rerr == nil {
			return data, true, nil
		}
		s.mu.RLock()
		cur, still := s.index[k]
		s.mu.RUnlock()
		if !still {
			return nil, false, nil // deleted while we read
		}
		if cur != e {
			continue // compacted away under us; follow the move
		}
		return nil, true, fmt.Errorf("seglog: read %v at %s offset %d: %w", k, s.segPath(e.seg), e.off, rerr)
	}
	return nil, true, fmt.Errorf("seglog: read %v: record kept moving", k)
}

var errRecordCRC = errors.New("record CRC mismatch")

// readRecord reads the record e locates in f, verifies its CRC and decodes
// the body into dst (e.ulen bytes). A raw payload — incompressible
// checkpoint data, the bulk of every restore — is pread straight into dst,
// with only the header going to the stack; a compressed or elided one goes
// through a pooled buffer.
func readRecord(f *os.File, e entry, dst []byte) error {
	if e.flags&(flagZero|flagFlate) == 0 {
		var hb [hdrSize]byte
		if int64(len(dst)) != e.size-hdrSize {
			return errRecordCRC
		}
		if _, err := f.ReadAt(hb[:], e.off); err != nil {
			return err
		}
		if _, err := f.ReadAt(dst, e.off+hdrSize); err != nil {
			return err
		}
		crc := crc32.Update(crc32.Update(0, castagnoli, hb[4:]), castagnoli, dst)
		if parseHeader(hb[:]).plen != uint32(len(dst)) || binary.BigEndian.Uint32(hb[:4]) != crc {
			return errRecordCRC
		}
		return nil
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < e.size {
		*bp = make([]byte, e.size)
	}
	raw := (*bp)[:e.size]
	if _, err := f.ReadAt(raw, e.off); err != nil {
		return err
	}
	if !verifyRecord(raw) {
		return errRecordCRC
	}
	return decodePayload(e.flags, raw[hdrSize:], dst)
}

// Has implements chunkstore.Store.
func (s *Store) Has(k chunkstore.Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[k]
	return ok
}

// Delete appends a tombstone and returns once it is durable. The dead bytes
// it leaves behind are reclaimed by compaction.
func (s *Store) Delete(k chunkstore.Key) error {
	absent, err := s.deleteBatch([]chunkstore.Key{k})
	if err == nil && absent > 0 {
		err = fmt.Errorf("%w: %v", chunkstore.ErrNotFound, k)
	}
	return err
}

// DeleteBatch implements chunkstore.BatchPutter: one tombstone batch — one
// append, one fdatasync — and one nudge to the compactor for the whole set.
func (s *Store) DeleteBatch(keys []chunkstore.Key) error {
	_, err := s.deleteBatch(keys)
	return err
}

// deleteBatch tombstones every key the index holds and reports how many it
// did not (absent before the batch, or deleted by a racing batch first).
func (s *Store) deleteBatch(keys []chunkstore.Key) (absent int, err error) {
	s.deletes.Add(uint64(len(keys)))
	s.m.deletes.Add(uint64(len(keys)))
	recs := make([]pendingRec, 0, len(keys))
	s.mu.RLock()
	for _, k := range keys {
		if _, ok := s.index[k]; !ok {
			absent++
			continue
		}
		recs = append(recs, pendingRec{})
		recs[len(recs)-1].tomb(recTomb, k)
	}
	s.mu.RUnlock()
	if len(recs) == 0 {
		return absent, nil
	}
	if err := s.enqueue(recs); err != nil {
		return absent, err
	}
	for i := range recs {
		if recs[i].err != nil { // only ever ErrNotFound: see install
			absent++
		}
	}
	s.triggerCompact()
	return absent, nil
}

// tomb makes r a tombstone for k riding a batch as kind (recTomb, or
// recTombReloc for a copy out of a compaction victim: a tombstone's bytes
// are its key's, so the copy is encoded afresh, not read).
func (r *pendingRec) tomb(kind int, k chunkstore.Key) {
	*r = pendingRec{kind: kind, key: k}
	r.encode(header{key: k, flags: flagTombstone}, nil)
}

// Len implements chunkstore.Store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// UsedBytes implements chunkstore.Store: logical payload bytes, matching
// the other backends (compression is an engine concern, not an accounting
// one).
func (s *Store) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logical
}

// Keys returns all live chunk keys (GC sweeps, cas index recovery).
func (s *Store) Keys() []chunkstore.Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chunkstore.Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

// EngineStats implements chunkstore.EngineStatser.
func (s *Store) EngineStats() chunkstore.EngineStats {
	s.mu.RLock()
	var disk, live int64
	nsegs := 0
	for _, seg := range s.segs {
		disk += seg.size
		live += seg.live
		nsegs++
	}
	chunks := len(s.index)
	logical := s.logical
	s.mu.RUnlock()
	return chunkstore.EngineStats{Backend: "seglog", Fields: []chunkstore.EngineField{
		{Name: "chunks", Value: uint64(chunks)},
		{Name: "logical_bytes", Value: uint64(logical)},
		{Name: "disk_bytes", Value: uint64(disk)},
		{Name: "live_bytes", Value: uint64(live)},
		{Name: "segments", Value: uint64(nsegs)},
		{Name: "puts", Value: s.puts.Load()},
		{Name: "gets", Value: s.gets.Load()},
		{Name: "deletes", Value: s.deletes.Load()},
		{Name: "appends", Value: s.batches.Load()},
		{Name: "fsyncs", Value: s.fsyncs.Load()},
		{Name: "zero_chunks", Value: s.zeroChunks.Load()},
		{Name: "flate_chunks", Value: s.flateChunks.Load()},
		{Name: "raw_chunks", Value: s.rawChunks.Load()},
		{Name: "compactions", Value: s.compactions.Load()},
		{Name: "relocated_records", Value: s.relocated.Load()},
		{Name: "reclaimed_bytes", Value: s.reclaimed.Load()},
		{Name: "torn_truncations", Value: s.tornTruncs.Load()},
	}}
}

// Close flushes any open batch, stops the background compactor and closes
// the segment files. Puts that were acked before Close are durable.
func (s *Store) Close() error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.wmu.Lock()
	b := s.cur
	if b != nil && !b.claimed {
		b.claimed = true
		s.cur = nil
	} else {
		b = nil
	}
	s.closed.Store(true)
	s.wmu.Unlock()
	if b != nil {
		s.commitBatch(b)
	}
	s.closeFiles()
	return nil
}

func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	if s.dirf != nil {
		s.dirf.Close()
	}
}

// Interface conformance.
var (
	_ chunkstore.Store         = (*Store)(nil)
	_ chunkstore.EngineStatser = (*Store)(nil)
	_ chunkstore.Compactor     = (*Store)(nil)
	_ chunkstore.ReaderInto    = (*Store)(nil)
	_ chunkstore.BatchPutter   = (*Store)(nil)
)
