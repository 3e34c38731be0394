package seglog

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"blobcr/internal/chunkstore"
)

// compactBatchBytes bounds how many relocated record bytes ride one group
// commit, so compacting a large segment does not build a segment-sized
// buffer in memory or stall concurrent Puts behind one giant append.
const compactBatchBytes = 4 << 20

// compactLoop is the background compactor: it wakes on the signal a Delete
// (Retire release, GC sweep) sends and on the post-recovery kick, and runs
// passes until no victim remains.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.compactCh:
			s.CompactNow() //nolint:errcheck // outcome lands in the metrics
		}
	}
}

// triggerCompact nudges the background compactor without blocking.
func (s *Store) triggerCompact() {
	if s.opts.DisableAutoCompact {
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// pickVictimLocked returns the sealed segment with the worst live ratio
// below the threshold, or nil. Caller holds mu (read mode suffices).
func (s *Store) pickVictimLocked() *segment {
	var best *segment
	var bestRatio float64
	for _, seg := range s.segs {
		if seg == s.active || seg.noCompact || seg.size == 0 {
			continue
		}
		ratio := float64(seg.live) / float64(seg.size)
		if ratio >= s.opts.CompactRatio {
			continue
		}
		if best == nil || ratio < bestRatio {
			best, bestRatio = seg, ratio
		}
	}
	return best
}

// CompactNow rewrites every sealed segment whose live ratio is below
// Options.CompactRatio, copying live records (and still-needed tombstones)
// to the active segment through the group-commit path, then deleting the
// victims. It implements chunkstore.Compactor; the repair scrubber and
// blobcr-ctl call it over the wire.
func (s *Store) CompactNow() (chunkstore.CompactResult, error) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	var res chunkstore.CompactResult
	for {
		if s.closed.Load() {
			return res, errClosed
		}
		s.mu.RLock()
		victim := s.pickVictimLocked()
		s.mu.RUnlock()
		if victim == nil {
			return res, nil
		}
		if err := s.compactSegment(victim, &res); err != nil {
			return res, err
		}
	}
}

// compactBufs pools the buffers compaction reads a group of live records
// into: one serves every group of a pass and, across passes, every store.
var compactBufs = sync.Pool{New: func() any { return new([]byte) }}

// liveRec is one of a victim's live records, as the index locates it.
type liveRec struct {
	key chunkstore.Key
	e   entry
}

// compactSegment moves a victim's live state forward and removes the file.
//
// It reads only what lives. The victim's live records come from the index,
// in offset order, and each run of adjacent ones is one ReadAt into a
// buffer sized to its group. Every record is checked once — its CRC, and its
// header's key and lengths against the index entry — and then boards the
// group commit as it lay in the victim, header and CRC included: nothing is
// re-encoded. Still-needed tombstones come from the victim's tombstone list
// and ride the first group (a tombstone's bytes are its key's). A victim
// with nothing live and no needed tombstone is unlinked without a read.
//
// Crash-safety: each group's copies are fsynced by the group-commit path
// before the index is swung to them and long before the victim is
// unlinked, so a crash after any group leaves byte-identical duplicates
// that recovery resolves by offset order (later wins), and the carried
// tombstones above the keys they delete. The enqueue-time guards
// (relocAllowed / tombRelocAllowed) keep that order truthful against
// concurrent Deletes and re-Puts: nothing is ever copied above a record
// that should supersede it. The victim's removal is made durable with a
// directory fsync before the pass returns, so a later pass's "no older
// segment remains" reasoning can trust it.
func (s *Store) compactSegment(victim *segment, res *chunkstore.CompactResult) error {
	live, tombs := s.victimState(victim)
	var wroteBytes int64
	recs := make([]pendingRec, 0, len(tombs))
	for _, k := range tombs {
		recs = append(recs, pendingRec{})
		recs[len(recs)-1].tomb(recTombReloc, k)
		recs[len(recs)-1].old = entry{seg: victim.seq}
	}
	group := int64(len(recs)) * hdrSize
	bp := compactBufs.Get().(*[]byte)
	defer compactBufs.Put(bp)
	var bad error
	for n := 0; len(recs) > 0 || len(live) > 0; n++ {
		// A group closes at the record that takes it to compactBatchBytes.
		j := 0
		var need int64
		for j < len(live) && group < compactBatchBytes {
			group += live[j].e.size
			need += live[j].e.size
			j++
		}
		if int64(cap(*bp)) < need {
			*bp = make([]byte, need)
		}
		buf := (*bp)[:need]
		var err error
		if recs, bad, err = s.readLive(victim, live[:j], buf, recs); err != nil {
			return fmt.Errorf("seglog: compact %s: %w", victim.path, err)
		}
		live = live[j:]
		if len(recs) > 0 {
			if err := s.enqueue(recs); err != nil {
				return err
			}
		}
		for i := range recs {
			if recs[i].wrote {
				wroteBytes += recs[i].size()
			}
			if recs[i].moved {
				res.Relocated++
				s.relocated.Add(1)
				s.m.relocated.Inc()
			}
		}
		if s.compactHook != nil {
			if err := s.compactHook(n); err != nil {
				return err
			}
		}
		if bad != nil {
			break
		}
		recs, group = recs[:0], 0
	}
	if bad != nil {
		// A sealed segment's records were all fsynced; a live record that
		// fails its check is bit rot, not a crash artifact. Leave the
		// segment for the scrub plane (which re-replicates damaged chunks)
		// instead of laundering it through a rewrite.
		s.mu.Lock()
		victim.noCompact = true
		s.mu.Unlock()
		return fmt.Errorf("seglog: compact %s: %w, leaving segment in place", victim.path, bad)
	}

	s.mu.Lock()
	delete(s.segs, victim.seq)
	s.updateGaugesLocked()
	s.mu.Unlock()
	victim.f.Close()
	if err := os.Remove(victim.path); err != nil {
		return fmt.Errorf("seglog: remove compacted segment: %w", err)
	}
	if err := s.dirf.Sync(); err != nil {
		return fmt.Errorf("seglog: sync dir after compaction: %w", err)
	}
	// Net disk space freed: the victim's bytes minus what had to be
	// rewritten into the active segment.
	reclaimed := victim.size - wroteBytes
	if reclaimed < 0 {
		reclaimed = 0
	}
	res.Segments++
	res.ReclaimedBytes += uint64(reclaimed)
	s.compactions.Add(1)
	s.reclaimed.Add(uint64(reclaimed))
	s.m.compactions.Inc()
	s.m.reclaimed.Add(uint64(reclaimed))
	return nil
}

// victimState takes, in one pass under the read lock, the victim's live
// records in offset order and the keys of its tombstones that may still be
// needed: the key is absent and an older segment that might hold its bytes
// survives the victim. tombRelocAllowed re-checks both at boarding time.
func (s *Store) victimState(victim *segment) ([]liveRec, []chunkstore.Key) {
	var live []liveRec
	var tombs []chunkstore.Key
	s.mu.RLock()
	for k, e := range s.index {
		if e.seg == victim.seq {
			live = append(live, liveRec{k, e})
		}
	}
	older := false
	for seq := range s.segs {
		if seq < victim.seq {
			older = true
			break
		}
	}
	if older {
		for _, k := range victim.tombs {
			if _, ok := s.index[k]; !ok {
				tombs = append(tombs, k)
			}
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(live, func(a, b liveRec) int { return cmp.Compare(a.e.off, b.e.off) })
	slices.SortFunc(tombs, func(a, b chunkstore.Key) int {
		return cmp.Or(cmp.Compare(a.Blob, b.Blob), cmp.Compare(a.ID, b.ID))
	})
	return live, slices.Compact(tombs)
}

// readLive reads one group of live records out of the victim into buf (the
// group's exact size), one ReadAt per run of adjacent records, checks each,
// and appends the relocation of every record that passes to recs. At the
// first record that fails its check it stops and returns why as bad; err
// is an I/O failure.
func (s *Store) readLive(victim *segment, live []liveRec, buf []byte, recs []pendingRec) (_ []pendingRec, bad, err error) {
	for len(live) > 0 {
		run, end := 1, live[0].e.off+live[0].e.size
		for run < len(live) && live[run].e.off == end {
			end += live[run].e.size
			run++
		}
		n := end - live[0].e.off
		if _, err := victim.f.ReadAt(buf[:n], live[0].e.off); err != nil {
			if errors.Is(err, io.EOF) {
				return recs, fmt.Errorf("live record %v at offset %d lies past the end of the file", live[0].key, live[0].e.off), nil
			}
			return recs, nil, err
		}
		for _, lr := range live[:run] {
			raw := buf[:lr.e.size]
			buf = buf[lr.e.size:]
			if h := parseHeader(raw); !verifyRecord(raw) || h.key != lr.key || h.flags != lr.e.flags || h.ulen != lr.e.ulen {
				return recs, fmt.Errorf("live record %v at offset %d fails its check", lr.key, lr.e.off), nil
			}
			rec := pendingRec{kind: recReloc, key: lr.key, ulen: lr.e.ulen, flags: lr.e.flags, old: lr.e}
			copy(rec.hdr[:], raw)
			rec.payload = raw[hdrSize:]
			recs = append(recs, rec)
		}
		live = live[run:]
	}
	return recs, nil, nil
}
