package mirror

import (
	"context"
	"slices"

	"blobcr/internal/obs"
)

// The demand record holds what the guest needed from the repository: demand
// faults (reads, and the fills of partial writes) and its first access to a
// chunk the hint replay installed. Whole-chunk overwrites needed nothing, and
// what an explicit Prefetch installs stays out too, or a lazy restart would
// learn to prefetch the whole region. The hint names indices only: the replay
// reads the attached snapshot through the one SHA-256-verifying read engine,
// so a stale, lost or corrupt hint costs prefetch or demand faults, never a
// byte.

// demandRecordBytes caps the demand record by the bytes of the chunks it
// names. Boot sets are a few MiB; the version manager stores no more than
// this either.
const demandRecordBytes = 32 << 20

// recordCap is the demand record's capacity in chunks.
func (m *Module) recordCap() int { return int(demandRecordBytes / m.chunkSize) }

// replayHint fetches the image's hint and replays it with one prefetch — one
// ranged lookup, one read-engine call. It runs inside Attach, before the
// module is shared. Best effort: a missing hint or a failed replay leaves
// demand faults to do the rest.
func (m *Module) replayHint(ctx context.Context) {
	ctx, span := obs.StartSpan(ctx, obs.SpanRestartHint)
	defer span.End()
	hint, err := m.client.GetHint(ctx, m.src.Blob)
	if err != nil || len(hint) == 0 {
		return
	}
	_ = m.prefetch(ctx, hint[:min(len(hint), m.recordCap())], true)
}

// noteDemand records chunks a demand fault brought in and wakes the
// publisher. Caller holds m.mu.
func (m *Module) noteDemand(indices []uint64) {
	m.client.Registry().Counter("mirror_demand_faults_total").Add(uint64(len(indices)))
	room := m.recordCap() - len(m.record)
	if m.recordClosed || room <= 0 {
		return
	}
	m.record = append(m.record, indices[:min(len(indices), room)]...)
	m.recordNew = true
	if !m.publishing {
		m.publishing = true
		go m.publishRecord()
	}
}

// touchHinted notes the guest's first access to a chunk the hint replay
// installed; it enters the record unless the access was a whole-chunk
// overwrite, which needed nothing. Caller holds m.mu.
func (m *Module) touchHinted(idx uint64, needed bool) {
	if !m.hinted[idx] {
		return
	}
	delete(m.hinted, idx)
	if needed {
		m.client.Registry().Counter("mirror_hint_hits_total").Inc()
		if len(m.record) < m.recordCap() {
			m.record = append(m.record, idx)
		}
	}
}

// closeRecord stops recording and publishing for good. Caller holds m.mu.
func (m *Module) closeRecord() {
	m.recordClosed = true
	m.record, m.hinted = nil, nil
}

// publishRecord puts the record as the image's hint until no demand fault is
// left unpublished: faults that arrive during a put ride the next one. It
// runs off the guest's I/O path and exits when caught up or closed; the next
// demand fault starts it again.
func (m *Module) publishRecord() {
	ctx := obs.WithRegistry(context.Background(), m.client.Obs)
	for {
		m.mu.Lock()
		if !m.recordNew || m.recordClosed {
			m.publishing = false
			m.mu.Unlock()
			return
		}
		m.recordNew = false
		blob, record := m.src.Blob, slices.Clone(m.record)
		m.mu.Unlock()
		// Best effort: a lost publish costs the next attach demand faults.
		if m.client.PutHint(ctx, blob, record) == nil {
			m.client.Registry().Counter("mirror_hint_publishes_total").Inc()
		}
	}
}
