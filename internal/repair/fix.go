package repair

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
)

// move is one write-event reference relocation: the references naming `from`
// move to `to`. pre is the occurrence count before the fix (apply=false),
// post the count the committed rewrite observed (apply=true); the difference
// — events retired or published while the fix ran — is settled against `to`.
type move struct {
	cs        *chunkState
	from, to  string
	pre, post uint64
}

// install is one provider's share of a chunk fix: the references to
// pre-install there, and the body when the provider does not hold it yet.
type install struct {
	cs       *chunkState
	refs     uint64
	needBody bool
	body     []byte
}

// passStats is one fix pass's accounting.
type passStats struct {
	attempted        int
	replicasRestored int
	bytesRestored    uint64
	refsRelocated    uint64
	corruptDropped   int
	pinnedRestores   int
}

// Repair surveys the storage plane and re-replicates until a scrub comes
// back clean or MaxPasses fixes have run. Provider deaths during a pass are
// planned around on the next one. The returned report carries the pre- and
// post-repair surveys; infrastructure failures (version or provider manager
// unreachable) are returned as errors, per-provider failures are not — they
// show up in the Post survey instead.
func (r *Repairer) Repair(ctx context.Context) (RepairReport, error) {
	r.passMu.Lock()
	defer r.passMu.Unlock()
	report, err := r.repairLocked(ctx)
	r.mu.Lock()
	r.stats.Repairs++
	r.mu.Unlock()
	r.reg.Counter("repair_repairs_total").Inc()
	if err == nil {
		// On error the Post survey may never have run: a zero report must
		// not masquerade as a clean scrub in the gauges.
		r.recordScrub(report.Post)
	}
	return report, err
}

func (r *Repairer) repairLocked(ctx context.Context) (RepairReport, error) {
	start := time.Now()
	var report RepairReport
	fixedLast := false
	for pass := 0; pass < r.maxPasses; pass++ {
		sv, err := r.runSurvey(ctx)
		if err != nil {
			return report, err
		}
		if pass == 0 {
			report.Pre = sv.report
		}
		report.Post = sv.report
		fixedLast = false
		if sv.report.Clean() {
			report.Elapsed = time.Since(start)
			return report, nil
		}
		ps, err := r.fixPass(ctx, sv)
		report.Passes++
		report.ReplicasRestored += ps.replicasRestored
		report.BytesRestored += ps.bytesRestored
		report.RefsRelocated += ps.refsRelocated
		report.CorruptDropped += ps.corruptDropped
		report.PinnedRestores += ps.pinnedRestores
		r.mu.Lock()
		r.stats.ReplicasRestored += ps.replicasRestored
		r.stats.BytesRestored += ps.bytesRestored
		r.stats.RefsRelocated += ps.refsRelocated
		r.stats.CorruptDropped += ps.corruptDropped
		r.stats.PinnedRestores += ps.pinnedRestores
		r.mu.Unlock()
		r.reg.Counter("repair_replicas_restored_total").Add(uint64(ps.replicasRestored))
		r.reg.Counter("repair_bytes_restored_total").Add(ps.bytesRestored)
		r.reg.Counter("repair_refs_relocated_total").Add(ps.refsRelocated)
		r.reg.Counter("repair_corrupt_dropped_total").Add(uint64(ps.corruptDropped))
		if err != nil {
			report.Elapsed = time.Since(start)
			return report, err
		}
		if ps.attempted == 0 {
			break // nothing fixable (e.g. unrecoverable chunks only)
		}
		fixedLast = true
	}
	if fixedLast {
		// The last loop iteration fixed without re-surveying: refresh Post.
		if sv, err := r.runSurvey(ctx); err == nil {
			report.Post = sv.report
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}

// fixPass plans and executes one round of fixes against the survey: destroy
// corrupt replicas, relocate the write-event references off every bad
// provider with the precount / pre-install / apply / settle protocol
// described in the package comment, and restore clone-pinned chunks with a
// pinned reference.
func (r *Repairer) fixPass(ctx context.Context, sv *survey) (passStats, error) {
	var ps passStats

	// Precount: how many write-event references name each bad candidate.
	type badKey struct {
		key  chunkstore.Key
		addr string
	}
	var precount []blobseer.Relocation
	var precountKeys []badKey
	bads := make(map[chunkstore.Key][]string)
	for _, key := range sv.order {
		cs := sv.chunks[key]
		if len(cs.good) == 0 {
			continue // no verified body anywhere: nothing to plan from
		}
		goodActive := cs.goodOn(sv.activeSet)
		for _, p := range cs.candidates {
			if slices.Contains(goodActive, p) {
				continue
			}
			bads[key] = append(bads[key], p)
			precount = append(precount, blobseer.Relocation{FP: cs.fp, From: p})
			precountKeys = append(precountKeys, badKey{key: key, addr: p})
		}
	}
	counts0 := make(map[badKey]uint64, len(precount))
	if len(precount) > 0 {
		counts, err := r.client.RelocateWrites(ctx, false, precount)
		if err != nil {
			return ps, fmt.Errorf("repair: precount relocations: %w", err)
		}
		for i, c := range counts {
			counts0[precountKeys[i]] = c
		}
	}

	// Plan: per chunk, destroy corrupt replicas, assign each ref-bearing bad
	// provider a new home (fresh ranked targets first, then an existing good
	// active replica), and top up to the replication factor with pinned
	// restores when no references exist to move (clone-pinned content).
	var moves []*move
	installs := make(map[string][]*install)
	byTarget := make(map[badKey]*install) // (chunk, to) -> shared install
	type deletion struct {
		cs   *chunkState
		addr string
	}
	var deletes []deletion
	for _, key := range sv.order {
		cs := sv.chunks[key]
		if len(cs.good) == 0 {
			continue
		}
		goodActive := cs.goodOn(sv.activeSet)
		var refBads []string
		for _, p := range bads[key] {
			if counts0[badKey{key: key, addr: p}] > 0 {
				refBads = append(refBads, p)
			}
		}
		for _, p := range cs.corrupt {
			if !sv.dead[p] {
				deletes = append(deletes, deletion{cs: cs, addr: p})
				ps.attempted++
			}
		}
		if len(refBads) == 0 && len(goodActive) >= sv.want {
			continue // healthy (modulo the corrupt deletions above)
		}
		// Fresh targets: ranked active providers holding nothing, excluding
		// ref-bearing bads (relocating a provider's references onto itself
		// would be a no-op move).
		var targets []string
		for _, p := range blobseer.PlacementRanked(cs.key, sv.active) {
			if len(goodActive)+len(targets) >= sv.want {
				break
			}
			if sv.dead[p] || slices.Contains(cs.good, p) || slices.Contains(refBads, p) {
				continue
			}
			targets = append(targets, p)
		}
		addInstall := func(to string, refs uint64, needBody bool) *install {
			k := badKey{key: key, addr: to}
			in := byTarget[k]
			if in == nil {
				in = &install{cs: cs, needBody: needBody}
				byTarget[k] = in
				installs[to] = append(installs[to], in)
			}
			in.refs += refs
			return in
		}
		nextTarget := 0
		var assigned []string // targets that received a move's references
		for _, from := range refBads {
			var to string
			switch {
			case nextTarget < len(targets):
				to = targets[nextTarget]
				nextTarget++
				assigned = append(assigned, to)
			case len(goodActive) > 0:
				to = goodActive[0]
			case len(assigned) > 0:
				to = assigned[0]
			default:
				continue // nowhere safe to move the references this pass
			}
			n := counts0[badKey{key: key, addr: from}]
			moves = append(moves, &move{cs: cs, from: from, to: to, pre: n})
			addInstall(to, n, !slices.Contains(cs.good, to))
			ps.attempted++
		}
		// Replication still short with every reference accounted for: the
		// content is kept alive by a clone pin whose events were dropped.
		// Restore it with one pinned reference per missing replica.
		for nextTarget < len(targets) {
			addInstall(targets[nextTarget], 1, true)
			nextTarget++
			ps.attempted++
			ps.pinnedRestores++
		}
	}

	// Destroy corrupt replicas before installing anything: the delete drops
	// the provider's body and dedup index entry together, so a corrupt
	// provider can then serve as a fresh target.
	for _, d := range deletes {
		if err := r.client.DeleteChunkAt(ctx, d.addr, d.cs.key); err == nil {
			ps.corruptDropped++
		}
	}

	// Fetch the bodies the installs need, one batched stream per source.
	r.fetchBodies(ctx, sv, installs)

	// Pre-install the references (and bodies) at every new home.
	failedAt := make(map[string]bool)
	var fixMu sync.Mutex
	r.forEachAddr(keysOf(installs), func(addr string) {
		var reps []blobseer.CasReplica
		for _, in := range installs[addr] {
			if in.refs == 0 || (in.needBody && in.body == nil) {
				continue // body fetch failed: the next pass retries
			}
			reps = append(reps, blobseer.CasReplica{FP: in.cs.fp, Body: in.body, Refs: in.refs})
		}
		if len(reps) == 0 {
			return
		}
		if err := r.client.StoreCasReplicas(ctx, addr, reps); err != nil {
			fixMu.Lock()
			failedAt[addr] = true
			fixMu.Unlock()
			return
		}
		fixMu.Lock()
		for _, rep := range reps {
			if rep.Body != nil {
				ps.replicasRestored++
				ps.bytesRestored += uint64(len(rep.Body))
			}
		}
		fixMu.Unlock()
	})

	// Commit the relocations whose new home took its references, and settle
	// the difference against events that retired or published meanwhile.
	var applied []*move
	var relocs []blobseer.Relocation
	for _, mv := range moves {
		in := byTarget[badKey{key: mv.cs.key, addr: mv.to}]
		if failedAt[mv.to] || (in != nil && in.needBody && in.body == nil) {
			continue // home never materialized: references stay put this pass
		}
		applied = append(applied, mv)
		relocs = append(relocs, blobseer.Relocation{FP: mv.cs.fp, From: mv.from, To: mv.to})
	}
	if len(applied) > 0 {
		counts, err := r.client.RelocateWrites(ctx, true, relocs)
		if err != nil {
			return ps, fmt.Errorf("repair: apply relocations: %w", err)
		}
		for i, mv := range applied {
			mv.post = counts[i]
			ps.refsRelocated += mv.post
		}
	}
	for _, mv := range applied {
		switch {
		case mv.pre > mv.post:
			// Events retired while the fix ran: their releases went to the
			// old provider (a no-op when it is dead or already empty), so
			// return the surplus pre-installed references.
			r.client.ReleaseCasRefsAt(ctx, mv.to, mv.cs.fp, mv.pre-mv.post) //nolint:errcheck // best effort; sweep reconciles
		case mv.post > mv.pre:
			// Events published naming the old provider while the fix ran
			// (a commit that started before a drain): their references are
			// settled at the new home like the rest.
			if err := r.client.StoreCasReplicas(ctx, mv.to, []blobseer.CasReplica{{FP: mv.cs.fp, Refs: mv.post - mv.pre}}); err != nil {
				continue
			}
		}
		// The old provider's references are now orphaned: release them when
		// it is still reachable (a draining provider), reclaiming the body
		// once the last one drops. Dead providers took theirs with them.
		if mv.from != mv.to && !sv.dead[mv.from] {
			r.client.ReleaseCasRefsAt(ctx, mv.from, mv.cs.fp, mv.post) //nolint:errcheck // best effort; sweep reconciles
		}
	}
	return ps, nil
}

// fetchBodies fills the body of every install that needs one, fetching from
// a surviving good replica with one batched stream per source provider and
// re-verifying the bytes before they are re-uploaded.
func (r *Repairer) fetchBodies(ctx context.Context, sv *survey, installs map[string][]*install) {
	bySource := make(map[string][]*install)
	for _, ins := range installs {
		for _, in := range ins {
			if !in.needBody {
				continue
			}
			src := ""
			for _, p := range in.cs.good {
				if sv.dead[p] {
					continue
				}
				src = p
				if sv.activeSet[p] {
					break // prefer an active source over a draining one
				}
			}
			if src == "" {
				continue // no reachable source: the next pass retries
			}
			bySource[src] = append(bySource[src], in)
		}
	}
	r.forEachAddr(keysOf(bySource), func(addr string) {
		ins := bySource[addr]
		keys := make([]chunkstore.Key, len(ins))
		sizes := make([]int, len(ins))
		for i, in := range ins {
			keys[i] = in.cs.key
			sizes[i] = in.cs.size
		}
		bodies, err := r.client.FetchChunksFrom(ctx, addr, keys, sizes)
		if err != nil {
			return // source died: the next pass re-plans
		}
		for i, in := range ins {
			body := bodies[i]
			if body == nil {
				continue
			}
			if cas.Sum(body) != in.cs.fp {
				continue // source rotted under us: the next pass re-plans
			}
			in.body = body
		}
	})
}

// Drain decommissions one provider: mark it DRAINING (out of placement, still
// readable), repair until no live chunk resides on it, then retire it from
// the membership. A provider that dies mid-drain degrades into the ordinary
// dead-provider repair — its replicas are restored from the survivors — and
// is still retired. Returns the accumulated repair report.
func (r *Repairer) Drain(ctx context.Context, addr string) (RepairReport, error) {
	if err := r.client.DrainProvider(ctx, addr); err != nil {
		return RepairReport{}, err
	}
	var report RepairReport
	start := time.Now()
	for pass := 0; pass < r.drainPasses; pass++ {
		rep, err := r.Repair(ctx)
		if pass == 0 {
			report.Pre = rep.Pre
		}
		report.Post = rep.Post
		report.Passes += rep.Passes
		report.ReplicasRestored += rep.ReplicasRestored
		report.BytesRestored += rep.BytesRestored
		report.RefsRelocated += rep.RefsRelocated
		report.CorruptDropped += rep.CorruptDropped
		report.PinnedRestores += rep.PinnedRestores
		if err != nil {
			report.Elapsed = time.Since(start)
			return report, err
		}
		if rep.Post.Clean() {
			break
		}
	}
	report.Elapsed = time.Since(start)
	if !report.Post.Clean() {
		return report, fmt.Errorf("repair: drain of %s did not converge: %s", addr, report.Post)
	}
	if err := r.client.RetireProvider(ctx, addr); err != nil {
		return report, err
	}
	r.mu.Lock()
	r.stats.Drains++
	r.mu.Unlock()
	r.reg.Counter("repair_drains_total").Inc()
	return report, nil
}
