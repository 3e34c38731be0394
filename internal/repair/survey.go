package repair

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
)

// chunkState is the survey's record of one live chunk.
type chunkState struct {
	key  chunkstore.Key
	size int
	fp   cas.Fingerprint // recomputed from a verified body; set when good is non-empty

	leafProviders []string // replica homes the metadata trees record (union)
	candidates    []string // providers probed (leaf homes + ranked targets)
	good          []string // verified correct body, any membership state
	corrupt       []string // body present but bytes no longer hash to the key
}

func (cs *chunkState) goodOn(set map[string]bool) []string {
	var out []string
	for _, p := range cs.good {
		if set[p] {
			out = append(out, p)
		}
	}
	return out
}

// survey is one anti-entropy pass's view of the storage plane.
type survey struct {
	report    ScrubReport
	active    []string // placement-eligible providers
	activeSet map[string]bool
	draining  map[string]bool
	dead      map[string]bool // probed providers that were unreachable
	chunks    map[chunkstore.Key]*chunkState
	order     []chunkstore.Key // deterministic iteration order
	want      int              // target replicas per chunk on active providers
}

// members returns every member address (active and draining), sorted.
func (sv *survey) members() []string {
	out := append([]string(nil), sv.active...)
	for p := range sv.draining {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// probe is one (chunk, provider) fetch of the survey.
type probe struct {
	cs *chunkState
}

// runSurvey walks every live version's metadata tree, fetches every
// candidate replica in batched per-provider frames, verifies the bytes by
// re-hashing them, and classifies each chunk's health against the current
// active membership.
func (r *Repairer) runSurvey(ctx context.Context) (*survey, error) {
	start := time.Now()
	sv := &survey{
		activeSet: make(map[string]bool),
		draining:  make(map[string]bool),
		dead:      make(map[string]bool),
		chunks:    make(map[chunkstore.Key]*chunkState),
	}
	members, err := r.client.Membership(ctx)
	if err != nil {
		return nil, err
	}
	sv.report.Epoch = members.Epoch
	for _, p := range members.Providers {
		switch p.State {
		case blobseer.ProviderActive:
			sv.active = append(sv.active, p.Addr)
			sv.activeSet[p.Addr] = true
			sv.report.ActiveProviders++
		case blobseer.ProviderDraining:
			sv.draining[p.Addr] = true
			sv.report.DrainingProviders++
		}
	}
	sv.want = min(r.replication, len(sv.active))

	// Mark: every live version's leaves, unioned per chunk key.
	live, err := r.client.LiveVersions(ctx)
	if err != nil {
		return nil, err
	}
	sv.report.Versions = len(live)
	for _, lv := range live {
		leaves, err := r.client.VersionLeaves(ctx, lv.Info)
		if err != nil {
			return nil, err
		}
		for _, slot := range leaves {
			cs, ok := sv.chunks[slot.Leaf.Key]
			if !ok {
				cs = &chunkState{key: slot.Leaf.Key, size: int(slot.Leaf.Size)}
				sv.chunks[slot.Leaf.Key] = cs
				sv.order = append(sv.order, slot.Leaf.Key)
			}
			if int(slot.Leaf.Size) > cs.size {
				cs.size = int(slot.Leaf.Size)
			}
			for _, p := range slot.Leaf.Providers {
				if !slices.Contains(cs.leafProviders, p) {
					cs.leafProviders = append(cs.leafProviders, p)
				}
			}
		}
	}
	sort.Slice(sv.order, func(i, j int) bool {
		a, b := sv.order[i], sv.order[j]
		if a.Blob != b.Blob {
			return a.Blob < b.Blob
		}
		return a.ID < b.ID
	})
	sv.report.Chunks = len(sv.order)

	// Candidates per chunk: the leaf-recorded homes (which may name
	// providers no longer in the membership) plus every current member.
	// Probing the whole membership — not just the top-ranked placement —
	// is what makes the pass anti-entropy: a replica the repair plane
	// re-homed is found wherever it lives, even when a dead provider is
	// still registered and therefore still occupies its placement rank.
	// A member that never held the chunk answers the probe with a cheap
	// per-item absence; only actual bodies cross the wire.
	memberAddrs := sv.members()
	byProvider := make(map[string][]probe)
	for _, key := range sv.order {
		cs := sv.chunks[key]
		cs.candidates = append(cs.candidates, cs.leafProviders...)
		for _, p := range memberAddrs {
			if !slices.Contains(cs.candidates, p) {
				cs.candidates = append(cs.candidates, p)
			}
		}
		for _, p := range cs.candidates {
			byProvider[p] = append(byProvider[p], probe{cs: cs})
		}
	}

	// Fetch every candidate replica, one batched stream per provider, and
	// verify the bytes by recomputing the SHA-256 fingerprint.
	var mu sync.Mutex
	r.forEachAddr(keysOf(byProvider), func(addr string) {
		probes := byProvider[addr]
		keys := make([]chunkstore.Key, len(probes))
		sizes := make([]int, len(probes))
		for i, pb := range probes {
			keys[i] = pb.cs.key
			sizes[i] = pb.cs.size
		}
		bodies, err := r.client.FetchChunksFrom(ctx, addr, keys, sizes)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			sv.dead[addr] = true
			return
		}
		for i, pb := range probes {
			sv.report.ReplicasChecked++
			body := bodies[i]
			if body == nil {
				continue // missing here; classification below
			}
			fp := cas.Sum(body)
			if fp.Key() != pb.cs.key {
				pb.cs.corrupt = append(pb.cs.corrupt, addr)
				sv.report.Corrupt++
				continue
			}
			pb.cs.fp = fp
			pb.cs.good = append(pb.cs.good, addr)
			sv.report.Healthy++
		}
	})

	// Classify.
	for _, key := range sv.order {
		cs := sv.chunks[key]
		sort.Strings(cs.good)
		for _, p := range cs.leafProviders {
			if !slices.Contains(cs.good, p) && !slices.Contains(cs.corrupt, p) {
				sv.report.Missing++
			}
		}
		goodActive := cs.goodOn(sv.activeSet)
		switch {
		case len(cs.good) == 0:
			sv.report.Unrecoverable++
		case len(goodActive) < sv.want:
			sv.report.UnderReplicated++
		}
		for _, p := range cs.good {
			if sv.draining[p] {
				sv.report.DrainResident++
				break
			}
		}
	}
	sv.report.DeadProviders = len(sv.dead)
	sv.report.Elapsed = time.Since(start)
	return sv, nil
}

// keysOf returns a map's keys, sorted for deterministic fan-out order.
func keysOf[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// forEachAddr runs fn once per provider address on bounded concurrent
// streams (the client's Parallelism), the same fan-out shape as the data
// path.
func (r *Repairer) forEachAddr(addrs []string, fn func(addr string)) {
	limit := r.client.Parallelism
	if limit <= 0 {
		limit = blobseer.DefaultParallelism
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, addr := range addrs {
		sem <- struct{}{}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(addr)
		}(addr)
	}
	wg.Wait()
}

// Scrub runs one anti-entropy pass and reports the storage plane's health
// without fixing anything. Storage-engine compaction rides the scrub
// cadence: after the survey, every member provider with a log-structured
// backend gets a best-effort compaction pass, reclaiming the dead bytes that
// Retire releases and GC sweeps left in its segments.
func (r *Repairer) Scrub(ctx context.Context) (ScrubReport, error) {
	r.passMu.Lock()
	defer r.passMu.Unlock()
	sv, err := r.runSurvey(ctx)
	if err != nil {
		return ScrubReport{}, err
	}
	r.mu.Lock()
	r.stats.Scrubs++
	r.mu.Unlock()
	r.recordScrub(sv.report)
	r.compactStores(ctx, sv.members())
	return sv.report, nil
}

// compactStores asks every member provider's storage engine for a compaction
// pass, on the same bounded fan-out as the data path. Unreachable providers
// are skipped silently — the scrub's health findings already cover
// reachability.
func (r *Repairer) compactStores(ctx context.Context, addrs []string) {
	var mu sync.Mutex
	var total chunkstore.CompactResult
	r.forEachAddr(addrs, func(addr string) {
		res, err := r.client.CompactChunkStore(ctx, addr)
		if err != nil {
			return
		}
		mu.Lock()
		total.Add(res)
		mu.Unlock()
	})
	if total.Segments > 0 {
		r.reg.Counter("repair_store_compactions_total").Add(uint64(total.Segments))
		r.reg.Counter("repair_store_reclaimed_bytes_total").Add(total.ReclaimedBytes)
	}
}
