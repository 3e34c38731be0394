// Package repair is the elastic self-healing storage plane: it keeps the
// checkpoint repository durable while data providers come and go, the way
// internal/supervisor keeps the compute plane available while nodes fail.
//
// Three responsibilities share one survey core:
//
//   - Anti-entropy scrub: walk the metadata trees of every live version,
//     fetch each chunk's replicas in batched per-provider frames, recompute
//     the SHA-256 fingerprint of every stored body, and report missing
//     replicas, corrupt replicas, and chunks below the configured
//     replication factor on the current *active* membership.
//   - Background re-replication: restore every under-replicated chunk to
//     the replication factor by copying a verified body from a surviving
//     replica to the next rendezvous-ranked active providers — the same
//     ranking the write path places by and the read path falls back to, so
//     a repaired replica is exactly where a fresh write of that content
//     would have put it. Corrupt replicas are destroyed before re-placing.
//   - Decommission (drain): move every replica off a DRAINING provider
//     (blobseer.Client.DrainProvider) and retire it from the membership
//     once it holds no live chunk.
//
// Reference exactness. Every replica of a published chunk write holds one
// reference in the provider's content-addressed store, and Retire releases
// references at the providers the version manager's write events record.
// Repair keeps that accounting exact while replicas move: a
// re-replication first counts the write-event references naming the lost
// provider (RelocateWrites, apply=false), pre-installs exactly that many
// references at the new home, then commits the rewrite (apply=true) and
// settles the difference — events retired or published in between — against
// the new home. A Retire that races the move therefore releases either at
// the old provider (before the rewrite) or at the new one (after it, where
// the references already are), never in between. Chunks kept alive only by
// a clone's pin (their write events were dropped without release) have no
// references to move; they are restored with one ordinary counted reference
// that no Retire will ever release — like the dropped originals, the body
// outlives its count and is reclaimed only by the mark-and-sweep fallback
// (or re-restored by a later pass if a shared release drops it).
package repair

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/obs"
)

// Config tunes a Repairer.
type Config struct {
	// Client is the repository client the repairer works through.
	// Replication and Parallelism are read from it.
	Client *blobseer.Client
	// Replication overrides the client's replica target when > 0.
	Replication int
	// MaxPasses bounds the survey+fix rounds of one Repair call (default 3):
	// a provider dying mid-repair fails some fixes, and the next pass
	// re-plans around it.
	MaxPasses int
	// MaxDrainPasses bounds the repair rounds of one Drain call (default 5).
	MaxDrainPasses int
	// Obs is the metrics registry the repairer's instrumentation records
	// into (scrub findings, restored bytes, drain progress). Nil means the
	// client's registry.
	Obs *obs.Registry
}

// Stats is the repairer's cumulative accounting.
type Stats struct {
	Scrubs  int
	Repairs int
	Drains  int

	ReplicasRestored int    // replica bodies re-placed on new providers
	BytesRestored    uint64 // payload bytes those bodies carried
	RefsRelocated    uint64 // write-event references moved between providers
	CorruptDropped   int    // corrupt replicas destroyed
	PinnedRestores   int    // clone-pinned chunks restored (one counted ref no Retire releases)
}

// ScrubReport is the outcome of one anti-entropy pass over the repository.
type ScrubReport struct {
	Epoch             uint64 // membership epoch the survey ran against
	ActiveProviders   int
	DrainingProviders int
	DeadProviders     int // probed providers that were unreachable

	Versions        int // live versions walked
	Chunks          int // distinct live chunks
	ReplicasChecked int // bodies fetched and re-hashed
	Healthy         int // replicas whose bytes verified
	Missing         int // leaf-recorded replicas that are gone
	Corrupt         int // replicas whose bytes no longer hash to their key

	UnderReplicated int // chunks below target on active providers
	DrainResident   int // chunks with a replica still on a draining provider
	Unrecoverable   int // chunks with no good replica anywhere

	Elapsed time.Duration
}

// Clean reports whether the storage plane needs no repair: every live chunk
// at full replication on active providers, no corruption, nothing stranded
// on a draining provider.
func (r ScrubReport) Clean() bool {
	return r.UnderReplicated == 0 && r.Corrupt == 0 && r.Unrecoverable == 0 && r.DrainResident == 0
}

// String renders the report as one line (blobcr-ctl scrub prints it).
func (r ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d providers=%d/%d/%d versions=%d chunks=%d checked=%d healthy=%d missing=%d corrupt=%d under-replicated=%d drain-resident=%d unrecoverable=%d elapsed=%s",
		r.Epoch, r.ActiveProviders, r.DrainingProviders, r.DeadProviders,
		r.Versions, r.Chunks, r.ReplicasChecked, r.Healthy, r.Missing, r.Corrupt,
		r.UnderReplicated, r.DrainResident, r.Unrecoverable, r.Elapsed.Round(time.Microsecond))
	return b.String()
}

// RepairReport is the outcome of one Repair (or Drain) call.
type RepairReport struct {
	Pre  ScrubReport // the survey that planned the first pass
	Post ScrubReport // the survey after the last pass

	Passes           int
	ReplicasRestored int
	BytesRestored    uint64
	RefsRelocated    uint64
	CorruptDropped   int
	PinnedRestores   int

	Elapsed time.Duration
}

// String renders the report as one line.
func (r RepairReport) String() string {
	return fmt.Sprintf("passes=%d restored=%d bytes=%d refs-relocated=%d corrupt-dropped=%d pinned=%d elapsed=%s post: %s",
		r.Passes, r.ReplicasRestored, r.BytesRestored, r.RefsRelocated, r.CorruptDropped, r.PinnedRestores,
		r.Elapsed.Round(time.Microsecond), r.Post)
}

// Repairer runs scrub, repair and drain passes against one deployment. It is
// safe for concurrent use; passes are serialized internally so a supervisor
// trigger and an operator command cannot run interleaved fixes.
type Repairer struct {
	client      *blobseer.Client
	replication int
	maxPasses   int
	drainPasses int

	reg *obs.Registry

	passMu sync.Mutex // serializes survey/fix passes

	mu    sync.Mutex // guards stats
	stats Stats
}

// New builds a repairer for the deployment the client is bound to.
func New(cfg Config) *Repairer {
	rep := cfg.Replication
	if rep <= 0 {
		rep = cfg.Client.Replication
	}
	if rep <= 0 {
		rep = 1
	}
	passes := cfg.MaxPasses
	if passes <= 0 {
		passes = 3
	}
	drain := cfg.MaxDrainPasses
	if drain <= 0 {
		drain = 5
	}
	reg := cfg.Obs
	if reg == nil {
		reg = cfg.Client.Registry()
	}
	return &Repairer{
		client:      cfg.Client,
		replication: rep,
		maxPasses:   passes,
		drainPasses: drain,
		reg:         reg,
	}
}

// recordScrub publishes one scrub report's findings as gauges (the current
// health picture — DrainResident doubles as drain progress) plus the scrub
// duration histogram. Called wherever a survey becomes the last scrub.
func (r *Repairer) recordScrub(rep ScrubReport) {
	r.reg.Counter("repair_scrubs_total").Inc()
	r.reg.Histogram("repair_scrub_ns").Observe(uint64(rep.Elapsed))
	r.reg.Gauge("repair_scrub_healthy").Set(int64(rep.Healthy))
	r.reg.Gauge("repair_scrub_missing").Set(int64(rep.Missing))
	r.reg.Gauge("repair_scrub_corrupt").Set(int64(rep.Corrupt))
	r.reg.Gauge("repair_scrub_under_replicated").Set(int64(rep.UnderReplicated))
	r.reg.Gauge("repair_scrub_drain_resident").Set(int64(rep.DrainResident))
	r.reg.Gauge("repair_scrub_unrecoverable").Set(int64(rep.Unrecoverable))
}

// Stats returns the cumulative accounting.
func (r *Repairer) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
