// Package supervisor closes BlobCR's checkpoint-restart control loop: it
// turns the hand-driven recovery primitives of internal/cloud into an
// autonomous service, so a deployment survives failure storms with zero
// operator action.
//
// The supervisor runs four responsibilities in one control loop:
//
//   - Failure detection: a heartbeat/suspicion detector pings every node's
//     checkpointing proxy (the lightweight PING verb); a node missing
//     SuspectAfter consecutive pings is confirmed fail-stopped.
//   - Checkpoint cadence: periodic global checkpoints on the Young/Daly
//     interval sqrt(2*C*MTBF)-C (ckptinterval.Optimal), where C is an EWMA
//     of the observed checkpoint cost and MTBF is configured. On a multilevel
//     deployment (cloud.Config.LocalTier) C is the time to *locally safe* —
//     staged in the node-local fast tier and replicated to the partner — not
//     the time to durable: the local tier is what the job actually waits
//     for, so the cadence tracks local-tier speed and stays dense even when
//     the remote plane is slow.
//   - Rollback planning: with asynchronous commits the newest recorded
//     checkpoint may still be publishing, so recovery targets the newest
//     *globally durable* checkpoint — the durability watermark that
//     cloud.Deployment tracks as commit handles resolve. On a multilevel
//     deployment recovery first tries to *promote* the newest locally-safe
//     checkpoint: drain every member's staged captures (from the member's
//     own surviving tier, or its partner's replica when the node died) and
//     mark the checkpoint durable, so a single node loss never costs a
//     locally-safe checkpoint.
//   - Self-healing restart: bounded retries with exponential backoff,
//     placement on spare nodes, and — when Config.PartialRestart is set —
//     partial restart: only the members that died are re-deployed from
//     their snapshots, healthy members roll back in place with their warm
//     local caches.
//
// Every decision is emitted on a structured event stream (EventLog) with
// MTTR and lost-work accounting; Serve exposes it over the transport for
// blobcr-ctl supervise/events.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blobcr/internal/ckptinterval"
	"blobcr/internal/cloud"
	"blobcr/internal/health"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/repair"
	"blobcr/internal/vm"
)

// ErrNoDurableCheckpoint is returned when a failure hits before any global
// checkpoint has become durable: there is nothing to roll back to.
var ErrNoDurableCheckpoint = errors.New("supervisor: no durable checkpoint to roll back to")

// Config tunes the supervisor.
type Config struct {
	// HeartbeatEvery is the failure detector's ping period (default 50ms).
	HeartbeatEvery time.Duration
	// PingTimeout bounds each liveness probe (default: 4x HeartbeatEvery,
	// so a loaded machine must stay silent, not merely slow, to register a
	// miss).
	PingTimeout time.Duration
	// SuspectAfter is how many consecutive missed pings confirm a node
	// failure (default 3).
	SuspectAfter int

	// MTBF is the expected mean time between failures, the Daly formula's
	// second input (default 1h).
	MTBF time.Duration
	// InitialCkptCost seeds the checkpoint-cost EWMA before the first
	// observation (default 1s).
	InitialCkptCost time.Duration
	// CostSmoothing is the EWMA weight of the newest observation, in (0, 1]
	// (default 0.3).
	CostSmoothing float64
	// MinInterval / MaxInterval clamp the computed checkpoint interval
	// (defaults 100ms / 1h).
	MinInterval time.Duration
	MaxInterval time.Duration

	// MaxRestartRetries bounds restart attempts per recovery episode
	// (default 5). An exhausted episode is not the end: while the
	// deployment stays down, a fresh episode starts every BackoffMax.
	MaxRestartRetries int
	// BackoffBase is the first retry delay, doubling per attempt up to
	// BackoffMax (defaults 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// PartialRestart re-deploys only failed members, rolling healthy ones
	// back in place, instead of tearing down the whole deployment.
	PartialRestart bool

	// Repair, when set, closes the *storage*-plane recovery loop the way
	// the supervisor itself closes the compute-plane one: every confirmed
	// node failure triggers a background repair pass (anti-entropy scrub +
	// re-replication, internal/repair) that restores every live chunk to
	// the configured replication factor on the surviving providers. At most
	// one triggered repair runs at a time; its outcome is evented with the
	// storage MTTR (failure confirmation to clean scrub).
	Repair *repair.Repairer

	// EventBuffer bounds the retained event history (default 1024).
	EventBuffer int

	// FlightEvery throttles flight-recorder mirroring: every FlightEvery-th
	// heartbeat round, the supervisor dumps each live node's flight ring (the
	// proxy's and the co-located data provider's flight-get op)
	// and retains the snapshot. When the failure detector confirms a death,
	// the node's last snapshot is archived — the post-mortem of its final
	// spans, served by the FLIGHT op. Default 1 (every round); 0 uses the
	// default, negative disables mirroring.
	FlightEvery int

	// Obs is the metrics registry the supervisor's instrumentation records
	// into (heartbeat RTT, MTTR, work lost, Young/Daly interval, dropped
	// events). Nil means obs.Default.
	Obs *obs.Registry

	// Health, when set, turns the supervisor into the cluster health plane
	// (internal/health): every Health.Every-th heartbeat round it federates
	// each live node's metrics (proxy and data provider, both over metrics-get,
	// plus Health.RepairAddr) into Obs under node= labels, samples Obs's
	// history ring, and evaluates the SLO rules — firings and resolutions
	// become events and health_alert_active gauges, and the supervisor's own
	// metrics, history and health ops then answer for the whole fleet.
	Health *health.Config
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		// Wider than the ping period: a loaded machine must miss several
		// beats in a row, not merely respond slowly, before recovery fires.
		c.PingTimeout = 4 * c.HeartbeatEvery
	}
	if c.SuspectAfter < 1 {
		c.SuspectAfter = 3
	}
	if c.MTBF <= 0 {
		c.MTBF = time.Hour
	}
	if c.InitialCkptCost <= 0 {
		c.InitialCkptCost = time.Second
	}
	if c.CostSmoothing <= 0 || c.CostSmoothing > 1 {
		c.CostSmoothing = 0.3
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 100 * time.Millisecond
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = time.Hour
	}
	if c.MaxRestartRetries < 1 {
		c.MaxRestartRetries = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.FlightEvery == 0 {
		c.FlightEvery = 1
	}
	return c
}

// Metrics is the supervisor's cumulative accounting. MTTR (mean time to
// repair: failure detection to resumed deployment) is a first-class output,
// alongside how much computed work rollbacks discarded.
type Metrics struct {
	HeartbeatsSent   uint64
	HeartbeatsMissed uint64
	FailuresDetected int
	Recoveries       int
	RestartAttempts  int
	RedeployedVMs    int
	InPlaceVMs       int

	CheckpointsInitiated int
	// CheckpointsLocal counts checkpoints that reached the locally-safe
	// watermark (multilevel deployments only); CheckpointsPromoted counts
	// recovery-time promotions of a locally-safe checkpoint to durable via
	// partner/owner tier drains.
	CheckpointsLocal    int
	CheckpointsPromoted int
	CheckpointsDurable  int
	CheckpointsFailed   int

	// Storage-plane repair accounting (Config.Repair).
	StorageRepairs   int           // triggered repair passes completed
	ReplicasRestored int           // replica bodies re-placed by those passes
	BytesRestored    uint64        // payload bytes re-replicated
	LastStorageMTTR  time.Duration // failure confirmation -> clean scrub

	LastMTTR  time.Duration
	TotalMTTR time.Duration
	MaxMTTR   time.Duration
	WorkLost  time.Duration
}

// MeanMTTR returns the mean time-to-repair across recoveries.
func (m Metrics) MeanMTTR() time.Duration {
	if m.Recoveries == 0 {
		return 0
	}
	return m.TotalMTTR / time.Duration(m.Recoveries)
}

// Supervisor is the autonomous checkpoint-restart controller of one
// deployment.
type Supervisor struct {
	cl  *cloud.Cloud
	cfg Config
	log *EventLog
	reg *obs.Registry

	mu          sync.Mutex
	dep         *cloud.Deployment
	gen         int // deployment generation; bumps on every recovery
	det         *detector
	ckptCost    float64   // EWMA of observed checkpoint cost, seconds (time-to-local on tiered deployments, time-to-durable otherwise)
	lastDurable time.Time // when the newest durable checkpoint completed
	metrics     Metrics

	// Multilevel bookkeeping. localSeqs records, per locally-safe checkpoint
	// of the *current* generation, each member's capture sequence number —
	// the input a promotion drain (proxy DRAINFOR against the member's node
	// or its partner) needs. Cleared when the generation bumps: checkpoint
	// ids restart per deployment. backlogs mirrors each live node's
	// local-tier drain backlog, refreshed on heartbeat rounds.
	localSeqs map[int]map[string]uint64
	backlogs  map[string]NodeBacklog

	// An exhausted recovery episode leaves the deployment down; the loop
	// starts a fresh episode once retryRecoveryAt passes. downSince anchors
	// the outage: MTTR spans from the first detection to the restart that
	// finally succeeds, across however many episodes that takes.
	pendingRecovery bool
	retryRecoveryAt time.Time
	downSince       time.Time

	// repairInFlight serializes triggered storage-repair passes; a failure
	// confirmed while one is running sets repairPending, and the finishing
	// pass immediately re-kicks — a second failure's lost replicas are
	// never silently dropped.
	repairInFlight bool
	repairPending  bool

	// Flight-recorder mirroring (flight.go): the last dump fetched off each
	// node, final once the node's death is confirmed. Guarded by its own
	// mutex — mirroring runs during heartbeat rounds and the FLIGHT op reads
	// come in over the wire; neither should contend with the control loop.
	flightMu sync.Mutex
	flights  map[string]FlightDump
	hbRounds int // heartbeat rounds run; gates mirroring via FlightEvery

	// Health plane (health.go in this package): the federation scraper and
	// SLO engine, nil without Config.Health.
	fed    *health.Federator
	engine *health.Engine
}

// New builds a supervisor for the deployment. Run starts the control loop.
func New(cl *cloud.Cloud, dep *cloud.Deployment, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	s := &Supervisor{
		cl:        cl,
		cfg:       cfg,
		log:       newEventLog(cfg.EventBuffer),
		reg:       reg,
		dep:       dep,
		det:       newDetector(cfg.SuspectAfter),
		flights:   make(map[string]FlightDump),
		localSeqs: make(map[int]map[string]uint64),
		backlogs:  make(map[string]NodeBacklog),
	}
	dropped := reg.Counter("supervisor_events_dropped_total")
	s.log.onDrop = dropped.Inc
	if cfg.Health != nil {
		s.startHealth(cfg.Health)
	}
	return s
}

// Events returns the supervisor's event stream.
func (s *Supervisor) Events() *EventLog { return s.log }

// Deployment returns the current deployment and its generation; the
// generation bumps every time a recovery replaces the instance set, so a
// workload can detect that it must re-bind to the new instances.
func (s *Supervisor) Deployment() (*cloud.Deployment, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dep, s.gen
}

// Metrics returns a snapshot of the cumulative accounting.
func (s *Supervisor) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// NodeBacklog is one node's local-tier drain backlog, split into the node's
// own staged captures and the partner replicas it holds for its neighbor.
type NodeBacklog struct {
	Own     localtier.Backlog
	Partner localtier.Backlog
}

// Backlogs returns the latest drain backlog mirrored off each live node of
// the local tier, keyed by node name. Empty on non-tiered deployments.
func (s *Supervisor) Backlogs() map[string]NodeBacklog {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]NodeBacklog, len(s.backlogs))
	for name, b := range s.backlogs {
		out[name] = b
	}
	return out
}

// tiered reports whether the deployment runs on local-tier nodes — the
// multilevel two-watermark protocol only applies then.
func (s *Supervisor) tiered(dep *cloud.Deployment) bool {
	return len(dep.Instances) > 0 && dep.Instances[0].Node.Stage() != nil
}

// observeCkptCostLocked folds one checkpoint-cost observation into the EWMA
// feeding the Young/Daly interval. Caller holds s.mu.
func (s *Supervisor) observeCkptCostLocked(cost time.Duration) {
	if s.ckptCost == 0 {
		s.ckptCost = cost.Seconds()
	} else {
		a := s.cfg.CostSmoothing
		s.ckptCost = a*cost.Seconds() + (1-a)*s.ckptCost
	}
}

// Interval returns the checkpoint interval currently in effect: the
// Young/Daly optimum for the observed checkpoint cost and the configured
// MTBF, clamped to [MinInterval, MaxInterval].
func (s *Supervisor) Interval() time.Duration {
	s.mu.Lock()
	cost := s.ckptCost
	s.mu.Unlock()
	if cost == 0 {
		cost = s.cfg.InitialCkptCost.Seconds()
	}
	t := ckptinterval.Optimal(cost, s.cfg.MTBF.Seconds())
	d := time.Duration(t * float64(time.Second))
	if d < s.cfg.MinInterval {
		d = s.cfg.MinInterval
	}
	if d > s.cfg.MaxInterval {
		d = s.cfg.MaxInterval
	}
	s.reg.Gauge("supervisor_ckpt_interval_ns").Set(int64(d))
	return d
}

// Run drives the control loop — heartbeats, Daly-interval checkpoints,
// recoveries — until ctx is cancelled. It returns nil on cancellation;
// individual failures are handled (and evented), not returned.
func (s *Supervisor) Run(ctx context.Context) error {
	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	ck := time.NewTimer(s.Interval())
	defer ck.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-hb.C:
			failed := s.heartbeat(ctx)
			s.mu.Lock()
			retry := s.pendingRecovery && time.Now().After(s.retryRecoveryAt)
			s.mu.Unlock()
			if len(failed) > 0 || retry {
				s.recover(ctx, failed) //nolint:errcheck // evented; the loop keeps running
			}
		case <-ck.C:
			s.CheckpointNow(ctx) //nolint:errcheck // evented; failures surface via heartbeats too
			ck.Reset(s.Interval())
		}
	}
}

// heartbeat pings every non-failed node of the cloud — not just the ones
// hosting instances: a node may carry only a data provider, and its death
// still matters (placement must skip it, Prune must not sweep through it).
// Pings run concurrently, so one round costs one PingTimeout no matter how
// many nodes hang. It returns the names of nodes the detector confirmed
// failed this round.
func (s *Supervisor) heartbeat(ctx context.Context) []string {
	var nodes []*cloud.Node
	for _, node := range s.cl.Nodes() {
		if !node.Failed() {
			nodes = append(nodes, node)
		}
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *cloud.Node) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, s.cfg.PingTimeout)
			defer cancel()
			sw := obs.StartTimer()
			_, errs[i] = proxy.Ping(pctx, s.cl.Network(), node.ProxyAddr)
			if errs[i] == nil {
				sw.ObserveInto(s.reg.Histogram("supervisor_heartbeat_rtt_ns"))
				// Piggyback the local-tier drain backlog on the liveness
				// round: one extra cheap call per beat keeps the per-node
				// backlog view (STATUS, Backlogs) current without a second
				// survey loop.
				if node.Stage() != nil {
					if own, partner, berr := proxy.Backlog(pctx, s.cl.Network(), node.ProxyAddr); berr == nil {
						s.mu.Lock()
						s.backlogs[node.Name] = NodeBacklog{Own: own, Partner: partner}
						s.mu.Unlock()
						s.reg.Gauge("supervisor_drain_backlog_chunks", obs.L("node", node.Name)).Set(int64(own.Chunks + partner.Chunks))
						s.reg.Gauge("supervisor_drain_backlog_bytes", obs.L("node", node.Name)).Set(int64(own.Bytes + partner.Bytes))
					}
				}
			}
		}(i, node)
	}
	wg.Wait()
	// Mirror flight rings off the nodes that answered, before judging the
	// round: the snapshot taken now is the one a confirmation this round
	// would archive as the node's post-mortem.
	s.mu.Lock()
	s.hbRounds++
	rounds := s.hbRounds
	mirror := s.cfg.FlightEvery > 0 && rounds%s.cfg.FlightEvery == 0
	s.mu.Unlock()
	if mirror {
		s.mirrorFlights(ctx, nodes, errs)
	}
	if s.fed != nil {
		every := s.cfg.Health.Every
		if every < 1 {
			every = 1
		}
		if rounds%every == 0 {
			s.healthRound(ctx, nodes)
		}
	}
	var confirmed []string
	for i, node := range nodes {
		err := errs[i]
		s.mu.Lock()
		s.metrics.HeartbeatsSent++
		s.reg.Counter("supervisor_heartbeats_total").Inc()
		if err != nil {
			s.metrics.HeartbeatsMissed++
			s.reg.Counter("supervisor_heartbeats_missed_total").Inc()
		}
		suspected, conf := s.det.observe(node.Name, err == nil)
		s.mu.Unlock()
		if suspected {
			s.log.append(Event{Type: EventNodeSuspected, Node: node.Name, Detail: fmt.Sprintf("ping: %v", err)})
		}
		if conf {
			confirmed = append(confirmed, node.Name)
			s.archiveFlight(node.Name)
		}
	}
	return confirmed
}

// CheckpointNow initiates a global checkpoint of the current deployment:
// every member captures its dirty chunks (the VM resumes immediately) and
// the checkpoint is recorded provisionally; a background watcher resolves
// the commit handles and promotes the checkpoint to durable. It returns the
// provisional checkpoint id.
func (s *Supervisor) CheckpointNow(ctx context.Context) (int, error) {
	s.mu.Lock()
	dep, gen := s.dep, s.gen
	s.mu.Unlock()
	sw := obs.StartTimer()

	type member struct {
		inst   *cloud.Instance
		handle uint64
	}
	members := make([]member, len(dep.Instances))
	errs := make([]error, len(dep.Instances))
	var wg sync.WaitGroup
	for i, inst := range dep.Instances {
		wg.Add(1)
		go func(i int, inst *cloud.Instance) {
			defer wg.Done()
			h, err := inst.Proxy.RequestCheckpointAsync(ctx)
			members[i] = member{inst: inst, handle: h}
			errs[i] = err
		}(i, inst)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.mu.Lock()
			s.metrics.CheckpointsFailed++
			s.mu.Unlock()
			s.log.append(Event{Type: EventCheckpointFailed, Node: members[i].inst.Node.Name,
				Detail: fmt.Sprintf("initiate %s: %v", members[i].inst.VMID, err)})
			return 0, err
		}
	}

	id := s.cl.RecordPendingCheckpoint(dep)
	s.mu.Lock()
	s.metrics.CheckpointsInitiated++
	s.mu.Unlock()
	s.log.append(Event{Type: EventCheckpointInitiated, Ckpt: id,
		Detail: fmt.Sprintf("%d members, commits in flight", len(members))})

	go func() {
		// Phase A (multilevel deployments): wait for every member's capture
		// to reach its node's fast tier and partner replica, then mark the
		// locally-safe watermark. The *local* cost is what feeds the
		// Young/Daly EWMA — the job only ever waits for the local tier, so
		// the cadence must track local-tier speed, not remote-plane
		// bandwidth.
		tiered := s.tiered(dep)
		localOK := false
		if tiered {
			seqs := make(map[string]uint64, len(members))
			localOK = true
			for _, m := range members {
				seq, err := m.inst.Proxy.WaitCheckpointLocal(ctx, m.handle)
				if err != nil {
					s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id, Node: m.inst.Node.Name,
						Detail: fmt.Sprintf("local ack %s: %v", m.inst.VMID, err)})
					localOK = false
					break
				}
				seqs[m.inst.VMID] = seq
			}
			if localOK {
				if err := dep.MarkLocallySafe(id); err != nil {
					s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id, Detail: err.Error()})
				} else {
					localCost := sw.Elapsed()
					s.mu.Lock()
					if s.gen == gen {
						s.observeCkptCostLocked(localCost)
						s.localSeqs[id] = seqs
						s.metrics.CheckpointsLocal++
					}
					s.mu.Unlock()
					s.reg.Counter("supervisor_ckpt_local_total").Inc()
					s.reg.Histogram("supervisor_ckpt_local_cost_ns").Observe(uint64(localCost))
					s.log.append(Event{Type: EventCheckpointLocal, Ckpt: id,
						Detail: fmt.Sprintf("local-cost=%s interval=%s", localCost.Round(time.Microsecond), s.Interval().Round(time.Millisecond))})
				}
			}
		}
		// Phase B: wait for the drain to publish every member's snapshot to
		// the remote plane. A member whose node died after the local ack is
		// not fatal: its partner holds the replica — drain it on the dead
		// member's behalf.
		for _, m := range members {
			ref, err := m.inst.Proxy.WaitCheckpoint(ctx, m.handle)
			if err != nil && tiered && localOK {
				ref, err = s.drainSurvivor(ctx, m.inst, id)
			}
			if err != nil {
				s.mu.Lock()
				s.metrics.CheckpointsFailed++
				s.mu.Unlock()
				s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id, Node: m.inst.Node.Name,
					Detail: fmt.Sprintf("commit %s: %v", m.inst.VMID, err)})
				return
			}
			if err := dep.ResolveSnapshot(id, m.inst.VMID, ref); err != nil {
				s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id, Detail: err.Error()})
				return
			}
		}
		if err := dep.MarkDurable(id); err != nil {
			s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id, Detail: err.Error()})
			return
		}
		cost := sw.Elapsed()
		s.mu.Lock()
		if s.gen != gen {
			// A recovery replaced the deployment while this checkpoint was
			// publishing: the record just promoted belongs to the discarded
			// incarnation and the active deployment's watermark never
			// includes it. Don't let the phantom into the durable
			// accounting or the lost-work anchor.
			s.mu.Unlock()
			s.log.append(Event{Type: EventCheckpointFailed, Ckpt: id,
				Detail: "published into a deployment already replaced by recovery"})
			return
		}
		if !localOK {
			// Untier(ed) deployments price the full time-to-durable; tiered
			// ones already folded the local cost in phase A.
			s.observeCkptCostLocked(cost)
		}
		s.lastDurable = time.Now()
		s.metrics.CheckpointsDurable++
		delete(s.localSeqs, id) // durable: no promotion drain will need it
		s.mu.Unlock()
		s.reg.Counter("supervisor_ckpt_durable_total").Inc()
		s.reg.Histogram("supervisor_ckpt_cost_ns").Observe(uint64(cost))
		s.log.append(Event{Type: EventCheckpointDurable, Ckpt: id,
			Detail: fmt.Sprintf("cost=%s interval=%s", cost.Round(time.Microsecond), s.Interval().Round(time.Millisecond))})
	}()
	return id, nil
}

// drainSurvivor publishes a member's staged captures for the locally-safe
// checkpoint ckptID from wherever a copy survives: the member's own node
// first (restart-in-place — the tier outlives the halted mirror module),
// then the node's partner replica. It returns the snapshot the drain chain
// reached.
func (s *Supervisor) drainSurvivor(ctx context.Context, inst *cloud.Instance, ckptID int) (cloud.SnapshotRef, error) {
	s.mu.Lock()
	seq, ok := s.localSeqs[ckptID][inst.VMID]
	s.mu.Unlock()
	if !ok {
		return cloud.SnapshotRef{}, fmt.Errorf("supervisor: no local capture sequence recorded for %s at ckpt %d", inst.VMID, ckptID)
	}
	var addrs []string
	if !inst.Node.Failed() {
		addrs = append(addrs, inst.Node.ProxyAddr)
	}
	if inst.Node.PartnerAddr != "" {
		addrs = append(addrs, inst.Node.PartnerAddr)
	}
	err := fmt.Errorf("supervisor: no surviving copy of %s seq %d", inst.VMID, seq)
	for _, addr := range addrs {
		var ref cloud.SnapshotRef
		ref, err = proxy.DrainFor(ctx, s.cl.Network(), addr, inst.VMID, seq)
		if err == nil {
			return ref, nil
		}
	}
	return cloud.SnapshotRef{}, err
}

// promoteLocallySafe tries to make the newest locally-safe checkpoint the
// rollback target: every member's staged captures are drained to the remote
// plane — from the member's own tier when its node survived, or from the
// partner replica when it died — and the checkpoint is marked durable.
// Failure is not fatal; the rollback planner falls back to the existing
// durable watermark, so a locally-safe-only checkpoint is never rolled back
// to unless every member's copy was actually publishable.
func (s *Supervisor) promoteLocallySafe(ctx context.Context, dep *cloud.Deployment) {
	if !s.tiered(dep) {
		return
	}
	lcp, ok := dep.LatestLocallySafeCheckpoint()
	if !ok || lcp.Durable {
		return
	}
	for _, inst := range dep.Instances {
		if _, done := lcp.Snapshots[inst.VMID]; done {
			continue // this member's drain already published
		}
		ref, err := s.drainSurvivor(ctx, inst, lcp.ID)
		if err != nil {
			s.log.append(Event{Type: EventCheckpointFailed, Ckpt: lcp.ID, Node: inst.Node.Name,
				Detail: fmt.Sprintf("promotion drain %s: %v", inst.VMID, err)})
			return
		}
		if err := dep.ResolveSnapshot(lcp.ID, inst.VMID, ref); err != nil {
			s.log.append(Event{Type: EventCheckpointFailed, Ckpt: lcp.ID, Detail: err.Error()})
			return
		}
	}
	if err := dep.MarkDurable(lcp.ID); err != nil {
		s.log.append(Event{Type: EventCheckpointFailed, Ckpt: lcp.ID, Detail: err.Error()})
		return
	}
	s.mu.Lock()
	s.metrics.CheckpointsPromoted++
	s.metrics.CheckpointsDurable++
	s.mu.Unlock()
	s.reg.Counter("supervisor_ckpt_promoted_total").Inc()
	s.log.append(Event{Type: EventCheckpointPromoted, Ckpt: lcp.ID,
		Detail: "locally-safe checkpoint drained to the remote plane for rollback"})
}

// recover handles one confirmed failure: mark the nodes failed with the
// middleware, kill their instances, plan a rollback to the durability
// watermark, and execute the restart with bounded retries and exponential
// backoff. On success the supervisor swaps in the new deployment and bumps
// the generation.
func (s *Supervisor) recover(ctx context.Context, failed []string) error {
	s.mu.Lock()
	dep := s.dep
	lastDurable := s.lastDurable
	if s.downSince.IsZero() {
		s.downSince = time.Now()
	}
	downSince := s.downSince
	s.metrics.FailuresDetected += len(failed)
	s.mu.Unlock()
	s.reg.Counter("supervisor_failures_detected_total").Add(uint64(len(failed)))

	for _, name := range failed {
		s.log.append(Event{Type: EventFailureDetected, Node: name,
			Detail: fmt.Sprintf("%d consecutive heartbeats missed", s.cfg.SuspectAfter)})
		if err := s.cl.FailNode(ctx, name); err != nil {
			s.log.append(Event{Type: EventFailureDetected, Node: name, Detail: "fail-stop: " + err.Error()})
		}
	}
	dead := s.cl.KillDeploymentInstancesOn(dep)

	// The failed nodes' co-located data providers are gone: every chunk
	// replica they held is lost. Kick the storage plane's self-healing in
	// the background — re-replication proceeds while (and after) the
	// compute plane restarts.
	if len(failed) > 0 {
		s.kickRepair(ctx, fmt.Sprintf("data providers of %v lost", failed))
	}

	// A failed node that hosted no member (a data-provider-only node, or a
	// spare) needs no rollback: FailNode already took it out of placement
	// and the provider rotation, and the job never stopped. Only roll back
	// when a member actually died.
	memberDown := false
	for _, inst := range dep.Instances {
		if inst.Node.Failed() || inst.VM.State() == vm.Stopped {
			memberDown = true
			break
		}
	}
	if !memberDown {
		s.mu.Lock()
		if !s.pendingRecovery {
			s.downSince = time.Time{}
		}
		s.mu.Unlock()
		for _, name := range failed {
			s.log.append(Event{Type: EventNodeRetired, Node: name,
				Detail: "hosted no members; removed from placement, no rollback needed"})
		}
		return nil
	}

	// Multilevel promotion: the newest locally-safe checkpoint may be ahead
	// of the durable watermark — try to drain it to the remote plane first,
	// so the rollback discards as little work as the local tier allows.
	s.promoteLocallySafe(ctx, dep)

	cp, ok := dep.LatestDurableCheckpoint()
	if !ok {
		// Nothing to roll back to *yet* — an in-flight checkpoint may still
		// become durable (its surviving members' commits resolve on their
		// own). Re-arm rather than giving up, like an exhausted episode.
		s.mu.Lock()
		s.pendingRecovery = true
		s.retryRecoveryAt = time.Now().Add(s.cfg.BackoffMax)
		s.mu.Unlock()
		s.log.append(Event{Type: EventRecoveryFailed,
			Detail: fmt.Sprintf("%s (new episode in %s)", ErrNoDurableCheckpoint, s.cfg.BackoffMax)})
		return ErrNoDurableCheckpoint
	}
	// Work lost = computation discarded by the rollback: from the rollback
	// target becoming durable until the failure took the deployment down.
	var workLost time.Duration
	if !lastDurable.IsZero() && downSince.After(lastDurable) {
		workLost = downSince.Sub(lastDurable)
	}
	mode := "full"
	if s.cfg.PartialRestart {
		mode = "partial"
	}
	s.log.append(Event{Type: EventRollbackPlanned, Ckpt: cp.ID, WorkLost: workLost,
		Detail: fmt.Sprintf("watermark=%d dead=%v mode=%s", dep.DurableWatermark(), dead, mode)})

	backoff := s.cfg.BackoffBase
	var lastErr error
	for attempt := 1; attempt <= s.cfg.MaxRestartRetries; attempt++ {
		s.mu.Lock()
		s.metrics.RestartAttempts++
		s.mu.Unlock()
		s.log.append(Event{Type: EventRestartAttempt, Ckpt: cp.ID, Attempt: attempt})

		var newDep *cloud.Deployment
		var stats cloud.RestartStats
		var err error
		if s.cfg.PartialRestart {
			newDep, stats, err = s.cl.PartialRestart(ctx, dep, cp.ID)
		} else {
			newDep, err = s.cl.Restart(ctx, dep, cp.ID)
			if err == nil {
				stats = cloud.RestartStats{Redeployed: len(newDep.Instances)}
			}
		}
		if err == nil {
			// MTTR spans the whole outage, prior exhausted episodes and
			// inter-episode waits included.
			mttr := time.Since(downSince)
			s.mu.Lock()
			s.dep = newDep
			s.gen++
			s.pendingRecovery = false
			s.downSince = time.Time{}
			// Checkpoint ids restart with the new deployment: stale capture
			// sequences must not alias the new incarnation's checkpoints.
			s.localSeqs = make(map[int]map[string]uint64)
			for _, name := range failed {
				s.det.forget(name)
				delete(s.backlogs, name)
			}
			// Work since the resumed checkpoint is what the next failure
			// would lose.
			s.lastDurable = time.Now()
			s.metrics.Recoveries++
			s.metrics.RedeployedVMs += stats.Redeployed
			s.metrics.InPlaceVMs += stats.InPlace
			s.metrics.LastMTTR = mttr
			s.metrics.TotalMTTR += mttr
			if mttr > s.metrics.MaxMTTR {
				s.metrics.MaxMTTR = mttr
			}
			s.metrics.WorkLost += workLost
			s.mu.Unlock()
			s.reg.Counter("supervisor_recoveries_total").Inc()
			s.reg.Histogram("supervisor_mttr_ns").Observe(uint64(mttr))
			s.reg.Gauge("supervisor_mttr_last_ns").Set(int64(mttr))
			s.reg.Counter("supervisor_work_lost_ns_total").Add(uint64(workLost))
			s.log.append(Event{Type: EventRestartDone, Ckpt: cp.ID, Attempt: attempt, MTTR: mttr,
				Detail: fmt.Sprintf("mode=%s redeployed=%d in-place=%d", mode, stats.Redeployed, stats.InPlace)})
			return nil
		}
		lastErr = err
		s.log.append(Event{Type: EventRestartAttempt, Ckpt: cp.ID, Attempt: attempt, Detail: "failed: " + err.Error()})
		// A retry may be failing because more nodes died mid-restart: sweep
		// once so placement avoids them on the next attempt.
		s.sweepFailures(ctx, dep)
		select {
		case <-ctx.Done():
			s.log.append(Event{Type: EventRecoveryFailed, Ckpt: cp.ID, Detail: ctx.Err().Error()})
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > s.cfg.BackoffMax {
			backoff = s.cfg.BackoffMax
		}
	}
	// The deployment is still down: schedule a fresh episode rather than
	// giving up for good — transient conditions (a provider mid-recovery, a
	// second failure racing the restart) clear with time.
	s.mu.Lock()
	s.pendingRecovery = true
	s.retryRecoveryAt = time.Now().Add(s.cfg.BackoffMax)
	s.mu.Unlock()
	s.log.append(Event{Type: EventRecoveryFailed, Ckpt: cp.ID,
		Detail: fmt.Sprintf("%d attempts (new episode in %s): %v", s.cfg.MaxRestartRetries, s.cfg.BackoffMax, lastErr)})
	return lastErr
}

// kickRepair starts one background storage-repair pass (scrub +
// re-replication) if Config.Repair is set and none is already running. The
// storage MTTR — from this trigger to a clean scrub — is metered and
// evented.
func (s *Supervisor) kickRepair(ctx context.Context, reason string) {
	if s.cfg.Repair == nil {
		return
	}
	s.mu.Lock()
	if s.repairInFlight {
		// A pass is already surveying a membership that may predate this
		// failure: remember to run another one the moment it finishes.
		s.repairPending = true
		s.mu.Unlock()
		return
	}
	s.repairInFlight = true
	s.mu.Unlock()
	s.log.append(Event{Type: EventRepairStarted, Detail: reason})
	go func() {
		start := time.Now()
		rep, err := s.cfg.Repair.Repair(ctx)
		elapsed := time.Since(start)
		s.mu.Lock()
		s.repairInFlight = false
		pending := s.repairPending
		s.repairPending = false
		s.metrics.StorageRepairs++
		s.metrics.ReplicasRestored += rep.ReplicasRestored
		s.metrics.BytesRestored += rep.BytesRestored
		s.metrics.LastStorageMTTR = elapsed
		s.reg.Counter("supervisor_storage_repairs_total").Inc()
		s.reg.Counter("supervisor_replicas_restored_total").Add(uint64(rep.ReplicasRestored))
		s.reg.Counter("supervisor_bytes_restored_total").Add(rep.BytesRestored)
		s.reg.Histogram("supervisor_storage_mttr_ns").Observe(uint64(elapsed))
		s.mu.Unlock()
		switch {
		case err != nil:
			s.log.append(Event{Type: EventRepairFailed, Detail: err.Error()})
		case !rep.Post.Clean():
			s.log.append(Event{Type: EventRepairFailed,
				Detail: fmt.Sprintf("did not converge: %s", rep.Post)})
		default:
			s.log.append(Event{Type: EventRepairDone, MTTR: elapsed,
				Detail: fmt.Sprintf("restored %d replicas / %d bytes in %d passes",
					rep.ReplicasRestored, rep.BytesRestored, rep.Passes)})
		}
		if pending && ctx.Err() == nil {
			s.kickRepair(ctx, "failure confirmed during the previous repair pass")
		}
	}()
}

// sweepFailures pings every node of the deployment once and immediately
// fail-stops the unreachable ones — used between restart attempts, where a
// failure is already in progress and waiting out the full suspicion window
// would only stretch the MTTR.
func (s *Supervisor) sweepFailures(ctx context.Context, dep *cloud.Deployment) {
	seen := make(map[string]bool)
	for _, inst := range dep.Instances {
		node := inst.Node
		if seen[node.Name] || node.Failed() {
			continue
		}
		seen[node.Name] = true
		pctx, cancel := context.WithTimeout(ctx, s.cfg.PingTimeout)
		_, err := proxy.Ping(pctx, s.cl.Network(), node.ProxyAddr)
		cancel()
		if err == nil {
			continue
		}
		s.mu.Lock()
		s.metrics.FailuresDetected++
		s.det.forget(node.Name)
		s.mu.Unlock()
		s.reg.Counter("supervisor_failures_detected_total").Inc()
		s.log.append(Event{Type: EventFailureDetected, Node: node.Name, Detail: "died during recovery"})
		if ferr := s.cl.FailNode(ctx, node.Name); ferr != nil {
			s.log.append(Event{Type: EventFailureDetected, Node: node.Name, Detail: "fail-stop: " + ferr.Error()})
		}
		s.cl.KillDeploymentInstancesOn(dep)
	}
}
