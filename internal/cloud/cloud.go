// Package cloud models the IaaS middleware of Figure 1: compute nodes
// hosting VM instances, a checkpoint repository aggregated from the nodes'
// local disks (BlobSeer data providers co-located with compute nodes), a
// checkpointing proxy per node, multi-deployment of instances from a base
// image, checkpoint bookkeeping, fail-stop failure injection and restart.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/health"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

// Errors.
var (
	ErrNoHealthyNodes = errors.New("cloud: no healthy nodes available")
	ErrUnknownNode    = errors.New("cloud: unknown node")
	ErrNoSuchCkpt     = errors.New("cloud: unknown checkpoint")
	ErrIncompleteCkpt = errors.New("cloud: checkpoint does not cover all instances")
	// ErrNotDurable rejects rollback to a checkpoint whose member snapshots
	// have not all published — with asynchronous commits, the newest recorded
	// checkpoint may still be uploading, and restarting from it would pin the
	// job to a snapshot set that can never be completed.
	ErrNotDurable = errors.New("cloud: checkpoint not globally durable")
)

// Node is one compute node.
type Node struct {
	Name      string
	ProxyAddr string
	DataAddr  string // the co-located BlobSeer data provider
	// PartnerAddr is the neighbor proxy holding a replica of every capture
	// this node stages in its local tier (empty without multilevel
	// checkpointing or on single-node clouds).
	PartnerAddr string

	proxy  *proxy.Proxy
	srv    transport.Server // the proxy's listener, closed with the cloud
	stage  *localtier.Stage
	reg    *obs.Registry // the node's own registry (Config.Health), else nil
	failed atomic.Bool
}

// Stage returns the node's local write-back tier, if the cloud was built
// with LocalTier.
func (n *Node) Stage() *localtier.Stage { return n.stage }

// Registry returns the node's own metrics registry when the cloud was built
// with Config.Health, or nil when every node shares the cloud registry.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Failed reports whether the node has fail-stopped.
func (n *Node) Failed() bool { return n.failed.Load() }

// SnapshotRef names one VM's disk snapshot in the repository. It is an
// alias of blobseer.SnapshotRef — the one snapshot-identity type every
// layer shares.
type SnapshotRef = blobseer.SnapshotRef

// GlobalCheckpoint is a consistent set of per-instance snapshots.
//
// Durable reports whether every member's snapshot has published to the
// repository. With asynchronous commits a checkpoint is recorded the moment
// the coordinated capture line is established, while the uploads are still
// in flight; only once every member resolves does the checkpoint become a
// safe rollback target. The rollback planner (internal/supervisor) only ever
// picks durable checkpoints.
type GlobalCheckpoint struct {
	ID        int
	Snapshots map[string]SnapshotRef // VM id -> snapshot
	// LocallySafe reports the first watermark of multilevel checkpointing:
	// every member's capture is staged in its node's local tier and
	// replicated to the node's partner, so a single node loss cannot lose
	// it. A locally-safe checkpoint is NOT yet a rollback target — that
	// still requires Durable (every member's snapshot published to the
	// striped remote plane) — but the supervisor can promote it by draining
	// the members' tiers (or their partner replicas) on demand.
	LocallySafe bool
	Durable     bool
}

// Instance is one deployed VM with its node-side attachments.
type Instance struct {
	VMID   string
	Node   *Node
	VM     *vm.Instance
	Mirror *mirror.Module
	Proxy  *proxy.Client
}

// Deployment is one application's set of instances.
type Deployment struct {
	ID        string
	Base      SnapshotRef // the base image the deployment booted from
	Instances []*Instance

	mu          sync.Mutex
	checkpoints []GlobalCheckpoint
}

// Cloud is the middleware instance.
type Cloud struct {
	net         transport.FaultNetwork
	repo        *blobseer.Deployment
	replication int
	parallelism int
	obs         *obs.Registry

	localTier   bool
	stageStores blobseer.StoreFactory
	health      *health.Options // per-node observability (Config.Health), else nil

	mu      sync.Mutex
	nodes   []*Node
	rr      int // round-robin placement cursor
	rng     *rand.Rand
	nextDep int
}

// Config tunes a Cloud.
type Config struct {
	Nodes         int
	MetaProviders int
	Replication   int // chunk replica count for checkpoint data (default 1)
	Seed          int64
	// Parallelism bounds the concurrent per-provider streams every
	// repository client the cloud hands out runs during commits and
	// restores (blobseer.Client.Parallelism). Zero means the client
	// default; deployments striping checkpoints across many nodes set it
	// to at least Nodes.
	Parallelism int
	// Net overrides the cloud's network. It must support fail-stop
	// partitioning (FailNode injects failures through it); nil means a fresh
	// in-process network. The availability experiments pass a
	// latency-injecting wrapper so restarts cost real wall time.
	Net transport.FaultNetwork
	// Obs is the metrics registry the whole deployment records into: every
	// wire call (through a transport.Meter wrapped around Net), every
	// repository client the cloud hands out, and the per-node proxies all
	// share it, so one metrics scrape sees the full picture. Nil means
	// obs.Default.
	Obs *obs.Registry
	// Stores picks the chunk-store backend of each node's co-located data
	// provider (nil means in-memory). Durable deployments pass
	// blobseer.SeglogStores, whose group-commit spans then land in the
	// provider's flight recorder — the post-mortem record the supervisor
	// archives when a node dies.
	Stores blobseer.StoreFactory
	// LocalTier enables multilevel checkpointing: each node gets a local
	// write-back staging tier, captures are replicated to a partner proxy
	// (the next node in the ring), checkpoints acknowledge as locally safe
	// immediately, and a background drain publishes them into the striped
	// remote plane at its own pace.
	LocalTier bool
	// StageStores picks the chunk-store backend of each node's staging tier
	// (nil means in-memory; durable nodes pass blobseer.SeglogStores over a
	// node-local directory). Only used with LocalTier.
	StageStores blobseer.StoreFactory
	// Health switches the deployment to per-node observability, the shape a
	// federating supervisor (supervisor.Config.Health) expects: each node's
	// proxy — and its local tier and drain client — records into the node's
	// own registry with a metric history ring attached (history-get answers
	// per-node windowed rates), and every repository service deploys with its
	// own ringed registry too (blobseer.DeployObserved). Without it all nodes
	// share Obs, and a federated scrape would file identical copies of the
	// merged series under every node= label.
	Health *health.Options
}

// New builds a cloud: an in-process network, a BlobSeer deployment with one
// data provider per compute node, and one checkpointing proxy per node.
func New(cfg Config) (*Cloud, error) {
	if cfg.Nodes < 1 {
		return nil, errors.New("cloud: need at least one node")
	}
	if cfg.MetaProviders < 1 {
		cfg.MetaProviders = 1
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	var net transport.FaultNetwork = cfg.Net
	if net == nil {
		net = transport.NewInProc()
	}
	// Meter outermost: shaping wrappers underneath (Latency, Bandwidth) stay
	// visible in what it measures, and fault injection forwards through it.
	net = transport.WithMeter(net, reg)
	newStore := cfg.Stores
	if newStore == nil {
		newStore = blobseer.MemStores
	}
	var hopts *health.Options
	if cfg.Health != nil {
		o := cfg.Health.WithDefaults()
		hopts = &o
	}
	var repo *blobseer.Deployment
	var err error
	if hopts != nil {
		repo, err = blobseer.DeployObserved(net, cfg.MetaProviders, cfg.Nodes, newStore)
	} else {
		repo, err = blobseer.DeployWith(net, cfg.MetaProviders, cfg.Nodes, newStore)
	}
	if err != nil {
		return nil, err
	}
	if hopts != nil {
		for _, sreg := range repo.Registries {
			sreg.StartHistory(hopts.SampleEvery, hopts.HistoryCap)
		}
	}
	c := &Cloud{net: net, repo: repo, obs: reg, health: hopts, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i := 0; i < cfg.Nodes; i++ {
		p := proxy.New()
		nodeReg := reg
		if hopts != nil {
			nodeReg = obs.NewRegistry()
			nodeReg.StartHistory(hopts.SampleEvery, hopts.HistoryCap)
		}
		p.Obs = nodeReg
		srv, err := p.Serve(net, "")
		if err != nil {
			c.Close()
			return nil, err
		}
		node := &Node{
			Name:      fmt.Sprintf("node-%03d", i),
			ProxyAddr: srv.Addr(),
			DataAddr:  repo.DataAddrs[i],
			proxy:     p,
			srv:       srv,
		}
		if hopts != nil {
			node.reg = nodeReg
		}
		c.nodes = append(c.nodes, node)
	}
	c.replication = cfg.Replication
	c.parallelism = cfg.Parallelism
	if cfg.LocalTier {
		// Partner ring: node i replicates its staged captures to node i+1.
		// The ring needs every proxy address, so the tier is wired after all
		// nodes exist and before any instance registers.
		newStage := cfg.StageStores
		if newStage == nil {
			newStage = blobseer.MemStores
		}
		c.localTier = true
		c.stageStores = newStage
		for i, n := range c.nodes {
			store, err := newStage(i)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cloud: stage store %d: %w", i, err)
			}
			n.stage = localtier.New(store, c.nodeRegistry(n))
			if len(c.nodes) > 1 {
				n.PartnerAddr = c.nodes[(i+1)%len(c.nodes)].ProxyAddr
			}
			n.proxy.Stage = n.stage
			n.proxy.PartnerAddr = n.PartnerAddr
			n.proxy.Net = net
			n.proxy.Repo = c.nodeClient(n)
		}
	}
	return c, nil
}

// Client returns a repository client (replication and parallelism
// configured at New).
func (c *Cloud) Client() *blobseer.Client {
	cl := c.repo.Client()
	cl.Replication = c.replication
	cl.Parallelism = c.parallelism
	cl.Obs = c.obs
	return cl
}

// Registry returns the metrics registry the deployment records into — the
// one surface the metrics-get endpoints and -debug-addr listeners scrape.
func (c *Cloud) Registry() *obs.Registry { return c.obs }

// nodeRegistry returns the registry a node's own components (local tier,
// drain client) record into: the node's registry with Config.Health, the
// shared cloud registry otherwise.
func (c *Cloud) nodeRegistry(n *Node) *obs.Registry {
	if n.reg != nil {
		return n.reg
	}
	return c.obs
}

// nodeClient is Client with the node's own registry — the drain client's
// commit counters then count toward the node that drains, which is what the
// per-node commit-throughput view in blobcr-ctl top reads.
func (c *Cloud) nodeClient(n *Node) *blobseer.Client {
	cl := c.Client()
	cl.Obs = c.nodeRegistry(n)
	return cl
}

// Nodes returns the compute nodes.
func (c *Cloud) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Node(nil), c.nodes...)
}

// Network returns the cloud's network (examples wire extra services on it;
// the supervisor pings proxies and serves its event endpoint through it).
func (c *Cloud) Network() transport.FaultNetwork { return c.net }

// Repository exposes the BlobSeer deployment (space accounting, GC).
func (c *Cloud) Repository() *blobseer.Deployment { return c.repo }

// AddNode brings one more compute node into the cloud after deploy: a fresh
// checkpointing proxy plus a co-located data provider that JOINs the
// repository's placement rotation the moment it registers. This is the
// elasticity the self-healing storage plane leans on — spare storage
// capacity can be added while the deployment runs, and the repair plane
// (internal/repair) re-replicates onto it.
func (c *Cloud) AddNode(ctx context.Context) (*Node, error) {
	dataAddr, err := c.repo.AddDataProvider(ctx)
	if err != nil {
		return nil, err
	}
	p := proxy.New()
	p.Obs = c.obs
	var nodeReg *obs.Registry
	if c.health != nil {
		if sreg := c.repo.Registries[dataAddr]; sreg != nil {
			sreg.StartHistory(c.health.SampleEvery, c.health.HistoryCap)
		}
		nodeReg = obs.NewRegistry()
		nodeReg.StartHistory(c.health.SampleEvery, c.health.HistoryCap)
		p.Obs = nodeReg
	}
	srv, err := p.Serve(c.net, "")
	if err != nil {
		// The data provider already JOINed placement; take it back out so a
		// failed AddNode leaves no orphan in the rotation (its server is
		// torn down with the repository).
		c.Client().UnregisterProvider(ctx, dataAddr) //nolint:errcheck // best effort rollback
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	node := &Node{
		Name:      fmt.Sprintf("node-%03d", len(c.nodes)),
		ProxyAddr: srv.Addr(),
		DataAddr:  dataAddr,
		proxy:     p,
		srv:       srv,
		reg:       nodeReg,
	}
	if c.localTier {
		store, err := c.stageStores(len(c.nodes))
		if err != nil {
			srv.Close()                                  //nolint:errcheck // teardown
			c.Client().UnregisterProvider(ctx, dataAddr) //nolint:errcheck // best effort rollback
			return nil, fmt.Errorf("cloud: stage store: %w", err)
		}
		node.stage = localtier.New(store, c.nodeRegistry(node))
		// The newcomer replicates to the previous ring tail; existing links
		// stay as wired at deploy.
		if n := len(c.nodes); n > 0 {
			node.PartnerAddr = c.nodes[n-1].ProxyAddr
		}
		p.Stage = node.stage
		p.PartnerAddr = node.PartnerAddr
		p.Net = c.net
		p.Repo = c.nodeClient(node)
	}
	c.nodes = append(c.nodes, node)
	return node, nil
}

// UploadBaseImage stores a raw disk image in the repository and returns its
// blob id and version — the user's "put image" operation.
func (c *Cloud) UploadBaseImage(ctx context.Context, raw []byte, chunkSize uint64) (SnapshotRef, error) {
	cl := c.Client()
	blob, err := cl.CreateBlob(ctx, chunkSize)
	if err != nil {
		return SnapshotRef{}, err
	}
	info, err := cl.WriteAt(ctx, blob, 0, raw)
	if err != nil {
		return SnapshotRef{}, err
	}
	return SnapshotRef{Blob: blob, Version: info.Version}, nil
}

// healthyNodesLocked returns non-failed nodes.
func (c *Cloud) healthyNodesLocked() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if !n.Failed() {
			out = append(out, n)
		}
	}
	return out
}

// placeLocked picks the next healthy node round-robin, preferring nodes not
// in the avoid set.
func (c *Cloud) placeLocked(avoid map[string]bool) (*Node, error) {
	healthy := c.healthyNodesLocked()
	if len(healthy) == 0 {
		return nil, ErrNoHealthyNodes
	}
	for i := 0; i < len(healthy); i++ {
		n := healthy[(c.rr+i)%len(healthy)]
		if !avoid[n.Name] {
			c.rr = (c.rr + i + 1) % len(healthy)
			return n, nil
		}
	}
	// All healthy nodes are in the avoid set; fall back to any.
	n := healthy[c.rr%len(healthy)]
	c.rr = (c.rr + 1) % len(healthy)
	return n, nil
}

// tokenLocked mints a per-VM authentication token. Caller holds c.mu (the
// rng is guarded by it).
func (c *Cloud) tokenLocked() string {
	return fmt.Sprintf("tok-%08x", c.rng.Uint32())
}

// placement is one planned instance deployment: the bookkeeping decided
// under c.mu, executed (network I/O: attach, boot, register) outside it.
type placement struct {
	node  *Node
	token string
}

// deployOne attaches, boots and registers one instance from a snapshot on
// the planned node. It performs network I/O and must not be called holding
// c.mu — placement and token assignment happen under the lock beforehand.
func (c *Cloud) deployOne(ctx context.Context, vmID string, pl placement, ref SnapshotRef, vmCfg vm.Config, resumeCkpt bool) (*Instance, error) {
	// The mirror's repository client is the one the normal async drain
	// commits through, so it carries the node's registry: the commit
	// counters then count toward the node that drains them.
	cl := c.nodeClient(pl.node)
	var mod *mirror.Module
	var err error
	if resumeCkpt {
		mod, err = mirror.AttachCheckpoint(ctx, cl, ref)
	} else {
		mod, err = mirror.Attach(ctx, cl, ref)
	}
	if err != nil {
		return nil, err
	}
	inst := vm.New(vmID, mod, vmCfg)
	if err := inst.Boot(); err != nil {
		return nil, err
	}
	pl.node.proxy.Register(vmID, pl.token, inst, mod)
	return &Instance{
		VMID:   vmID,
		Node:   pl.node,
		VM:     inst,
		Mirror: mod,
		Proxy:  &proxy.Client{Net: c.net, Addr: pl.node.ProxyAddr, VMID: vmID, Token: pl.token},
	}, nil
}

// plan picks nodes and tokens for n instances under the lock, preferring
// nodes not in the avoid set.
func (c *Cloud) plan(n int, avoid map[string]bool) ([]placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]placement, 0, n)
	for i := 0; i < n; i++ {
		node, err := c.placeLocked(avoid)
		if err != nil {
			return nil, err
		}
		out = append(out, placement{node: node, token: c.tokenLocked()})
	}
	return out, nil
}

// Deploy boots n instances from the same base image (multi-deployment),
// placing them round-robin across healthy nodes. The lock covers only the
// placement bookkeeping; the per-instance attach/boot network I/O runs
// outside it.
func (c *Cloud) Deploy(ctx context.Context, n int, base SnapshotRef, vmCfg vm.Config) (*Deployment, error) {
	c.mu.Lock()
	c.nextDep++
	id := fmt.Sprintf("dep-%d", c.nextDep)
	c.mu.Unlock()
	plans, err := c.plan(n, nil)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{ID: id, Base: base}
	for i := 0; i < n; i++ {
		vmID := fmt.Sprintf("%s-vm-%03d", dep.ID, i)
		inst, err := c.deployOne(ctx, vmID, plans[i], base, vmCfg, false)
		if err != nil {
			return nil, fmt.Errorf("cloud: deploy %s: %w", vmID, err)
		}
		dep.Instances = append(dep.Instances, inst)
	}
	return dep, nil
}

// RecordCheckpoint stores the mapping between a completed global checkpoint
// and the per-instance snapshots, as the middleware in Section 3.2 does. It
// fails if the snapshot set does not cover every instance (an incomplete
// checkpoint cannot be rolled back to). The snapshots are published refs —
// callers resolve their commit handles first — so the checkpoint is durable
// from the start.
func (c *Cloud) RecordCheckpoint(dep *Deployment, snaps map[string]SnapshotRef) (int, error) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for _, inst := range dep.Instances {
		if _, ok := snaps[inst.VMID]; !ok {
			return 0, fmt.Errorf("%w: missing %s", ErrIncompleteCkpt, inst.VMID)
		}
	}
	id := len(dep.checkpoints) + 1
	cp := GlobalCheckpoint{ID: id, Snapshots: make(map[string]SnapshotRef, len(snaps)), LocallySafe: true, Durable: true}
	for k, v := range snaps {
		cp.Snapshots[k] = v
	}
	dep.checkpoints = append(dep.checkpoints, cp)
	return id, nil
}

// RecordPendingCheckpoint registers a provisional global checkpoint whose
// member snapshots are still publishing: the coordinated capture line is
// established but the async commits are in flight. ResolveSnapshot fills in
// each member's ref as its commit publishes, and MarkDurable promotes the
// checkpoint to a rollback target once all have. Until then the checkpoint
// is visible in the history but Restart refuses it.
func (c *Cloud) RecordPendingCheckpoint(dep *Deployment) int {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	id := len(dep.checkpoints) + 1
	dep.checkpoints = append(dep.checkpoints, GlobalCheckpoint{
		ID:        id,
		Snapshots: make(map[string]SnapshotRef, len(dep.Instances)),
	})
	return id
}

// findLocked returns the checkpoint record with the given id. Caller holds
// dep.mu.
func (dep *Deployment) findLocked(ckptID int) *GlobalCheckpoint {
	for i := range dep.checkpoints {
		if dep.checkpoints[i].ID == ckptID {
			return &dep.checkpoints[i]
		}
	}
	return nil
}

// clone deep-copies the record. Every checkpoint that escapes dep.mu must
// be a clone: ResolveSnapshot keeps mutating the live Snapshots map while
// a provisional checkpoint's commits publish, and a shared map would race
// readers (and leak across the Deployments a restart creates).
func (cp GlobalCheckpoint) clone() GlobalCheckpoint {
	out := cp
	out.Snapshots = make(map[string]SnapshotRef, len(cp.Snapshots))
	for k, v := range cp.Snapshots {
		out.Snapshots[k] = v
	}
	return out
}

// ResolveSnapshot records that vmID's snapshot for the provisional
// checkpoint has published.
func (dep *Deployment) ResolveSnapshot(ckptID int, vmID string, ref SnapshotRef) error {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	cp := dep.findLocked(ckptID)
	if cp == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchCkpt, ckptID)
	}
	cp.Snapshots[vmID] = ref
	return nil
}

// MarkDurable promotes a provisional checkpoint to a rollback target. It
// fails if any current member's snapshot is still unresolved.
func (dep *Deployment) MarkDurable(ckptID int) error {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	cp := dep.findLocked(ckptID)
	if cp == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchCkpt, ckptID)
	}
	for _, inst := range dep.Instances {
		if _, ok := cp.Snapshots[inst.VMID]; !ok {
			return fmt.Errorf("%w: missing %s", ErrIncompleteCkpt, inst.VMID)
		}
	}
	cp.LocallySafe = true // durability subsumes local safety
	cp.Durable = true
	return nil
}

// MarkLocallySafe records that every member's capture for the provisional
// checkpoint reached its node's local tier and partner replica — the first
// watermark. The member snapshots may still be unresolved (they publish
// during the drain).
func (dep *Deployment) MarkLocallySafe(ckptID int) error {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	cp := dep.findLocked(ckptID)
	if cp == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchCkpt, ckptID)
	}
	cp.LocallySafe = true
	return nil
}

// LocalWatermark returns the id of the newest locally-safe checkpoint, or 0.
// Durable checkpoints count: durability subsumes local safety.
func (dep *Deployment) LocalWatermark() int {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for i := len(dep.checkpoints) - 1; i >= 0; i-- {
		if dep.checkpoints[i].LocallySafe || dep.checkpoints[i].Durable {
			return dep.checkpoints[i].ID
		}
	}
	return 0
}

// LatestLocallySafeCheckpoint returns the most recent checkpoint that is at
// least locally safe.
func (dep *Deployment) LatestLocallySafeCheckpoint() (GlobalCheckpoint, bool) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for i := len(dep.checkpoints) - 1; i >= 0; i-- {
		if dep.checkpoints[i].LocallySafe || dep.checkpoints[i].Durable {
			return dep.checkpoints[i].clone(), true
		}
	}
	return GlobalCheckpoint{}, false
}

// Checkpoints returns deep copies of the recorded global checkpoints,
// oldest first.
func (dep *Deployment) Checkpoints() []GlobalCheckpoint {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	out := make([]GlobalCheckpoint, len(dep.checkpoints))
	for i, cp := range dep.checkpoints {
		out[i] = cp.clone()
	}
	return out
}

// LatestCheckpoint returns the most recent recorded global checkpoint,
// durable or not.
func (dep *Deployment) LatestCheckpoint() (GlobalCheckpoint, bool) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if len(dep.checkpoints) == 0 {
		return GlobalCheckpoint{}, false
	}
	return dep.checkpoints[len(dep.checkpoints)-1].clone(), true
}

// LatestDurableCheckpoint returns the most recent checkpoint whose every
// member snapshot has published — the durability watermark, and the only
// safe rollback target while commits are in flight.
func (dep *Deployment) LatestDurableCheckpoint() (GlobalCheckpoint, bool) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for i := len(dep.checkpoints) - 1; i >= 0; i-- {
		if dep.checkpoints[i].Durable {
			return dep.checkpoints[i].clone(), true
		}
	}
	return GlobalCheckpoint{}, false
}

// DurableWatermark returns the id of the newest durable checkpoint, or 0.
// It is cheap — no snapshot-map copy — because pollers sit on it.
func (dep *Deployment) DurableWatermark() int {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for i := len(dep.checkpoints) - 1; i >= 0; i-- {
		if dep.checkpoints[i].Durable {
			return dep.checkpoints[i].ID
		}
	}
	return 0
}

// FailNode fail-stops a node: all hosted instances die and the co-located
// data provider becomes unreachable (its locally stored chunk replicas are
// lost to the deployment).
func (c *Cloud) FailNode(ctx context.Context, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.Name != name {
			continue
		}
		n.failed.Store(true)
		c.net.Partition(n.ProxyAddr)
		c.net.Partition(n.DataAddr)
		// Take the dead data provider out of the placement rotation so
		// future commits go to live providers only.
		if err := c.Client().UnregisterProvider(ctx, n.DataAddr); err != nil {
			return fmt.Errorf("cloud: deregister failed provider: %w", err)
		}
		return nil
	}
	return fmt.Errorf("%w: %s", ErrUnknownNode, name)
}

// KillDeploymentInstancesOn kills the instances of dep hosted on failed
// nodes (the middleware notices the fail-stop).
func (c *Cloud) KillDeploymentInstancesOn(dep *Deployment) []string {
	var dead []string
	for _, inst := range dep.Instances {
		if inst.Node.Failed() && inst.VM.State() != vm.Stopped {
			inst.VM.Kill()
			// Abort the dead node's in-flight commits through the repository
			// abort path so CAS refcounts balance; captures already staged in
			// its local tier stay put — the partner replica drains them.
			inst.Mirror.Halt()
			dead = append(dead, inst.VMID)
		}
	}
	return dead
}

// rollbackTarget returns the checkpoint to roll back to, requiring it to be
// globally durable.
func (dep *Deployment) rollbackTarget(ckptID int) (GlobalCheckpoint, error) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	cp := dep.findLocked(ckptID)
	if cp == nil {
		return GlobalCheckpoint{}, fmt.Errorf("%w: %d", ErrNoSuchCkpt, ckptID)
	}
	if !cp.Durable {
		return GlobalCheckpoint{}, fmt.Errorf("%w: %d", ErrNotDurable, ckptID)
	}
	return cp.clone(), nil
}

// Restart re-deploys every instance of dep from the given recorded global
// checkpoint, each on a healthy node different from where it previously ran
// (the paper redeploys on different nodes to avoid cache effects; here it
// also sidesteps failed nodes). The checkpoint must be globally durable —
// with async commits, a newer recorded checkpoint may still be publishing
// and is refused with ErrNotDurable. The old instances are discarded. The
// returned deployment reuses the same checkpoint history.
//
// c.mu covers only the placement bookkeeping: the per-instance teardown and
// redeploy network I/O runs outside it, so a slow redeploy cannot stall
// unrelated cloud operations.
func (c *Cloud) Restart(ctx context.Context, dep *Deployment, ckptID int) (*Deployment, error) {
	target, err := dep.rollbackTarget(ckptID)
	if err != nil {
		return nil, err
	}

	// Placement bookkeeping under the lock; everything else outside it.
	c.mu.Lock()
	plans := make([]placement, 0, len(dep.Instances))
	for _, old := range dep.Instances {
		node, err := c.placeLocked(map[string]bool{old.Node.Name: true})
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		plans = append(plans, placement{node: node, token: c.tokenLocked()})
	}
	c.mu.Unlock()

	newDep := &Deployment{
		ID:          dep.ID,
		Base:        dep.Base,
		checkpoints: dep.Checkpoints(),
	}
	for i, old := range dep.Instances {
		// Tear down the previous incarnation.
		old.VM.Kill()
		old.Node.proxy.Unregister(old.VMID)

		inst, err := c.deployOne(ctx, old.VMID, plans[i], target.Snapshots[old.VMID], vm.Config{BlockSize: 512}, true)
		if err != nil {
			// Unwind this attempt's instances: a retry redeploys every
			// member from scratch, and abandoned VMs must not linger booted
			// and registered on their nodes.
			teardown(newDep.Instances)
			return nil, fmt.Errorf("cloud: restart %s: %w", old.VMID, err)
		}
		newDep.Instances = append(newDep.Instances, inst)
	}
	return newDep, nil
}

// teardown kills and unregisters instances a failed restart attempt had
// already deployed.
func teardown(instances []*Instance) {
	for _, inst := range instances {
		inst.VM.Kill()
		inst.Node.proxy.Unregister(inst.VMID)
	}
}

// inPlaceDrainTimeout bounds how long PartialRestart waits for a healthy
// member's in-flight commits before giving up on the in-place rollback and
// re-deploying it like a failed member.
const inPlaceDrainTimeout = 5 * time.Second

// RestartStats reports how a PartialRestart recovered each member.
type RestartStats struct {
	Redeployed int // members re-deployed from their snapshots on other nodes
	InPlace    int // members rolled back in place (warm local cache kept)
}

// PartialRestart rolls dep back to the given durable checkpoint, but unlike
// Restart it tears down only the members that actually died: instances on
// failed nodes are re-deployed from their snapshots on healthy spare nodes,
// while instances on healthy nodes roll back in place — the VM restarts on
// its own node from its mirror module reverted to the snapshot
// (mirror.RollbackTo), keeping the module's warm local cache instead of
// re-fetching the image over the network. For single-node failures this
// makes time-to-resume proportional to the failed fraction of the
// deployment, not its size.
//
// A healthy member whose commit pipeline will not drain within
// inPlaceDrainTimeout (e.g. an upload wedged on a dead provider) falls back
// to the re-deploy path.
func (c *Cloud) PartialRestart(ctx context.Context, dep *Deployment, ckptID int) (*Deployment, RestartStats, error) {
	var stats RestartStats
	target, err := dep.rollbackTarget(ckptID)
	if err != nil {
		return nil, stats, err
	}

	// Placement bookkeeping under the lock: failed members get a healthy
	// node (sparing their old one); healthy members get no plan — they stay.
	c.mu.Lock()
	plans := make([]*placement, len(dep.Instances))
	for i, old := range dep.Instances {
		if !old.Node.Failed() {
			continue
		}
		node, err := c.placeLocked(map[string]bool{old.Node.Name: true})
		if err != nil {
			c.mu.Unlock()
			return nil, stats, err
		}
		plans[i] = &placement{node: node, token: c.tokenLocked()}
	}
	c.mu.Unlock()

	newDep := &Deployment{
		ID:          dep.ID,
		Base:        dep.Base,
		checkpoints: dep.Checkpoints(),
	}
	// Redeployed (not in-place) members of this attempt, torn down on
	// failure: an in-place member stays a valid instance of the old
	// deployment, but an abandoned redeploy would linger booted and
	// registered on its node.
	var redeployed []*Instance
	for i, old := range dep.Instances {
		ref := target.Snapshots[old.VMID]
		if plans[i] == nil {
			if err := c.rollbackInPlace(ctx, old, ref); err == nil {
				stats.InPlace++
				newDep.Instances = append(newDep.Instances, old)
				continue
			}
			// In-place rollback did not work (commits wedged in flight, or
			// the reboot failed): fall back to a re-deploy like a dead
			// member.
			pl, perr := c.plan(1, map[string]bool{old.Node.Name: true})
			if perr != nil {
				teardown(redeployed)
				return nil, stats, perr
			}
			plans[i] = &pl[0]
		}
		old.VM.Kill()
		old.Node.proxy.Unregister(old.VMID)
		inst, err := c.deployOne(ctx, old.VMID, *plans[i], ref, vm.Config{BlockSize: 512}, true)
		if err != nil {
			teardown(redeployed)
			return nil, stats, fmt.Errorf("cloud: partial restart %s: %w", old.VMID, err)
		}
		stats.Redeployed++
		redeployed = append(redeployed, inst)
		newDep.Instances = append(newDep.Instances, inst)
	}
	return newDep, stats, nil
}

// rollbackInPlace reverts one healthy member to the snapshot without
// re-deploying it: kill the VM (its volatile state is post-checkpoint), roll
// the mirror module back, reboot. The proxy registration, token and node
// stay as they are.
func (c *Cloud) rollbackInPlace(ctx context.Context, inst *Instance, ref SnapshotRef) error {
	drainCtx, cancel := context.WithTimeout(ctx, inPlaceDrainTimeout)
	defer cancel()
	if err := inst.Mirror.DrainNow(drainCtx); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("cloud: %s: %w", inst.VMID, mirror.ErrCommitsInFlight)
	}
	inst.VM.Kill()
	if err := inst.Mirror.RollbackTo(ctx, ref); err != nil {
		return err
	}
	return inst.VM.Boot()
}

// Prune retires all snapshot versions older than the given recorded global
// checkpoint and garbage-collects the repository — the paper's future-work
// extension, kept as a middleware operation because only the middleware
// knows which snapshots checkpoints still reference. DeletedChunks counts
// both collectors: the bodies Retire released by reference count and the
// orphans the sweep found.
func (c *Cloud) Prune(ctx context.Context, dep *Deployment, keepFromCkptID int) (blobseer.GCStats, error) {
	dep.mu.Lock()
	var keep *GlobalCheckpoint
	if cp := dep.findLocked(keepFromCkptID); cp != nil {
		c := cp.clone()
		keep = &c
	}
	dep.mu.Unlock()
	if keep == nil {
		return blobseer.GCStats{}, fmt.Errorf("%w: %d", ErrNoSuchCkpt, keepFromCkptID)
	}
	cl := c.Client()
	released := 0
	for _, ref := range keep.Snapshots {
		rs, err := cl.RetireStats(ctx, ref.Blob, ref.Version)
		if err != nil {
			return blobseer.GCStats{}, err
		}
		released += rs.ReclaimedChunks
	}
	// Sweep the repository's *current* live membership, not the deploy-time
	// node snapshot: providers that JOINed after deploy are swept too, and
	// decommissioned or fail-stopped ones (removed from the membership by
	// RetireProvider / FailNode) are skipped. Draining providers still hold
	// live chunks mid-drain and stay in the sweep.
	m, err := cl.Membership(ctx)
	if err != nil {
		return blobseer.GCStats{}, err
	}
	stats, err := cl.GC(ctx, m.Addrs())
	stats.DeletedChunks += released
	return stats, err
}

// Close shuts the cloud down: the per-node proxy listeners (a proxy left
// listening would pin its last instance's whole mirror cache), the local
// tiers, the history rings and the repository. Closing twice is harmless.
func (c *Cloud) Close() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.srv.Close() //nolint:errcheck // teardown
		if n.stage != nil {
			n.stage.Close() //nolint:errcheck // teardown
		}
		if n.reg != nil {
			if h := n.reg.History(); h != nil {
				h.Close()
			}
		}
	}
	for _, sreg := range c.repo.Registries {
		if h := sreg.History(); h != nil {
			h.Close()
		}
	}
	c.repo.Close()
}
