// Package blobcr is a reproduction of "BlobCR: Efficient Checkpoint-Restart
// for HPC Applications on IaaS Clouds using Virtual Disk Image Snapshots"
// (Nicolae & Cappello, SC'11).
//
// The implementation lives under internal/: the BlobSeer versioning store,
// the mirroring module, the qcow2 and PVFS baselines, the guest file
// system, the MPI runtime with coordinated checkpointing, the IaaS
// middleware, the BlobCR framework itself (internal/core), and the
// evaluation harness (internal/bench), which measures the paper's figures
// on that stack. Executables are under cmd/ and runnable examples under
// examples/. See README.md for a tour and EXPERIMENTS.md for the
// reproduced evaluation.
//
// Beyond the paper, the repository is a content-addressed deduplicated
// chunk store (internal/cas) — the one write path: committed chunks are
// fingerprinted with SHA-256, placed by rendezvous hash of their content,
// and stored once no matter how many snapshots — across checkpoints and
// across VMs — reference them; a "have fingerprint?" round trip keeps
// duplicate bodies off the network entirely. The commit path's layers meet
// in batches: the client fingerprints the dirty set on every core (an
// all-zero body from a memo; a body byte-equal to one the mirroring
// module's previous commit hashed takes that fingerprint from the module's
// cas.Memo instead of a second SHA-256), a provider verifies a put frame's bodies in
// parallel and hands its engine the ones it lacks as one batch
// (cas.PutContentBatch over chunkstore.PutBatch), and a retire's releases
// reach each provider as one cas-release-batch frame. Retiring old
// snapshots then reclaims space by decrementing per-chunk reference counts
// in O(retired chunks) and O(providers) calls, realizing the paper's proposed transparent snapshot garbage
// collection (future work, Section 6) in incremental form; the
// mark-and-sweep collector remains as the exhaustive fallback.
//
// # Autonomous checkpoint-restart supervisor
//
// internal/supervisor closes the checkpoint-restart control loop: a
// heartbeat failure detector over the proxies' PING verb, periodic global
// checkpoints on the Young/Daly interval computed from the observed
// checkpoint cost and a configured MTBF (ckptinterval.Optimal),
// rollback planning restricted to the newest globally durable checkpoint
// (cloud.Deployment's durability watermark — with asynchronous commits the
// newest recorded checkpoint may still be publishing and is refused with
// cloud.ErrNotDurable), and self-healing restarts with bounded retries,
// exponential backoff and spare-node placement. Partial restart
// (cloud.PartialRestart, core.Job.RestartPartial) redeploys only the
// members that died while healthy members roll back in place
// (mirror.RollbackTo), and commits fail over to live providers when a data
// provider dies mid-commit. The supervisor's structured event stream (MTTR
// and lost-work accounting included) is served over the transport for
// blobcr-ctl events/status; blobcr-ctl supervise demonstrates the loop and
// blobcr-bench -only availability measures it.
//
// # Elastic self-healing storage plane
//
// internal/repair keeps the repository durable while data providers come
// and go, the way the supervisor keeps the deployment available while
// compute nodes fail. The provider membership is dynamic: providers JOIN
// at runtime (blobseer.Client.RegisterProvider, cloud.AddNode) and become
// placement-eligible immediately, and DECOMMISSION is two-phase —
// DrainProvider parks a provider out of placement while it keeps serving
// reads, and RetireProvider removes it once the repair plane has re-placed
// its replicas; every transition bumps a membership epoch. An anti-entropy
// scrubber (repair.Repairer.Scrub) walks the metadata trees of all live
// versions and re-verifies every replica's SHA-256 against its content key
// in batched per-provider streams; the read path performs the same check
// inline, failing a corrupt replica over like a missing one
// (blobseer.ReadStats counts both). Background re-replication
// (Repairer.Repair) restores under-replicated chunks onto the
// rendezvous-ranked active providers — the same ranking the write path
// places by and readers fall back to when a leaf's recorded replicas are
// all gone — with exact CAS reference accounting: the version manager's
// write-event references are relocated (blobseer.Client.RelocateWrites,
// precount / pre-install / apply / settle), so Retire releases precisely
// at the new homes even when repair races in-flight commits. Supervisors
// trigger repairs automatically on confirmed failures
// (supervisor.Config.Repair); blobcr-ctl providers/scrub/repair/
// decommission drive the plane by hand, and blobcr-bench -only repair
// measures storage MTTR and re-replication throughput vs provider count.
//
// # Durable log-structured storage engine
//
// internal/seglog gives the data providers a disk engine built for
// checkpoint commit storms: chunks are appended to segment files as
// CRC32C-checksummed self-delimiting records. A put frame, a staged
// capture or a retire's tombstones board the log as one unit (PutBatch /
// DeleteBatch, the optional chunkstore.BatchPutter): records encoded on
// parallel workers, then one append and one fdatasync for all of them;
// concurrent callers ride a shared group commit, so the fsync count is at
// most the number of frames. The engine elides all-zero chunks (sparse VM images) to a header flag and
// DEFLATE-compresses payloads when an entropy probe says it will pay,
// rebuilds its in-memory index on open by scanning the segments —
// truncating a torn tail from a crash mid-append at the first bad CRC —
// and compacts segments whose live ratio decays as snapshots retire,
// folded into the repair scrubber's cadence. blobseerd -dir puts a data
// provider on it (without -dir the provider keeps chunks in memory);
// blobcr-ctl store <addr> prints the engine's counters over the wire, and
// the benchmark/ harness measures it on a real disk (probe.seglog.*).
//
// # Multilevel checkpointing: node-local fast tier
//
// internal/localtier adds the write-back tier in front of the striped
// remote commit. With cloud.Config.LocalTier (or blobcr-proxyd
// -stage-dir <dir> -partner <addr>), each proxy stages every
// capture into a node-local chunkstore-backed staging store — one batch,
// one sync, written outside the stage's lock — and pushes a
// replica to one partner proxy over binary stage frames, then acks the
// checkpoint as locally safe (proxy WAITLOCAL; mirror.PendingCommit.
// WaitLocallySafe) and releases the commit pipeline's admission slot — the
// suspend window of a checkpoint burst runs at local pace even when the
// remote plane is bandwidth-starved. A background drainer then publishes
// staged captures through the dedup/CAS commit path at remote-plane pace,
// advancing the checkpoint to globally durable (the only state rollback
// targets). The two watermarks thread through the stack:
// cloud.Deployment.MarkLocallySafe/MarkDurable and LocalWatermark/
// DurableWatermark, the proxy's STATUS staged backlog, and the
// supervisor's STATUS local-watermark and per-node backlog fields. A
// single node loss never loses a locally-safe checkpoint: the supervisor
// asks the dead node's partner to publish the replica on its behalf
// (DRAINFOR) and promotes the checkpoint before planning the rollback; a
// healthy node whose VM died drains its own tier the same way. On tiered
// deployments the supervisor keys its Young/Daly cadence to the local
// checkpoint cost, so checkpoints run at the tier's (cheap) price.
// DRAIN-NOW (blobcr-ctl preempt) is the spot-preemption path: flush a
// node's staged backlog inside the grace window. blobcr-bench -only
// localtier shows the suspend window decoupled from remote bandwidth, and
// -only preemption the work saved by a grace-window flush.
//
// # Parallel striped I/O engine
//
// The whole data path — commit upload, dedup probing, restore reads, and
// metadata-tree traffic — moves whole per-provider sets per round trip and
// runs the per-provider streams concurrently. The wire protocol's batch
// verbs (opCasRefBatch/PutBatch, opChunkGetBatch, opNodePutBatch/GetBatch;
// see internal/blobseer's package comment) carry many items per frame, so a
// commit issues one "have these fingerprints?" round trip per provider
// instead of one per chunk, a Publish flushes its whole metadata-node set in one frame per shard, and a
// restore's lookup descends the tree level by level in O(depth) round trips.
// The tree (internal/meta) is 16 ways wide with the chunk descriptors
// inside its bottom nodes, so depth is ⌈log₁₆ span⌉ — four levels for
// 16 384 chunks — and a scattered 128-chunk commit writes ~175 nodes.
// blobseer.Client.Parallelism bounds the concurrent per-provider streams
// (default blobseer.DefaultParallelism, currently 8; deployments striping
// wider set it to at least their provider count — cloud.Config.Parallelism
// and the -parallel flags of blobcr-ctl and blobcr-proxyd thread it
// through). Replica reads rotate their starting replica by chunk key,
// spreading restore load across the replica set while keeping in-order
// failover. TestStripedStreamsRunConcurrently holds every provider's
// stream in flight at once; the benchmark/ harness measures the MB/s.
//
// Bulk frames have owners. A frame that lives for one exchange comes from
// the wire frame pool (wire.GetFrame, one sync.Pool per size class) and
// goes back to it: the client builds each cas-put-batch frame in a pooled
// buffer and hands it back once Call returns (a Network keeps no reference
// to a request after that); the TCP server reads every request into a
// pooled frame and, once the reply is on the wire, hands back the request
// of a handler that called transport.ReleaseRequest and the reply buffer it
// registered with transport.RecycleReply. The data provider does both: its
// chunk-get-batch reply is built in a pooled frame, and its cas-put-batch
// request is released once the CAS index and the engine have copied the
// bodies (chunkstore engines keep no reference to what they are handed).
// The client's chunk-get-batch reply frames are never pooled: the mirror
// keeps windows of them as chunk memory. InProc recycles nothing, since
// there the handler's request and reply are the caller's own memory.
//
// # Adaptive prefetching on restart
//
// A restart is lazy (the paper's Fig. 3): the mirroring module fetches a
// chunk when the guest first needs it. Each module keeps a demand record —
// the chunks its guest needed from the repository, in first-need order,
// capped at 32 MiB of chunks; whole-chunk overwrites and explicitly
// prefetched chunks never enter it — and a publisher off the guest's I/O
// path puts it to the version manager (hint-put) as the image's boot-set
// hint whenever it holds a chunk the replayed hint lacked. The version
// manager keeps one capped record per blob, on the heap: it is advisory,
// and losing it costs one cold restart. mirror.Attach and AttachCheckpoint
// fetch the hint (hint-get) and replay it with one Prefetch — one ranged
// lookup, one read-engine call — before they return, so the next restart
// of the image (cloud.Restart, PartialRestart, core, blobcr-proxyd) reads
// its boot set without one demand fault per chunk and no caller passes a
// chunk list.
// The hint names indices only; every byte still comes from the attached
// snapshot through the SHA-256-verifying read engine, which fetches each
// distinct content key of a call once (the other indices naming it receive
// copies) and serves a leaf naming the all-zero body as a hole, unfetched.
//
// # End-to-end telemetry plane
//
// internal/obs gives every layer one dependency-free metrics registry —
// atomic counters, gauges and log2-bucketed histograms keyed by
// name+labels — plus span tracing for the commit pipeline: each
// asynchronous commit emits six ordered spans (commit/capture under the
// suspend window — a hand-off of the dirty buffers, about zero — then
// commit/probe, commit/hash, commit/upload, commit/publish, commit/durable
// in the background), carried on the context.Context and
// recorded both per-request (obs.Trace) and as span_ns histograms.
// transport.Meter wraps any Network and records per-verb calls, bytes and
// latency (plus a per-address breakdown), tagging RemoteError values with
// the originating verb; the blobseer client counts dedup hit bytes, batch
// frames and failovers; the proxy records the suspend window; the
// supervisor its heartbeat RTTs, MTTR and dropped events (its event log is
// a fixed-capacity ring); the repair plane its scrub findings and restored
// bytes. Every wire endpoint — the proxy, the supervisor and the four
// BlobSeer services — answers the metrics-get op with versioned
// Prometheus text that obs.ParseProm reads back;
// blobcr-ctl metrics renders the operator view (per-stage suspend-window
// breakdown, per-provider latency, dedup hit-rate; -watch redraws live),
// and blobcr-proxyd/blobseerd -debug-addr serve HTTP /metrics,
// /debug/pprof and /debug/vars. internal/proxy's tests scrape the proxy
// after an async checkpoint and fail when stage telemetry goes missing.
//
// Tracing crosses process boundaries: under an active trace
// (obs.BeginTrace) the transport injects a trace-context header into every
// frame — batch verbs and the detached context.WithoutCancel commit path
// included — and re-establishes the span context server-side, so handler
// spans parent under the caller's RPC spans across the wire. Each service
// holds its spans in a bounded per-trace store behind the tokenless
// trace-get op; blobcr-ctl trace collects the fragments,
// anchors remote clocks inside their parent RPC windows, and prints one
// cross-process tree plus its critical path — at every instant, the span
// actually bounding completion (obs.AssembleTrace, obs.CriticalPath;
// internal/blobseer's TestCriticalPathExplainsCommit asserts the path
// attributes >= 90% of a 16 MiB commit's wall time at 8 providers). Independently of traces,
// every process keeps an always-on flight recorder — a fixed-capacity
// overwrite-oldest ring of its most recent spans — dumped by the
// flight-get op and blobcr-ctl flight; the supervisor mirrors each node's
// ring during heartbeat rounds and archives the last mirror as a FINAL
// post-mortem when its failure detector confirms a death (the supervisor's
// FLIGHT op, supervisor.Flight), so a dead provider's final group commits
// remain readable after the process is gone. The five introspection ops
// (trace-get, flight-get, history-get, metrics-get, health-get, bytes
// 0xE0–0xE4) are mounted once per endpoint by transport.Introspect and
// fetched by one client (transport.Metrics, Trace, Flight, History,
// Health); oversized expositions continue in chunks that transport.Metrics
// reassembles, refusing a continuation that does not advance.
//
// The whole plane speaks one wire dialect: a request is an op byte followed
// by wire-encoded fields, and every op byte is named once in the
// transport's registry (transport.RegisterOps) — BlobSeer's below 0x80, the
// supervisor's 0xB0–0xB2, the proxy's 0xC0–0xC9 and its stage frames
// 0xD0–0xD1, introspection 0xE0–0xE4, transport markers from 0xF0. A byte
// registered twice panics at start-up, an endpoint refuses an op it does
// not own before decoding anything after it, and a refused request is a
// handler error — on TCP the response's status byte — so callers see a
// *transport.RemoteError and transport.Meter counts it under
// transport_errors_total for its verb.
//
// # Cluster health plane
//
// internal/health turns the per-process telemetry into one cluster
// verdict. Any registry can keep a metric history ring
// (obs.Registry.StartHistory): a bounded ring of delta-encoded snapshots
// whose evicted samples fold into their successor, so a windowed
// reduction (obs.History.Window — counter deltas and rates, gauge
// first/last/min/max, histogram count/mean/p50/p99) stays exact across
// wrap. Rings answer the history-get op beside metrics-get on every
// endpoint (blobcr-proxyd/blobseerd -history set the sample period), and
// blobcr-ctl metrics -watch reads the server's ring for exact windowed
// rates. Each supervisor health round federates the fleet
// (health.Federator): it scrapes every node's proxy and co-located data
// provider and imports the expositions into one cluster registry with
// every series relabelled node= (obs.Registry.Import), so a single scrape
// of the supervisor covers the fleet; federation_node_up tracks scrape
// health and a dead node's series hold their last-seen values. Over the
// federated history a declarative SLO engine (health.Engine, health.Rule)
// evaluates windowed signals — any metric aggregate or a ratio of two —
// against multi-window burn-rate conditions (every window must breach:
// the fast window rejects slow bleeds, the slow one rejects blips) with
// fire/resolve hysteresis; health.DefaultRules covers suspend-window p99,
// drain-backlog growth, heartbeat miss rate, storage MTTR, dedup
// hit-rate collapse and seglog live ratio. Firings become supervisor
// events, health_alert_active gauges, and the health-get op's cluster
// verdict (the debug listener's /healthz answers 200/503 from the same
// source). blobcr-ctl top draws the live cluster dashboard from the
// supervisor's federated endpoint alone, and blobcr-bench -only health
// measures throttle-to-alert latency in federation rounds, failing CI
// above two.
//
// # Asynchronous checkpoint handles
//
// The checkpoint lifecycle is asynchronous end to end: the proxy's
// CHECKPOINT verb clones before it suspends (first checkpoint only) and
// resumes the VM as soon as its dirty chunks' buffers have changed hands —
// the mirror copies nothing under suspend; it never writes a captured
// buffer again, so the guest's next write to such a chunk moves it to a
// fresh one — and the commit to the repository proceeds in the background
// behind a handle (mirror.PendingCommit / core.PendingCheckpoint) that
// WAIT or POLL resolve. Every operation takes a context.Context —
// cancelling an in-flight commit runs the abort path and returns every
// content-addressed reference it took — and snapshot identity is the one
// blobseer.SnapshotRef value type at every layer. A commit's dirty set is
// one []blobseer.Chunk, strictly ascending by index, from the mirror's
// capture through the local tier and the partner link to
// blobseer.Client.WriteChunks; the pipeline worker sorts the capture after
// the VM resumes, never inside the suspend window.
//
// Migration from the old synchronous API:
//
//	Old (synchronous, bare pairs)               New (handles, contexts, refs)
//	-----------------------------               -----------------------------
//	transport.Network.Call(addr, req)           Call(ctx, addr, req)
//	blobseer GetVersion(blob, ver)              GetVersion(ctx, SnapshotRef{blob, ver})
//	blobseer ReadVersion(blob, ver, off, n)     ReadVersion(ctx, ref, off, n)
//	blobseer Clone(blob, ver)                   Clone(ctx, ref)
//	blobseer WriteVersionStats(From)(map)       WriteChunks(ctx, blob, base, memo, []Chunk, size)
//	mirror.Attach(c, blob, ver)                 Attach(ctx, c, ref)
//	mirror Commit()                             Commit(ctx), or CommitAsync(ctx) -> *PendingCommit
//	proxy RequestCheckpoint() (blob, ver)       RequestCheckpoint(ctx) (SnapshotRef) — or
//	                                            RequestCheckpointAsync(ctx) + WaitCheckpoint/PollCheckpoint
//	cloud UploadBaseImage(raw, cs) (b, v)       UploadBaseImage(ctx, raw, cs) (SnapshotRef)
//	core NewJob(cl, blob, ver, cfg)             NewJob(ctx, cl, ref, cfg)
//	core Rank.Checkpoint(save)                  Checkpoint(ctx, save), or
//	                                            CheckpointAsync(ctx, save) -> *PendingCheckpoint
//	string-matching "not found" errors          errors.Is(err, transport.ErrNotFound)
package blobcr
