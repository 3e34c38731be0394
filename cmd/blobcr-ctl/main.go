// Command blobcr-ctl is the cloud client's tool for manipulating disk
// images in the checkpoint repository: upload and download images, list
// blobs and versions, clone images, inspect the file system inside a
// snapshot (the paper's standalone-checkpoint-inspection scenario), and
// report the content-addressed repository's deduplication counters.
//
//	blobcr-ctl -vmanager ... -pmanager ... -meta ... [-timeout 30s] upload base.raw
//	blobcr-ctl ... list
//	blobcr-ctl ... download <blob> <version> out.raw
//	blobcr-ctl ... clone    <blob> <version>
//	blobcr-ctl ... inspect  <blob> <version> [path]
//	blobcr-ctl ... stats
//	blobcr-ctl ... providers
//	blobcr-ctl ... [-replication N] scrub
//	blobcr-ctl ... [-replication N] repair
//	blobcr-ctl ... decommission <provider-addr>
//	blobcr-ctl -supervisor ADDR events [since-seq]
//	blobcr-ctl -supervisor ADDR status
//	blobcr-ctl preempt <proxy-addr>
//	blobcr-ctl [-watch] metrics <addr>
//	blobcr-ctl [-once] top <supervisor-addr>
//	blobcr-ctl trace <addr>[,addr...] <trace-hex>
//	blobcr-ctl flight <addr> [node]
//	blobcr-ctl store <data-provider-addr> [compact]
//	blobcr-ctl supervise
//
// Uploads go through the content-addressed repository (internal/cas): chunk
// bodies the repository already holds are neither stored again nor shipped
// over the network.
//
// With -timeout, every repository operation runs under a context deadline:
// a hung daemon fails the command fast instead of blocking forever.
//
// The events and status commands stream a running supervisor's structured
// event log and recovery accounting from its introspection endpoint
// (supervisor.Serve). supervise runs a self-contained demonstration: an
// in-process cloud under the autonomous supervisor rides out a two-node
// failure storm, printing every event — failure detection, rollback
// planning to the durability watermark, self-healing partial restarts —
// and the final MTTR summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cloud"
	"blobcr/internal/guestfs"
	"blobcr/internal/mirror"
	"blobcr/internal/proxy"
	"blobcr/internal/repair"
	"blobcr/internal/supervisor"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

const defaultChunkSize = 256 * 1024

func main() {
	vmAddr := flag.String("vmanager", "", "version manager address")
	pmAddr := flag.String("pmanager", "", "provider manager address")
	meta := flag.String("meta", "", "comma-separated metadata provider addresses")
	chunk := flag.Uint64("chunk", defaultChunkSize, "chunk size for uploads")
	replication := flag.Int("replication", 0, "chunk replica count; the scrub/repair target factor (0 = 1)")
	parallel := flag.Int("parallel", 0, "concurrent per-provider streams for uploads/downloads (0 = client default)")
	timeout := flag.Duration("timeout", 0, "deadline for repository operations (0 = none); hung daemons fail fast")
	supAddr := flag.String("supervisor", "", "supervisor introspection endpoint (for events/status)")
	watch := flag.Bool("watch", false, "metrics: re-scrape and redraw every two seconds")
	once := flag.Bool("once", false, "top: render a single frame and exit instead of refreshing")
	flag.Parse()

	if flag.NArg() < 1 {
		usage()
	}
	switch flag.Arg(0) {
	case "supervise":
		superviseDemo()
		return
	case "events", "status":
		if *supAddr == "" {
			fmt.Fprintln(os.Stderr, "blobcr-ctl: -supervisor is required for", flag.Arg(0))
			os.Exit(2)
		}
		supervisorQuery(*supAddr, *timeout, flag.Args())
		return
	case "metrics":
		need(flag.Args(), 2)
		metricsQuery(flag.Arg(1), *timeout, *watch)
		return
	case "top":
		need(flag.Args(), 2)
		topQuery(flag.Arg(1), *timeout, *once)
		return
	case "trace":
		need(flag.Args(), 3)
		traceQuery(flag.Arg(1), flag.Arg(2), *timeout)
		return
	case "flight":
		need(flag.Args(), 2)
		flightQuery(flag.Arg(1), flag.Arg(2), *timeout)
		return
	case "store":
		need(flag.Args(), 2)
		storeQuery(flag.Arg(1), *timeout, flag.Args())
		return
	case "preempt":
		need(flag.Args(), 2)
		preemptQuery(flag.Arg(1), *timeout)
		return
	}
	if *vmAddr == "" || *pmAddr == "" || *meta == "" {
		fmt.Fprintln(os.Stderr, "blobcr-ctl: -vmanager, -pmanager and -meta are required")
		os.Exit(2)
	}
	client := &blobseer.Client{
		Net:         transport.NewTCP(),
		VMAddr:      *vmAddr,
		PMAddr:      *pmAddr,
		MetaAddrs:   strings.Split(*meta, ","),
		Replication: *replication,
		Parallelism: *parallel,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	args := flag.Args()
	switch args[0] {
	case "upload":
		need(args, 2)
		raw, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		blob, err := client.CreateBlob(ctx, *chunk)
		if err != nil {
			log.Fatal(err)
		}
		info, err := client.WriteAt(ctx, blob, 0, raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("uploaded %s: blob=%d version=%d size=%d\n", args[1], blob, info.Version, info.Size)

	case "list":
		blobs, err := client.ListBlobs(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-12s %-10s %s\n", "BLOB", "CHUNKSIZE", "VERSIONS", "LATEST-SIZE")
		for _, b := range blobs {
			size := "-"
			if b.Versions > 0 {
				if info, _, err := client.Latest(ctx, b.ID); err == nil {
					size = strconv.FormatUint(info.Size, 10)
				}
			}
			fmt.Printf("%-8d %-12d %-10d %s\n", b.ID, b.ChunkSize, b.Versions, size)
		}

	case "download":
		need(args, 4)
		ref := blobseer.SnapshotRef{Blob: parseU64(args[1]), Version: parseU64(args[2])}
		info, _, err := client.GetVersion(ctx, ref)
		if err != nil {
			log.Fatal(err)
		}
		data, err := client.ReadVersion(ctx, ref, 0, info.Size)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(args[3], data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("downloaded %s (%d bytes) to %s\n", ref, len(data), args[3])

	case "clone":
		need(args, 3)
		ref := blobseer.SnapshotRef{Blob: parseU64(args[1]), Version: parseU64(args[2])}
		id, err := client.Clone(ctx, ref)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cloned %s -> blob=%d\n", ref, id)

	case "inspect":
		need(args, 3)
		ref := blobseer.SnapshotRef{Blob: parseU64(args[1]), Version: parseU64(args[2])}
		mod, err := mirror.Attach(ctx, client, ref)
		if err != nil {
			log.Fatal(err)
		}
		fs, err := guestfs.Mount(mod)
		if err != nil {
			log.Fatalf("snapshot does not hold a guest file system: %v", err)
		}
		path := "/"
		if len(args) > 3 {
			path = args[3]
		}
		info, err := fs.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		if !info.IsDir {
			data, err := fs.ReadFile(path)
			if err != nil {
				log.Fatal(err)
			}
			os.Stdout.Write(data)
			return
		}
		entries, err := fs.ReadDir(path)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %10d  %s\n", kind, e.Size, e.Name)
		}

	case "providers":
		m, err := client.Membership(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("storage membership (epoch %d)\n", m.Epoch)
		fmt.Printf("%-24s %s\n", "PROVIDER", "STATE")
		for _, p := range m.Providers {
			fmt.Printf("%-24s %s\n", p.Addr, p.State)
		}

	case "scrub":
		warnDefaultReplication(*replication)
		rep, err := repair.New(repair.Config{Client: client}).Scrub(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("scrub:", rep)
		if !rep.Clean() {
			fmt.Println("storage plane NEEDS REPAIR (run `blobcr-ctl ... repair`)")
			os.Exit(1)
		}
		fmt.Println("storage plane healthy")

	case "repair":
		warnDefaultReplication(*replication)
		rep, err := repair.New(repair.Config{Client: client}).Repair(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("repair:", rep)
		if !rep.Post.Clean() {
			fmt.Println("repair DID NOT CONVERGE; re-run once transient failures clear")
			os.Exit(1)
		}

	case "decommission":
		need(args, 2)
		warnDefaultReplication(*replication)
		rep, err := repair.New(repair.Config{Client: client}).Drain(ctx, args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("decommissioned %s: %s\n", args[1], rep)

	case "stats":
		providers, err := client.Providers(ctx)
		if err != nil {
			log.Fatal(err)
		}
		st, err := client.CasStats(ctx, providers)
		if err != nil {
			log.Fatal(err)
		}
		saved := int64(st.LogicalBytes) - int64(st.PhysicalBytes)
		fmt.Printf("content-addressed repository (%d providers)\n", len(providers))
		fmt.Printf("  chunk bodies      %12d\n", st.Chunks)
		fmt.Printf("  live references   %12d\n", st.Refs)
		fmt.Printf("  logical bytes     %12d\n", st.LogicalBytes)
		fmt.Printf("  physical bytes    %12d  (dedup saves %d)\n", st.PhysicalBytes, saved)
		fmt.Printf("  dedup hit-rate    %11.1f%%  (%d hits / %d misses)\n", 100*st.HitRate(), st.Hits, st.Misses)
		fmt.Printf("  reclaimed by refcount %8d chunks / %d bytes\n", st.ReclaimedChunks, st.ReclaimedBytes)

	default:
		usage()
	}
}

// withTimeout returns the context an introspection command runs under:
// bounded by the -timeout flag when it is positive.
func withTimeout(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// storeQuery renders one data provider's storage-engine counters, and with
// the `compact` subcommand first runs a compaction pass on it. Only the
// provider address is needed — the op goes straight to that daemon.
func storeQuery(addr string, timeout time.Duration, args []string) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	client := &blobseer.Client{Net: transport.NewTCP()}
	if len(args) > 2 && args[2] == "compact" {
		res, err := client.CompactChunkStore(ctx, addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compacted %d segments: %d records relocated, %d bytes reclaimed\n",
			res.Segments, res.Relocated, res.ReclaimedBytes)
	}
	es, err := client.StoreEngineStats(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storage engine at %s: %s\n", addr, es.Backend)
	for _, f := range es.Fields {
		fmt.Printf("  %-24s %12d\n", f.Name, f.Value)
	}
}

// preemptQuery is the spot-preemption path: DRAIN-NOW against a node's
// checkpointing proxy flushes every staged capture to the remote plane
// inside the grace window, so nothing locally-safe dies with the node.
func preemptQuery(addr string, timeout time.Duration) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	net := transport.NewTCP()
	own, partner, err := proxy.Backlog(ctx, net, addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backlog before flush: own %d ckpts / %d chunks / %d bytes, partner %d ckpts / %d chunks / %d bytes\n",
		own.Checkpoints, own.Chunks, own.Bytes, partner.Checkpoints, partner.Chunks, partner.Bytes)
	t0 := time.Now()
	modules, err := proxy.DrainNow(ctx, net, addr)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)
	own, partner, err = proxy.Backlog(ctx, net, addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flushed %d module(s) in %s; backlog now: own %d ckpts, partner %d ckpts\n",
		modules, elapsed.Round(time.Millisecond), own.Checkpoints, partner.Checkpoints)
	if own.Checkpoints != 0 {
		fmt.Println("node still holds un-drained captures; NOT safe to reclaim")
		os.Exit(1)
	}
	fmt.Println("node's own captures are globally durable; safe to reclaim (partner replicas drain via DRAINFOR)")
}

// supervisorQuery fetches a running supervisor's event stream or status
// summary from its introspection endpoint over TCP.
func supervisorQuery(addr string, timeout time.Duration, args []string) {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	net := transport.NewTCP()
	if args[0] == "status" {
		line, err := supervisor.Status(ctx, net, addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(line)
		return
	}
	var since uint64
	if len(args) > 1 {
		since = parseU64(args[1])
	}
	lines, err := supervisor.Events(ctx, net, addr, since)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// superviseDemo runs the autonomous checkpoint-restart loop end to end on an
// in-process cloud: deploy, compute, and survive a two-node failure storm
// with zero manual Restart calls, printing the live event stream.
func superviseDemo() {
	ctx := context.Background()
	fmt.Println("== autonomous checkpoint-restart supervisor demo ==")
	net := transport.WithLatency(transport.NewInProc(), 200*time.Microsecond)
	// Replication 3 keeps every chunk readable through a two-node storm.
	cl, err := cloud.New(cloud.Config{Nodes: 6, MetaProviders: 2, Replication: 3, Net: net})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	base, err := cl.UploadBaseImage(ctx, make([]byte, 512*1024), 4096)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := cl.Deploy(ctx, 3, base, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err != nil {
		log.Fatal(err)
	}
	// The storage plane self-heals too: every confirmed failure triggers a
	// background scrub + re-replication pass.
	rep := repair.New(repair.Config{Client: cl.Client()})
	sup := supervisor.New(cl, dep, supervisor.Config{
		HeartbeatEvery: 5 * time.Millisecond,
		PingTimeout:    25 * time.Millisecond,
		SuspectAfter:   2,
		MTBF:           2 * time.Second,
		MinInterval:    50 * time.Millisecond,
		MaxInterval:    200 * time.Millisecond,
		PartialRestart: true,
		Repair:         rep,
	})
	events, unsubscribe := sup.Events().Subscribe()
	defer unsubscribe()
	go func() {
		for e := range events {
			fmt.Println(" ", e)
		}
	}()
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(runCtx)
	}()

	work := func(round int) {
		d, _ := sup.Deployment()
		for _, inst := range d.Instances {
			if fs := inst.VM.FS(); fs != nil {
				fs.WriteFile("/progress", []byte(strconv.Itoa(round)))
			}
		}
	}
	waitGen := func(want int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, gen := sup.Deployment(); gen >= want {
				return
			}
			if time.Now().After(deadline) {
				log.Fatalf("recovery %d never completed; supervisor metrics: %+v", want, sup.Metrics())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for round := 1; round <= 2; round++ {
		work(round)
		if _, err := sup.CheckpointNow(ctx); err != nil {
			log.Fatal(err)
		}
		d, _ := sup.Deployment()
		victim := d.Instances[round%len(d.Instances)].Node
		time.Sleep(100 * time.Millisecond) // let the checkpoint publish
		fmt.Printf("injecting failure: node %s goes dark (no manual Restart will follow)\n", victim.Name)
		net.Partition(victim.ProxyAddr)
		net.Partition(victim.DataAddr)
		for _, inst := range d.Instances {
			if inst.Node == victim {
				inst.VM.Kill()
			}
		}
		waitGen(round)
	}
	cancel()
	<-done
	m := sup.Metrics()
	fmt.Printf("\nsurvived %d failures unattended: %d recoveries, mean MTTR %s, max %s, work lost %s\n",
		m.FailuresDetected, m.Recoveries, m.MeanMTTR().Round(time.Millisecond),
		m.MaxMTTR.Round(time.Millisecond), m.WorkLost.Round(time.Millisecond))
	fmt.Printf("checkpoints: %d initiated, %d durable; restarts: %d VMs redeployed, %d rolled back in place\n",
		m.CheckpointsInitiated, m.CheckpointsDurable, m.RedeployedVMs, m.InPlaceVMs)
	if scrub, err := rep.Scrub(ctx); err == nil {
		fmt.Printf("storage plane: %d repairs restored %d replicas (%d bytes); final scrub clean=%v\n",
			m.StorageRepairs, m.ReplicasRestored, m.BytesRestored, scrub.Clean())
	}
}

// warnDefaultReplication flags a scrub/repair against the default target of
// one replica: on a deployment written with replication N > 1, that target
// would declare a half-replicated plane "healthy" — the very decay these
// commands exist to catch.
func warnDefaultReplication(replication int) {
	if replication == 0 {
		fmt.Fprintln(os.Stderr, "blobcr-ctl: warning: -replication not set; verifying against a target of 1 replica per chunk")
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func parseU64(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("bad number %q", s)
	}
	return v
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: blobcr-ctl -vmanager A -pmanager A -meta A[,A...] <command>
commands:
  upload <file>                       store a raw image, print blob id
  list                                list blobs and versions
  download <blob> <version> <file>    fetch a snapshot as a raw image
  clone <blob> <version>              clone a snapshot into a new image
  inspect <blob> <version> [path]     browse the guest fs inside a snapshot
  stats                               dedup hit-rate, logical vs physical bytes,
                                      refcount reclamation
  providers                           storage membership: provider states + epoch
  scrub                               anti-entropy pass: verify every replica's
                                      SHA-256, report under-replicated/corrupt
                                      chunks against -replication
  repair                              re-replicate until a scrub comes back clean
  decommission <provider-addr>        drain a provider (replicas re-placed
                                      elsewhere), then retire it from membership
  events [since]                      stream a supervisor's event log (-supervisor)
  status                              supervisor recovery summary (-supervisor)
  metrics <addr>                      scrape any endpoint (proxy, supervisor,
                                      repair or BlobSeer service): commit stage
                                      timings, suspend window, per-provider
                                      latency, dedup hit-rate
                                      (-watch redraws every two seconds with
                                      per-second rates: server-side history
                                      windowed rates when the endpoint keeps a
                                      history ring, scrape deltas otherwise)
  top <supervisor-addr>               live cluster dashboard off a federating
                                      supervisor: per-node liveness, suspend
                                      p99, drain backlog, commit MB/s and
                                      firing SLO alerts, all from the one
                                      federated endpoint (-once: single frame)
  trace <addr>[,addr...] <trace-hex>  collect one distributed trace's spans from
                                      the given endpoints, assemble the
                                      cross-process tree and print it with its
                                      critical path
  flight <addr> [node]                dump a flight-recorder ring (recent spans);
                                      with a node name against a supervisor, the
                                      mirrored post-mortem dump of that node
  store <addr> [compact]              a data provider's storage-engine counters
                                      (seglog: segments, live bytes, fsync
                                      batching, compression mix); with compact,
                                      first runs a compaction pass on its log
  preempt <proxy-addr>                spot-preemption flush: DRAIN-NOW the node's
                                      staged checkpoints to the remote plane and
                                      report the backlog before/after; exits
                                      nonzero while captures remain staged
  supervise                           run the autonomous-recovery demo in-process`)
	os.Exit(2)
}
