// Command blobcr-proxyd runs a compute node's checkpointing agent: it boots
// VM instances from a base image stored in a BlobSeer deployment (lazy
// transfer through the mirroring module) and serves checkpoint requests for
// them on the local checkpointing proxy port.
//
//	blobcr-proxyd -vmanager host:7700 -pmanager host:7701 \
//	    -meta host:7710,host:7711 -base 1 -instances 2 -listen 127.0.0.1:7800
//
// Tokens for the hosted instances are printed at startup; guests pass them
// with the VM id in every instance op (proxy.Client).
//
// -stage-dir enables multilevel checkpointing: captures are staged in a
// node-local write-back tier (a segment log under that directory) and
// acknowledged locally safe as soon as they are staged — and replicated to
// the -partner proxy, when one is named — while a background drain publishes
// them to the BlobSeer plane. The WAITLOCAL, BACKLOG, DRAIN-NOW and DRAINFOR
// ops (and blobcr-ctl preempt) control the tier.
//
// The proxy answers the introspection ops every endpoint shares
// (transport.Introspect) on its own port: metrics (blobcr-ctl metrics;
// oversized expositions continue in chunks), its span store for one
// distributed trace and its always-on flight-recorder ring (blobcr-ctl
// trace / flight), and health. -history keeps a ring of metric snapshots
// so history-get can answer windowed rates and quantiles (blobcr-ctl
// metrics -watch and the supervisor's federation use it). -debug-addr
// additionally binds an HTTP listener serving /metrics, /healthz,
// /debug/pprof/* and /debug/vars for Prometheus and pprof.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/localtier"
	"blobcr/internal/mirror"
	"blobcr/internal/obs"
	"blobcr/internal/proxy"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

func main() {
	vmAddr := flag.String("vmanager", "", "version manager address")
	pmAddr := flag.String("pmanager", "", "provider manager address")
	meta := flag.String("meta", "", "comma-separated metadata provider addresses")
	base := flag.Uint64("base", 0, "base image blob id")
	version := flag.Uint64("version", 0, "base image version")
	instances := flag.Int("instances", 1, "VM instances to host")
	listen := flag.String("listen", "127.0.0.1:0", "proxy listen address")
	node := flag.String("node", "node-0", "node name used in VM ids")
	parallel := flag.Int("parallel", 0, "concurrent per-provider streams for commits and restores (0 = client default)")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listener: /metrics, /debug/pprof/*, /debug/vars (empty = off)")
	stageDir := flag.String("stage-dir", "", "directory of the node-local checkpoint tier's segment log (empty = no local tier)")
	partnerAddr := flag.String("partner", "", "partner proxy address replicating this node's staged captures (requires -stage-dir)")
	history := flag.Duration("history", time.Second, "metric history ring sample period backing the history-get op (0 = no ring)")
	flag.Parse()

	if *vmAddr == "" || *pmAddr == "" || *meta == "" || *base == 0 {
		fmt.Fprintln(os.Stderr, "blobcr-proxyd: -vmanager, -pmanager, -meta and -base are required")
		os.Exit(2)
	}
	// Meter every wire call into the default registry: the proxy's
	// metrics-get op and the -debug-addr /metrics page both scrape it. The
	// history ring lets the same registry answer windowed history queries
	// server-side.
	net := transport.WithMeter(transport.NewTCP(), nil)
	if *history > 0 {
		obs.Default.StartHistory(*history, 256)
	}
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			log.Fatalf("start debug listener: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /debug/pprof/)", dbg.Addr)
	}
	client := &blobseer.Client{
		Net:         net,
		VMAddr:      *vmAddr,
		PMAddr:      *pmAddr,
		MetaAddrs:   strings.Split(*meta, ","),
		Parallelism: *parallel,
	}

	p := proxy.New()
	if *stageDir != "" {
		store, err := seglog.Open(*stageDir, seglog.Options{})
		if err != nil {
			log.Fatalf("open local tier: %v", err)
		}
		p.Stage = localtier.New(store, obs.Default)
		p.Net = net
		p.Repo = client
		p.PartnerAddr = *partnerAddr
		if *partnerAddr != "" {
			log.Printf("local tier (%s) with partner replica at %s", *stageDir, *partnerAddr)
		} else {
			log.Printf("local tier (%s), no partner — staged captures are not node-loss safe", *stageDir)
		}
	} else if *partnerAddr != "" {
		fmt.Fprintln(os.Stderr, "blobcr-proxyd: -partner requires -stage-dir")
		os.Exit(2)
	}
	srv, err := p.Serve(net, *listen)
	if err != nil {
		log.Fatalf("start proxy: %v", err)
	}
	log.Printf("checkpointing proxy listening on %s", srv.Addr())

	ctx := context.Background()
	for i := 0; i < *instances; i++ {
		mod, err := mirror.Attach(ctx, client, blobseer.SnapshotRef{Blob: *base, Version: *version})
		if err != nil {
			log.Fatalf("attach base image: %v", err)
		}
		id := fmt.Sprintf("%s-vm-%d", *node, i)
		inst := vm.New(id, mod, vm.Config{})
		if err := inst.Boot(); err != nil {
			log.Fatalf("boot %s: %v", id, err)
		}
		token := newToken()
		p.Register(id, token, inst, mod)
		log.Printf("instance %s booted (disk %d MB); token %s", id, mod.Size()/1e6, token)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	srv.Close()
}

func newToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		log.Fatalf("token: %v", err)
	}
	return hex.EncodeToString(b[:])
}
