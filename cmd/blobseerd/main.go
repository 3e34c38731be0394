// Command blobseerd runs one BlobSeer service role over TCP. A full
// deployment is one version manager, one provider manager, several metadata
// providers and one data provider per compute node:
//
//	blobseerd -role vmanager -listen :7700
//	blobseerd -role pmanager -listen :7701
//	blobseerd -role meta     -listen :7710
//	blobseerd -role data     -listen :7720 -pmanager host:7701 -dir /var/blobseer
//
// Data providers register themselves with the provider manager and store
// chunks in the durable log-structured segment engine under -dir (seglog —
// group commit, per-chunk compression, crash recovery), or in memory when
// -dir is empty. The content-addressed dedup index (internal/cas) is
// layered on top; an existing data directory is re-indexed on startup.
//
// Every role answers the introspection ops every endpoint shares
// (transport.Introspect) on its service port — metrics (blobcr-ctl metrics
// and top), the spans it holds for one distributed trace and its always-on
// flight-recorder ring (blobcr-ctl trace / flight), health, and windowed
// history backed by the -history metric ring, so a federating supervisor
// can scrape windowed rates without Prometheus. With -debug-addr, the daemon binds an HTTP
// debug listener serving /metrics (Prometheus text for every wire call
// handled), /healthz, /debug/pprof/* and /debug/vars.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

func main() {
	role := flag.String("role", "", "service role: vmanager | pmanager | meta | data")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	pmanager := flag.String("pmanager", "", "provider manager address (data role)")
	dir := flag.String("dir", "", "data directory of the segment-log chunk store (data role; empty = in-memory)")
	advertise := flag.String("advertise", "", "address to register with the provider manager (default: the bound address)")
	debugAddr := flag.String("debug-addr", "", "HTTP debug listener: /metrics, /debug/pprof/*, /debug/vars (empty = off)")
	history := flag.Duration("history", time.Second, "metric history ring sample period backing the history-get op (0 = no ring)")
	flag.Parse()

	// Meter outbound wire calls (a data provider calls the provider manager
	// to register) into the default registry, scraped by -debug-addr. The
	// history ring lets the same registry answer windowed history queries.
	net := transport.WithMeter(transport.NewTCP(), nil)
	if *history > 0 {
		obs.Default.StartHistory(*history, 256)
	}
	if *debugAddr != "" {
		dbg, derr := obs.ServeDebug(*debugAddr, nil)
		if derr != nil {
			log.Fatalf("start debug listener: %v", derr)
		}
		defer dbg.Close()
		log.Printf("debug listener on http://%s (/metrics, /debug/pprof/)", dbg.Addr)
	}
	var srv transport.Server
	var err error

	switch *role {
	case "vmanager":
		srv, err = blobseer.NewVersionManager().Serve(net, *listen)
	case "pmanager":
		srv, err = blobseer.NewProviderManager().Serve(net, *listen)
	case "meta":
		srv, err = blobseer.NewMetadataProvider().Serve(net, *listen)
	case "data":
		backend, berr := blobseer.OpenStore(*dir)
		if berr != nil {
			log.Fatalf("open chunk store: %v", berr)
		}
		// Layer the content-addressed index over the engine so the provider
		// serves dedup commits; reopening a data directory re-indexes the
		// stored bodies to recover the index.
		store, serr := cas.NewStore(backend)
		if serr != nil {
			log.Fatalf("recover cas index: %v", serr)
		}
		log.Printf("chunk store engine: %s", chunkstore.StatsOf(store).Backend)
		defer store.Close() // flush and seal the engine (seglog syncs its active segment)
		srv, err = blobseer.NewDataProvider(store).Serve(net, *listen)
		if err == nil && *pmanager != "" {
			addr := *advertise
			if addr == "" {
				addr = srv.Addr()
			}
			client := &blobseer.Client{Net: net, PMAddr: *pmanager}
			if rerr := client.RegisterProvider(context.Background(), addr); rerr != nil {
				log.Fatalf("register with provider manager: %v", rerr)
			}
			log.Printf("registered %s with provider manager %s", addr, *pmanager)
		}
	default:
		fmt.Fprintln(os.Stderr, "blobseerd: -role must be vmanager, pmanager, meta or data")
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("start %s: %v", *role, err)
	}
	log.Printf("blobseer %s listening on %s", *role, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	srv.Close()
}
