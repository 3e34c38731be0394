package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/supervisor"
	"blobcr/internal/transport"
)

// traceQuery collects one distributed trace's spans from a set of endpoints
// and renders the assembled cross-process tree plus its critical path. Every
// endpoint — proxy, supervisor or BlobSeer service — answers
// the same trace-get op. Endpoints that hold no spans for the trace simply
// contribute nothing — a trace rarely touches every service.
func traceQuery(addrList, traceHex string, timeout time.Duration) {
	trace, err := strconv.ParseUint(strings.TrimPrefix(traceHex, "0x"), 16, 64)
	if err != nil || trace == 0 {
		log.Fatalf("trace: bad trace id %q (expect the hex id BeginTrace issued)", traceHex)
	}
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	net := transport.NewTCP()
	sets := make(map[string][]obs.SpanRecord)
	for _, addr := range strings.Split(addrList, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		spans, err := transport.Trace(ctx, net, addr, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			continue
		}
		sets[addr] = spans
	}
	at := obs.AssembleTrace(trace, sets)
	if at.Root == nil {
		log.Fatalf("trace %x: no spans found at the given endpoints (evicted, or wrong endpoints?)", trace)
	}
	fmt.Printf("trace %x: %d spans from %d endpoints", trace, at.Spans, len(sets))
	if len(at.Orphans) > 0 {
		fmt.Printf(" (+%d orphaned spans whose parents were not collected)", len(at.Orphans))
	}
	fmt.Println()
	printSpanTree(at.Root, at.Root.Start, 0)

	segs := obs.CriticalPath(at.Root)
	wall := at.Root.End.Sub(at.Root.Start)
	attributed := obs.PathAttributed(at.Root, segs)
	fmt.Printf("\ncritical path (%d segments, %.1f%% of %.3f ms wall attributed)\n",
		len(segs), 100*coverage(attributed, wall), msF(wall))
	for _, seg := range segs {
		fmt.Printf("  +%9.3f ms  %9.3f ms  %s (%s)\n",
			msF(seg.Start.Sub(at.Root.Start)), msF(seg.Duration()), seg.Node.Name, seg.Node.Process)
	}
}

// printSpanTree renders one assembled span and its children, indented by
// depth, with offsets relative to the root's start.
func printSpanTree(n *obs.SpanNode, origin time.Time, depth int) {
	fmt.Printf("  +%9.3f ms  %9.3f ms  %s%s (%s)\n",
		msF(n.Start.Sub(origin)), msF(n.End.Sub(n.Start)), strings.Repeat("  ", depth), n.Name, n.Process)
	for _, c := range n.Children {
		printSpanTree(c, origin, depth+1)
	}
}

// flightQuery dumps a flight-recorder ring: the endpoint's own (flight-get,
// which every endpoint answers) or, with a node argument against a
// supervisor, the mirrored post-mortem dump of that node (its FLIGHT op).
func flightQuery(addr, node string, timeout time.Duration) {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	net := transport.NewTCP()
	var spans []obs.SpanRecord
	var err error
	final := false
	if node == "" {
		spans, err = transport.Flight(ctx, net, addr)
	} else {
		spans, final, err = supervisor.Flight(ctx, net, addr, node)
	}
	if err != nil {
		log.Fatalf("flight: %v", err)
	}
	what := addr
	if node != "" {
		what = node + " (mirrored by " + addr + ")"
		if final {
			what += " — FINAL post-mortem dump"
		}
	}
	fmt.Printf("flight recorder of %s: %d spans, oldest first\n", what, len(spans))
	if len(spans) == 0 {
		return
	}
	origin := spans[0].Start
	for _, s := range spans {
		line := fmt.Sprintf("  +%12.3f ms  %9.3f ms  %s", msF(s.Start.Sub(origin)), msF(s.Duration()), s.Name)
		if s.Trace != 0 {
			line += fmt.Sprintf("  trace=%x", s.Trace)
		}
		fmt.Println(line)
	}
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func coverage(attributed, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(attributed) / float64(wall)
}
