package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// watchWindow is the trailing window -watch asks the endpoint's history
// ring about. Wider than the redraw period, so rates are smoothed over
// several ring samples rather than jittering scrape-to-scrape.
const watchWindow = 10 * time.Second

// metricsQuery scrapes any endpoint (checkpointing proxy, supervisor, repair
// daemon or BlobSeer service — they all answer metrics-get) and renders the
// telemetry an operator reaches for first: the last commit's suspend window
// decomposed into the pipeline stages, per-provider wire latency, and the
// dedup hit-rate. With watch, it re-scrapes every two seconds and annotates every
// counter with its per-second rate. Rates come from the endpoint's own
// history ring when it keeps one (history-get: delta-exact, computed
// over the ring's sample timestamps); endpoints without a ring fall back to
// client-side scrape deltas. Gauges and histograms stay absolute: a gauge
// already is the current value.
func metricsQuery(addr string, timeout time.Duration, watch bool) {
	net := transport.NewTCP()
	var prev map[string]uint64
	var prevAt time.Time
	for {
		points := scrapeMetrics(net, addr, timeout)
		now := time.Now()
		var rates map[string]float64
		rateSrc := ""
		if watch {
			if r, ok := historyRates(net, addr, timeout); ok {
				rates = r
				rateSrc = fmt.Sprintf("server-side history, %ds window", int(watchWindow.Seconds()))
			} else if prev != nil {
				rates = counterRates(points, prev, now.Sub(prevAt))
				rateSrc = "client-side scrape deltas (no history ring at endpoint)"
			}
		}
		prev, prevAt = counterValues(points), now
		if watch {
			fmt.Print("\033[H\033[2J") // clear screen between refreshes
		}
		fmt.Printf("metrics from %s at %s\n", addr, now.Format("15:04:05"))
		if rateSrc != "" {
			fmt.Printf("counter rates: %s\n", rateSrc)
		}
		renderMetrics(os.Stdout, points, rates)
		if !watch {
			return
		}
		time.Sleep(2 * time.Second)
	}
}

// scrapeMetrics collects the full (possibly chunked) exposition from addr,
// parsed.
func scrapeMetrics(net transport.Network, addr string, timeout time.Duration) []obs.Point {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	points, err := transport.Metrics(ctx, net, addr)
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	return points
}

// historyRates asks the endpoint's history ring for windowed counter rates.
// ok is false when the endpoint has no ring (history-get answers an error)
// or the ring holds fewer than two samples — the callers fall back to scrape
// deltas rather than rendering no rates at all.
func historyRates(net transport.Network, addr string, timeout time.Duration) (map[string]float64, bool) {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	rep, err := transport.History(ctx, net, addr, watchWindow)
	if err != nil || rep.Samples < 2 {
		return nil, false
	}
	out := make(map[string]float64)
	for i := range rep.Stats {
		st := &rep.Stats[i]
		if st.Kind != obs.KindCounter {
			continue
		}
		key := st.Name
		for _, l := range st.Labels {
			key += ";" + l.Key + "=" + l.Value
		}
		out[key] = st.Rate
	}
	return out, true
}

// seriesKey identifies one series across scrapes: the metric name plus its
// label pairs as rendered (labels are in a stable order in the exposition).
func seriesKey(p *obs.Point) string {
	key := p.Name
	for _, l := range p.Labels {
		key += ";" + l.Key + "=" + l.Value
	}
	return key
}

// counterValues snapshots every counter of one scrape, keyed by series.
func counterValues(points []obs.Point) map[string]uint64 {
	out := make(map[string]uint64)
	for i := range points {
		if points[i].Kind == obs.KindCounter {
			out[seriesKey(&points[i])] = points[i].Value
		}
	}
	return out
}

// counterRates derives per-second rates for the counters present in both
// scrapes. A counter that went backward (the endpoint restarted) contributes
// no rate rather than a negative one.
func counterRates(points []obs.Point, prev map[string]uint64, dt time.Duration) map[string]float64 {
	if dt <= 0 {
		return nil
	}
	out := make(map[string]float64)
	for i := range points {
		p := &points[i]
		if p.Kind != obs.KindCounter {
			continue
		}
		before, ok := prev[seriesKey(p)]
		if !ok || p.Value < before {
			continue
		}
		out[seriesKey(p)] = float64(p.Value-before) / dt.Seconds()
	}
	return out
}

func ms(ns float64) float64 { return ns / 1e6 }

// renderStages prints one table of stage spans — count, last, mean and p99
// per stage — and, when the stages run back to back, the sum of their last
// durations. Stages this endpoint never recorded are left out; a table with
// none is not printed.
func renderStages(w *os.File, points []obs.Point, title string, stages []string, sum bool) {
	var rows []string
	var totalLast float64
	for _, stage := range stages {
		h := obs.Find(points, "span_ns", obs.L("span", stage))
		g := obs.Find(points, "span_last_ns", obs.L("span", stage))
		if h == nil || h.Count == 0 {
			continue
		}
		last := 0.0
		if g != nil {
			last = float64(g.GaugeValue)
		}
		totalLast += last
		rows = append(rows, fmt.Sprintf("  %-16s %8d %10.2f %10.2f %10.2f",
			stage, h.Count, ms(last), ms(h.Mean()), ms(h.Quantile(0.99))))
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-16s %8s %10s %10s %10s\n", "STAGE", "COUNT", "LAST-MS", "MEAN-MS", "P99-MS")
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	if sum {
		fmt.Fprintf(w, "  %-16s %8s %10.2f\n", "total", "", ms(totalLast))
	}
}

// renderMetrics prints the operator-facing summary sections, then every
// remaining counter and gauge so nothing recorded is invisible. rates, when
// non-nil (watch mode past the first scrape), annotates counters with their
// per-second rate.
func renderMetrics(w *os.File, points []obs.Point, rates map[string]float64) {
	covered := map[string]bool{}

	// Commit pipeline: the stages of the last commit plus their
	// distribution across all commits seen by this endpoint. Restart path:
	// the same for the attach and the read stages (not summed: read/verify
	// runs inside read/fetch, and one restart makes many reads).
	renderStages(w, points, "commit pipeline (per stage)", obs.CommitStages, true)
	// What the publish stage wrote into the metadata tree, per commit.
	publish := obs.Find(points, "span_ns", obs.L("span", obs.SpanCommitPublish))
	if nodes := obs.Find(points, "blobseer_publish_nodes_total"); nodes != nil && publish != nil && publish.Count > 0 {
		var size uint64
		if p := obs.Find(points, "blobseer_publish_node_bytes_total"); p != nil {
			size = p.Value
		}
		fmt.Fprintf(w, "  metadata per commit: %.1f nodes, %.0f bytes\n",
			float64(nodes.Value)/float64(publish.Count), float64(size)/float64(publish.Count))
		covered["blobseer_publish_nodes_total"], covered["blobseer_publish_node_bytes_total"] = true, true
	}
	renderStages(w, points, "restart path (per stage)", obs.RestartStages, false)
	covered["span_ns"], covered["span_last_ns"] = true, true
	// The boot-set hint under it: what each attach still faulted in on
	// demand, and how much of what the attaches replayed the guests then read.
	if attach := obs.Find(points, "span_ns", obs.L("span", obs.SpanRestartAttach)); attach != nil && attach.Count > 0 {
		count := func(name string) uint64 {
			covered[name] = true
			if p := obs.Find(points, name); p != nil {
				return p.Value
			}
			return 0
		}
		faults, replayed, hits, publishes := count("mirror_demand_faults_total"), count("mirror_hint_replayed_chunks_total"),
			count("mirror_hint_hits_total"), count("mirror_hint_publishes_total")
		line := fmt.Sprintf("  demand faults: %.1f chunks per attach over %d attaches", float64(faults)/float64(attach.Count), attach.Count)
		if replayed > 0 {
			line += fmt.Sprintf("; hint: %d of %d replayed chunks read (%.1f%% hit), %d publishes",
				hits, replayed, 100*float64(hits)/float64(replayed), publishes)
		}
		fmt.Fprintln(w, line)
	}
	// The read engine under them: chunks whose body another index of the
	// same read fetched, and chunks whose leaf names the all-zero body.
	if chunks := obs.Find(points, "blobseer_read_chunks_total"); chunks != nil && chunks.Value > 0 {
		count := func(name string) uint64 {
			covered[name] = true
			if p := obs.Find(points, name); p != nil {
				return p.Value
			}
			return 0
		}
		coalesced, zero, unfetched := count("blobseer_read_coalesced_chunks_total"), count("blobseer_read_zero_chunks_total"),
			count("blobseer_read_unfetched_bytes_total")
		fmt.Fprintf(w, "  restart reads: %.1f%% of chunks served without a fetch (coalesced %d, zero %d; %d bytes not fetched)\n",
			100*float64(coalesced+zero)/float64(chunks.Value), coalesced, zero, unfetched)
	}

	// Write batching: what fingerprinting the dirty set cost a commit (the
	// commit/hash stage above, as its own histogram), and beside it how many
	// records each sync of a segment log carried — chunks per put frame when
	// frames board the log as batches, about one if they arrive as singles.
	if h := obs.Find(points, "blobseer_commit_hash_ns"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "\ncommit hash: mean %.2f ms, p99 %.2f ms over %d commits\n", ms(h.Mean()), ms(h.Quantile(0.99)), h.Count)
		covered["blobseer_commit_hash_ns"] = true
	}
	for i := range points {
		if p := &points[i]; p.Name == "seglog_fsync_batch_records" && p.Count > 0 {
			fmt.Fprintf(w, "seglog %s: %d syncs, records per sync p50 %.0f, mean %.1f\n", p.Label("store"), p.Count, p.Quantile(0.5), p.Mean())
			covered["seglog_fsync_batch_records"] = true
		}
	}

	// Suspend window: what the guest actually observed.
	if h := obs.Find(points, "proxy_suspend_ns"); h != nil && h.Count > 0 {
		last := 0.0
		if g := obs.Find(points, "proxy_suspend_last_ns"); g != nil {
			last = float64(g.GaugeValue)
		}
		fmt.Fprintf(w, "\nsuspend window: last %.2f ms, mean %.2f ms, p99 %.2f ms over %d checkpoints\n",
			ms(last), ms(h.Mean()), ms(h.Quantile(0.99)), h.Count)
		covered["proxy_suspend_ns"], covered["proxy_suspend_last_ns"] = true, true
	}
	// Where the capture's copy went: the window hands dirty buffers over, and
	// only a guest write that keeps part of a captured chunk copies it.
	if captured := obs.Find(points, "mirror_capture_chunks_total"); captured != nil && captured.Value > 0 {
		line := fmt.Sprintf("capture: %d chunks handed off under suspend", captured.Value)
		if copies := obs.Find(points, "mirror_cow_copies_total"); copies != nil {
			line += fmt.Sprintf(", %d copied since by partial guest writes", copies.Value)
		}
		if bytes := obs.Find(points, "mirror_cow_bytes_total"); bytes != nil {
			line += fmt.Sprintf(" (%d bytes)", bytes.Value)
		}
		fmt.Fprintln(w, line)
		covered["mirror_capture_chunks_total"], covered["mirror_cow_copies_total"], covered["mirror_cow_bytes_total"] = true, true, true
	}

	// Dedup: bytes the content-addressed repository kept off the wire.
	if logical := obs.Find(points, "blobseer_commit_logical_bytes_total"); logical != nil && logical.Value > 0 {
		var hit uint64
		if p := obs.Find(points, "blobseer_dedup_hit_bytes_total"); p != nil {
			hit = p.Value
		}
		fmt.Fprintf(w, "\ndedup: %.1f%% hit-rate by bytes (%d of %d logical bytes never shipped)\n",
			100*float64(hit)/float64(logical.Value), hit, logical.Value)
	}
	// Hash memo: committed chunks whose fingerprint came from a byte-equal
	// body of the module's previous commit instead of a second SHA-256.
	if chunks := obs.Find(points, "blobseer_commit_chunks_total"); chunks != nil && chunks.Value > 0 {
		var memoChunks, memoBytes uint64
		if p := obs.Find(points, "blobseer_hash_memo_chunks_total"); p != nil {
			memoChunks = p.Value
		}
		if p := obs.Find(points, "blobseer_hash_memo_bytes_total"); p != nil {
			memoBytes = p.Value
		}
		fmt.Fprintf(w, "hash memo: %.1f%% of committed chunks answered by the previous capture (%d bytes not hashed)\n",
			100*float64(memoChunks)/float64(chunks.Value), memoBytes)
		covered["blobseer_hash_memo_chunks_total"], covered["blobseer_hash_memo_bytes_total"] = true, true
	}

	// Per-provider wire latency: where the commit's time went on the network.
	var addrRows []string
	for i := range points {
		p := &points[i]
		if p.Name != "transport_addr_call_ns" || p.Count == 0 {
			continue
		}
		addrRows = append(addrRows, fmt.Sprintf("  %-24s %8d %10.1f %10.1f",
			p.Label("addr"), p.Count, p.Mean()/1e3, p.Quantile(0.99)/1e3))
	}
	covered["transport_addr_call_ns"] = true
	if len(addrRows) > 0 {
		fmt.Fprintf(w, "\nwire latency per address\n")
		fmt.Fprintf(w, "  %-24s %8s %10s %10s\n", "ADDRESS", "CALLS", "MEAN-US", "P99-US")
		sort.Strings(addrRows)
		for _, r := range addrRows {
			fmt.Fprintln(w, r)
		}
	}

	// Everything else, compactly: counters and gauges by name, remaining
	// histograms as count/mean/p99.
	var rest []string
	for i := range points {
		p := &points[i]
		if covered[p.Name] {
			continue
		}
		label := p.Name
		for _, l := range p.Labels {
			label += fmt.Sprintf(" %s=%s", l.Key, l.Value)
		}
		switch p.Kind {
		case obs.KindCounter:
			line := fmt.Sprintf("  %-48s %d", label, p.Value)
			if r, ok := rates[seriesKey(p)]; ok {
				line += fmt.Sprintf("  (%.1f/s)", r)
			}
			rest = append(rest, line)
		case obs.KindGauge:
			rest = append(rest, fmt.Sprintf("  %-48s %d", label, p.GaugeValue))
		case obs.KindHistogram:
			if p.Count > 0 {
				rest = append(rest, fmt.Sprintf("  %-48s count=%d mean=%.0f p99=%.0f",
					label, p.Count, p.Mean(), p.Quantile(0.99)))
			}
		}
	}
	if len(rest) > 0 {
		fmt.Fprintf(w, "\nall other series\n")
		for _, r := range rest {
			fmt.Fprintln(w, r)
		}
	}
}
