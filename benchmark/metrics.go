package main

import (
	"strings"
	"time"
)

// metricDecl declares one metric: BENCHMARK.json must say the same.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEndDecls are what an HPC user on an IaaS cloud pays. fail_frac, the
// tenth figure the issue lists, is reported through the result's attempted
// and failed counts and as a layer metric: an end-to-end metric may never be
// 0, and fail_frac must always be.
//
// The bounds are set from what was measured on the 2-core shared box this
// was written on (README.md has the numbers), not from the 0.10 the issue
// hoped for: a bound has to exceed what the host does to a run by itself,
// or the benchmark rejects itself and every later change with it. In quiet
// spells ten runs spread by 2-10%; but the host's speed also steps by a
// quarter for minutes at a time (every timing and the CPU seconds move
// together), so everything a clock measures gets the widest bound allowed.
// Only the space figure is a count, and repeats.
var endToEndDecls = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ckpt_p50_ms", "ms", "lower", 0.25},
	{"ckpt_mbps", "MiB/s", "higher", 0.25},
	{"suspend_p50_ms", "ms", "lower", 0.25},
	{"restart_p50_ms", "ms", "lower", 0.25},
	{"restart_mbps", "MiB/s", "higher", 0.25},
	{"first_read_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_gib", "s/GiB", "lower", 0.25},
	{"stored_per_live", "ratio", "lower", 0.10},
}

// perLayerDecls are the single-layer metrics of the traced run. A layer
// that does not run in a workload (localtier outside tiered_mixed) reads 0.
var perLayerDecls = []metricDecl{
	{Name: "transport.calls_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "transport.self_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "transport.calls_per_restart", Unit: "count", Better: "lower"},
	{Name: "transport.self_ms_per_restart", Unit: "ms", Better: "lower"},
	{Name: "transport.wire_bytes_per_dirty_byte", Unit: "ratio", Better: "lower"},
	{Name: "blobseer.client_self_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "blobseer.client_self_ms_per_restart", Unit: "ms", Better: "lower"},
	{Name: "blobseer.provider_self_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "blobseer.xfer_per_logical", Unit: "ratio", Better: "lower"},
	{Name: "blobseer.dedup_chunk_ratio", Unit: "ratio", Better: "higher"},
	{Name: "blobseer.retire_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "blobseer.read_failovers", Unit: "count", Better: "lower"},
	{Name: "cas.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cas.probe_calls_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "cas.put_calls_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "seglog.put_busy_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "seglog.fsyncs_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "seglog.puts_per_fsync", Unit: "count", Better: "higher"},
	{Name: "seglog.get_busy_ms_per_restart", Unit: "ms", Better: "lower"},
	{Name: "seglog.disk_per_live", Unit: "ratio", Better: "lower"},
	{Name: "seglog.elided_ratio", Unit: "ratio", Better: "higher"},
	{Name: "seglog.compactions", Unit: "count", Better: "lower"},
	{Name: "seglog.relocated_records", Unit: "count", Better: "lower"},
	{Name: "meta.srv_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "meta.calls_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "meta.nodes_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "meta.bytes_per_dirty_byte", Unit: "ratio", Better: "lower"},
	{Name: "meta.calls_per_restart", Unit: "count", Better: "lower"},
	{Name: "vmanager.srv_ms_per_ckpt", Unit: "ms", Better: "lower"},
	{Name: "vmanager.calls_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "mirror.remote_reads_per_restart", Unit: "count", Better: "lower"},
	{Name: "mirror.local_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mirror.dirty_chunks_per_ckpt", Unit: "count", Better: "lower"},
	{Name: "cloud.restart_deploy_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proxy.prefetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "localtier.local_safe_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "localtier.drain_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "localtier.stage_wire_bytes_per_dirty_byte", Unit: "ratio", Better: "lower"},
	{Name: "proc.alloc_bytes_per_dirty_byte", Unit: "ratio", Better: "lower"},
	{Name: "proc.mallocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "tail.ckpt_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.ckpt_pct", Unit: "%", Better: "higher"},
	{Name: "tail.ckpt_n", Unit: "count", Better: "higher"},
	{Name: "tail.suspend_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.suspend_pct", Unit: "%", Better: "higher"},
	{Name: "tail.suspend_n", Unit: "count", Better: "higher"},
	{Name: "tail.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.restart_pct", Unit: "%", Better: "higher"},
	{Name: "tail.restart_n", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf[T any](xs []T, f func(T) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ms(f(x))
	}
	return out
}

const mib = 1 << 20

// endToEnd derives the end-to-end metrics of one (untraced) run.
func endToEnd(r *runResult) map[string]float64 {
	ckptMs := msOf(r.ckpts, func(s ckptSample) time.Duration { return s.total })
	restartMs := msOf(r.fullRestarts(), func(s restartSample) time.Duration { return s.total })
	return map[string]float64{
		"setup_s":           median(msOf(r.setup, func(d time.Duration) time.Duration { return d })) / 1000,
		"ckpt_p50_ms":       median(ckptMs),
		"ckpt_mbps":         ratio(float64(r.dirtyBytes)/mib, sum(ckptMs)/1000),
		"suspend_p50_ms":    median(msOf(r.ckpts, func(s ckptSample) time.Duration { return s.suspend })),
		"restart_p50_ms":    median(restartMs),
		"restart_mbps":      ratio(float64(r.restoredBytes)/mib, sum(restartMs)/1000),
		"first_read_p50_ms": median(msOf(r.restarts, func(s restartSample) time.Duration { return s.firstRead })),
		"cpu_s_per_gib":     ratio(r.cpu.Seconds(), float64(r.dirtyBytes+r.restoredBytes+r.bootBytes)/(1<<30)),
		"stored_per_live":   ratio(sum(r.stored), float64(len(r.stored))),
	}
}

// fullRestarts are the restarts that restored the whole data region.
func (r *runResult) fullRestarts() []restartSample {
	var out []restartSample
	for _, s := range r.restarts {
		if s.full {
			out = append(out, s)
		}
	}
	return out
}

// isRepoRPC reports whether a client call went to a repository service
// rather than to a proxy: proxy verbs (WAIT, PREFETCH, ...) block across the
// repository calls they cause, so they are envelopes, not work.
func isRepoRPC(s span, roles map[string]string) bool {
	return strings.HasPrefix(s.Name, "rpc.") && roles[s.Addr] != "proxy"
}

// perLayer derives the single-layer metrics of one traced run. untracedP50
// is ckpt_p50_ms of the untraced run the traced one is compared with.
func perLayer(r *runResult, untracedP50 float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDecls))
	for _, d := range perLayerDecls {
		m[d.Name] = 0
	}
	nCkpt := float64(len(r.ckpts))
	full := r.fullRestarts()
	nRestart := float64(len(full)) // read-path work is normalised per full restart
	dirty := float64(r.dirtyBytes)

	if t := r.trace; t != nil {
		kids := t.childrenOf()
		type acc struct {
			calls, selfNs, wire float64
		}
		var ckpt, restart acc
		var metaCkptCalls, metaCkptSrvNs, metaReqBytes, metaRestartCalls float64
		var vmCalls, vmSrvNs, provSelfNs, stageWire float64
		var probes, puts float64
		repoByOp := make(map[int32][]interval) // repository calls per harness op
		putBusy := make(map[string][]interval) // store.put per provider, checkpoint phase
		getBusy := make(map[string][]interval)
		var durable, restartSpans []span

		for _, s := range t.spans {
			kind := t.kind(s)
			role := r.roles[s.Addr]
			switch layerOf(s.Name) {
			case "rpc":
				// Transport self time: the call minus the handler it waited
				// for — framing, copies, socket, scheduling.
				self := float64(s.dur())
				for _, c := range kids[s.ID] {
					if strings.HasPrefix(c.Name, "srv.") {
						self -= float64(c.dur())
					}
				}
				a := &ckpt
				if kind == opRestart {
					a = &restart
				}
				if kind == opCkpt || kind == opRestart {
					a.calls++
					a.selfNs += self
					a.wire += float64(s.Req + s.Resp)
				}
				if isRepoRPC(s, r.roles) && s.Op >= 0 {
					repoByOp[s.Op] = append(repoByOp[s.Op], interval{s.Start, s.End})
				}
				switch {
				case role == "meta" && kind == opCkpt:
					metaCkptCalls++
					metaReqBytes += float64(s.Req)
				case role == "meta" && kind == opRestart:
					metaRestartCalls++
				case role == "vmanager" && kind == opCkpt:
					vmCalls++
				}
				if kind == opCkpt {
					switch s.Name {
					case "rpc.cas-ref-batch":
						probes++
					case "rpc.cas-put-batch":
						puts++
					case "rpc.stage-put", "rpc.stage-release":
						stageWire += float64(s.Req + s.Resp)
					}
				}
			case "srv":
				if kind != opCkpt {
					break
				}
				switch role {
				case "meta":
					metaCkptSrvNs += float64(s.dur())
				case "vmanager":
					vmSrvNs += float64(s.dur())
				case "data":
					// Decode, index, second SHA-256: the handler minus the
					// store calls under it.
					provSelfNs += float64(selfTime(s, kids[s.ID]))
				}
			case "store":
				if role != "data" {
					break
				}
				switch s.Name {
				case "store.put":
					if kind == opCkpt {
						putBusy[s.Addr] = append(putBusy[s.Addr], interval{s.Start, s.End})
					}
				case "store.get":
					if kind == opRestart {
						getBusy[s.Addr] = append(getBusy[s.Addr], interval{s.Start, s.End})
					}
				}
			default:
				switch s.Name {
				case "ckpt.durable":
					durable = append(durable, s)
				case "restart":
					restartSpans = append(restartSpans, s)
				}
			}
		}
		busy := func(per map[string][]interval) float64 {
			var total int64
			for _, ivs := range per {
				total += unionLen(ivs, 0, 1<<62)
			}
			return float64(total)
		}
		// Client self time: the window not covered by any repository call of
		// the same operation — hashing, grouping, map plumbing, and on the
		// restart path the boot and the local copy-out.
		uncovered := func(spans []span) float64 {
			var total int64
			for _, s := range spans {
				total += s.dur() - unionLen(append([]interval(nil), repoByOp[s.Op]...), s.Start, s.End)
			}
			return float64(total)
		}
		const nsPerMs = 1e6
		m["transport.calls_per_ckpt"] = ratio(ckpt.calls, nCkpt)
		m["transport.self_ms_per_ckpt"] = ratio(ckpt.selfNs/nsPerMs, nCkpt)
		m["transport.calls_per_restart"] = ratio(restart.calls, nRestart)
		m["transport.self_ms_per_restart"] = ratio(restart.selfNs/nsPerMs, nRestart)
		m["transport.wire_bytes_per_dirty_byte"] = ratio(ckpt.wire, dirty)
		m["blobseer.client_self_ms_per_ckpt"] = ratio(uncovered(durable)/nsPerMs, nCkpt)
		m["blobseer.client_self_ms_per_restart"] = ratio(uncovered(restartSpans)/nsPerMs, nRestart)
		m["blobseer.provider_self_ms_per_ckpt"] = ratio(provSelfNs/nsPerMs, nCkpt)
		m["cas.probe_calls_per_ckpt"] = ratio(probes, nCkpt)
		m["cas.put_calls_per_ckpt"] = ratio(puts, nCkpt)
		m["seglog.put_busy_ms_per_ckpt"] = ratio(busy(putBusy)/nsPerMs, nCkpt)
		m["seglog.get_busy_ms_per_restart"] = ratio(busy(getBusy)/nsPerMs, nRestart)
		m["meta.srv_ms_per_ckpt"] = ratio(metaCkptSrvNs/nsPerMs, nCkpt)
		m["meta.calls_per_ckpt"] = ratio(metaCkptCalls, nCkpt)
		m["meta.bytes_per_dirty_byte"] = ratio(metaReqBytes, dirty)
		m["meta.calls_per_restart"] = ratio(metaRestartCalls, nRestart)
		m["vmanager.srv_ms_per_ckpt"] = ratio(vmSrvNs/nsPerMs, nCkpt)
		m["vmanager.calls_per_ckpt"] = ratio(vmCalls, nCkpt)
		m["localtier.stage_wire_bytes_per_dirty_byte"] = ratio(stageWire, dirty)
	}

	// Stage timings the harness took itself.
	m["cloud.restart_deploy_ms_p50"] = median(msOf(r.restarts, func(s restartSample) time.Duration { return s.deploy }))
	m["proxy.prefetch_ms_p50"] = median(msOf(full, func(s restartSample) time.Duration { return s.prefetch }))
	if r.w.Tiered {
		m["localtier.local_safe_ms_p50"] = median(msOf(r.ckpts, func(s ckptSample) time.Duration { return s.local }))
		m["localtier.drain_lag_ms_p50"] = median(msOf(r.ckpts, func(s ckptSample) time.Duration { return s.total - s.local }))
	}

	// Counts from the layers' own accessors, over the checkpoint phase.
	cs := r.after.commit
	cs0 := r.before.commit
	chunks := float64(cs.Chunks - cs0.Chunks)
	m["blobseer.xfer_per_logical"] = ratio(float64(cs.TransferBytes-cs0.TransferBytes), float64(cs.LogicalBytes-cs0.LogicalBytes))
	m["blobseer.dedup_chunk_ratio"] = ratio(float64(cs.DedupChunks-cs0.DedupChunks), chunks)
	m["mirror.dirty_chunks_per_ckpt"] = ratio(chunks, float64(r.after.commits-r.before.commits))
	m["blobseer.retire_ms_p50"] = median(msOf(r.retires, func(d time.Duration) time.Duration { return d }))
	m["blobseer.read_failovers"] = float64(r.end.failovers - r.before.failovers)
	hits := float64(r.after.cas.Hits - r.before.cas.Hits)
	misses := float64(r.after.cas.Misses - r.before.cas.Misses)
	m["cas.hit_ratio"] = ratio(hits, hits+misses)
	eng := func(name string) float64 { return float64(r.after.provider[name] - r.before.provider[name]) }
	m["seglog.fsyncs_per_ckpt"] = ratio(eng("fsyncs"), nCkpt)
	m["seglog.puts_per_fsync"] = ratio(eng("puts"), eng("fsyncs"))
	m["seglog.elided_ratio"] = ratio(eng("zero_chunks"), eng("puts"))
	m["seglog.disk_per_live"] = ratio(float64(r.end.provider["disk_bytes"]), float64(r.end.provider["live_bytes"]))
	m["seglog.compactions"] = float64(r.end.provider["compactions"] - r.before.provider["compactions"])
	m["seglog.relocated_records"] = float64(r.end.provider["relocated_records"] - r.before.provider["relocated_records"])
	m["meta.nodes_per_ckpt"] = ratio(float64(r.after.metaNodes-r.before.metaNodes), nCkpt)

	var remote, localHits float64
	for _, s := range full {
		remote += float64(s.remote)
		localHits += float64(s.hits)
	}
	m["mirror.remote_reads_per_restart"] = ratio(remote, nRestart)
	m["mirror.local_hit_ratio"] = ratio(localHits, localHits+remote)

	m["proc.alloc_bytes_per_dirty_byte"] = ratio(float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc), dirty)
	m["proc.mallocs_per_chunk"] = ratio(float64(r.after.mem.Mallocs-r.before.mem.Mallocs), float64(r.dirtyChunks))
	m["proc.gc_pause_ms"] = float64(r.end.mem.PauseTotalNs-r.before.mem.PauseTotalNs) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMiB()

	ckptMs := msOf(r.ckpts, func(s ckptSample) time.Duration { return s.total })
	for _, t := range []struct {
		name string
		xs   []float64
	}{
		{"ckpt", ckptMs},
		{"suspend", msOf(r.ckpts, func(s ckptSample) time.Duration { return s.suspend })},
		{"restart", msOf(full, func(s restartSample) time.Duration { return s.total })},
	} {
		pct, v := tail(t.xs)
		m["tail."+t.name+"_ms"] = v
		m["tail."+t.name+"_pct"] = pct
		m["tail."+t.name+"_n"] = float64(len(t.xs))
	}
	if untracedP50 > 0 {
		m["trace.overhead_frac"] = median(ckptMs)/untracedP50 - 1
	}
	m["fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	return m
}
