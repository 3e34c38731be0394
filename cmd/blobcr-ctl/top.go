package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"blobcr/internal/health"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// topRefresh is the dashboard redraw period.
const topRefresh = 2 * time.Second

// topWindow is the trailing window every rate and quantile on the dashboard
// is computed over, via the supervisor's history-get op.
const topWindow = time.Minute

// topQuery renders the live cluster dashboard off a federating supervisor's
// introspection endpoint. Everything on screen comes from that one endpoint:
// the metrics exposition of the cluster registry (per-node backlog gauges,
// liveness, active alerts), the history ring's windowed view of the same
// registry (per-node suspend p99 and commit throughput over the last
// minute), and the health verdict. No per-node connections are opened —
// federation already moved the fleet's series here.
func topQuery(addr string, timeout time.Duration, once bool) {
	net := transport.NewTCP()
	for {
		frame := renderTopFrame(net, addr, timeout)
		if !once {
			fmt.Print("\033[H\033[2J") // clear screen between refreshes
		}
		os.Stdout.WriteString(frame)
		if once {
			return
		}
		time.Sleep(topRefresh)
	}
}

// renderTopFrame collects one dashboard frame's data and renders it.
func renderTopFrame(net transport.Network, addr string, timeout time.Duration) string {
	ctx, cancel := withTimeout(timeout)
	defer cancel()
	points, err := transport.Metrics(ctx, net, addr)
	if err != nil {
		log.Fatalf("top: %v", err)
	}
	// The windowed view and the health verdict are best-effort: a supervisor
	// running without Config.Health still renders the liveness table.
	var rep obs.WindowReport
	if r, err := transport.History(ctx, net, addr, topWindow); err == nil {
		rep = r
	}
	verdict := ""
	if ok, firing, err := transport.Health(ctx, net, addr); err == nil {
		verdict = "OK"
		if !ok {
			verdict = strings.Join(append([]string{"DEGRADED"}, firing...), " ")
		}
	}

	var b strings.Builder
	renderTop(&b, addr, points, rep, verdict)
	return b.String()
}

// topRow is one node's line of the dashboard table.
type topRow struct {
	node    string
	up      bool
	p99ms   string // suspend p99 over the window
	backlog string // staged bytes not yet globally durable
	commit  string // commit MB/s over the window (wire bytes)
	alerts  string // firing alert names scoped to this node
}

// renderTop renders one frame: the cluster headline, the per-node table, and
// the firing alerts with their rules.
func renderTop(b *strings.Builder, addr string, points []obs.Point, rep obs.WindowReport, verdict string) {
	now := time.Now().Format("15:04:05")
	rounds := uint64(0)
	if p := obs.Find(points, "federation_rounds_total"); p != nil {
		rounds = p.Value
	}
	fmt.Fprintf(b, "blobcr top — %s at %s  (federation round %d, window %ds",
		addr, now, rounds, int(topWindow.Seconds()))
	if rep.Samples > 0 {
		fmt.Fprintf(b, ", %d samples", rep.Samples)
	}
	b.WriteString(")\n")
	switch {
	case verdict == "" || verdict == "OK":
		status := "HEALTHY"
		if verdict == "" {
			status = "no health plane (supervisor runs without Config.Health)"
		}
		fmt.Fprintf(b, "cluster: %s\n", status)
	default:
		fmt.Fprintf(b, "cluster: %s\n", verdict)
	}

	rows := topRows(points, rep)
	if len(rows) == 0 {
		b.WriteString("\nno federated nodes yet (first scrape round pending)\n")
		return
	}
	fmt.Fprintf(b, "\n%-12s %-5s %12s %22s %12s  %s\n",
		"NODE", "UP", "SUSPEND-P99", "BACKLOG", "COMMIT-MB/S", "ALERTS")
	for _, r := range rows {
		up := "yes"
		if !r.up {
			up = "NO"
		}
		fmt.Fprintf(b, "%-12s %-5s %12s %22s %12s  %s\n",
			r.node, up, r.p99ms, r.backlog, r.commit, r.alerts)
	}

	// Cluster-scoped alerts (no node entity) don't fit a table row.
	var global []string
	for i := range points {
		p := &points[i]
		if p.Name == "health_alert_active" && p.Kind == obs.KindGauge &&
			p.GaugeValue == 1 && p.Label(health.NodeLabel) == "" {
			global = append(global, p.Label("alert"))
		}
	}
	if len(global) > 0 {
		sort.Strings(global)
		fmt.Fprintf(b, "\ncluster alerts firing: %s\n", strings.Join(global, " "))
	}
}

// topRows builds the per-node table from the federated exposition (liveness,
// backlog gauges, per-node alerts) and the windowed report (suspend p99,
// commit throughput).
func topRows(points []obs.Point, rep obs.WindowReport) []topRow {
	// The node set is whatever federation has filed liveness for.
	up := map[string]bool{}
	for i := range points {
		p := &points[i]
		if p.Name == "federation_node_up" && p.Kind == obs.KindGauge {
			if n := p.Label(health.NodeLabel); n != "" {
				up[n] = p.GaugeValue == 1
			}
		}
	}
	nodes := make([]string, 0, len(up))
	for n := range up {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	rows := make([]topRow, 0, len(nodes))
	for _, node := range nodes {
		r := topRow{node: node, up: up[node], p99ms: "-", backlog: "-", commit: "-"}
		nl := obs.L(health.NodeLabel, node)
		if st := rep.Find("proxy_suspend_ns", nl); st != nil && st.Count > 0 {
			r.p99ms = fmt.Sprintf("%.2f ms", st.P99/1e6)
		}
		if p := obs.Find(points, "supervisor_drain_backlog_bytes", nl); p != nil {
			r.backlog = fmtBytes(p.GaugeValue)
			if c := obs.Find(points, "supervisor_drain_backlog_chunks", nl); c != nil && c.GaugeValue > 0 {
				r.backlog += fmt.Sprintf(" (%d ch)", c.GaugeValue)
			}
		}
		if st := rep.Find("blobseer_commit_transfer_bytes_total", nl); st != nil {
			r.commit = fmt.Sprintf("%.2f", st.Rate/1e6)
		}
		var firing []string
		for i := range points {
			p := &points[i]
			if p.Name == "health_alert_active" && p.Kind == obs.KindGauge &&
				p.GaugeValue == 1 && p.Label(health.NodeLabel) == node {
				firing = append(firing, p.Label("alert"))
			}
		}
		sort.Strings(firing)
		r.alerts = strings.Join(firing, " ")
		rows = append(rows, r)
	}
	return rows
}

// fmtBytes renders a byte gauge human-readably.
func fmtBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%d B", v)
	}
}
