// Package health is the cluster health plane: fleet-wide scrape federation
// and a declarative SLO rule engine over metric history rings.
//
// The telemetry PRs left every signal point-in-time and per-process: a
// metrics scrape answers for one registry, now. This package adds the two
// missing dimensions. obs.History (the metric history ring) adds time —
// windowed rates, quantiles and gauge extrema over the last N seconds. The
// Federator adds space — the supervisor pulls every proxy's, data
// provider's and the repair endpoint's exposition each heartbeat round and
// merges them into one cluster registry under node= labels, so a single
// scrape answers for the whole deployment. The Engine closes the loop:
// threshold and multi-window burn-rate rules evaluated over the federated
// ring turn "the drain backlog has grown for two windows straight" into a
// firing alert — a supervisor event, a health_alert_active gauge, and a
// DEGRADED answer on the health-get op and /healthz.
package health

import (
	"context"
	"sync"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// NodeLabel is the label key federation files every imported series under.
const NodeLabel = "node"

// Target is one scrape endpoint of the fleet.
type Target struct {
	Node string // node= label value its series are filed under
	Addr string
}

// Config tunes the supervisor's health plane (supervisor.Config.Health).
type Config struct {
	// Every federates every Nth heartbeat round. 0 means every round.
	Every int
	// HistoryCap is the cluster registry's ring capacity (default 256
	// samples, one per federation round).
	HistoryCap int
	// Rules are the SLO rules evaluated after each federation round; nil
	// means DefaultRules.
	Rules []Rule
	// RepairAddr optionally names a served repair endpoint to scrape (its
	// series are filed under node="repair").
	RepairAddr string
}

// Options tunes per-node observability in cloud.Config.Health: each node's
// proxy gets its own registry with a history ring, so the per-node series a
// federating supervisor collects are genuinely distinct.
type Options struct {
	// SampleEvery is each node ring's sample period (default 500ms).
	SampleEvery time.Duration
	// HistoryCap is each node ring's capacity (default 128 samples).
	HistoryCap int
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 500 * time.Millisecond
	}
	if o.HistoryCap <= 0 {
		o.HistoryCap = 128
	}
	return o
}

// Federator pulls metric expositions from a fleet of scrape targets and
// merges them into one cluster registry under node= labels (obs.Import).
// Scrapes are best-effort: a node dying mid-scrape keeps its last imported
// values (the supervisor's failure detector, not the scraper, decides what
// a silent node means) and drops federation_node_up{node=} to 0.
type Federator struct {
	Net transport.Network
	Reg *obs.Registry // the cluster registry scrapes merge into
	// Timeout bounds one whole sweep (default 2s).
	Timeout time.Duration
}

// Scrape runs one federation sweep over targets, concurrently. Metrics about
// the sweep itself land in Reg: federation_rounds_total,
// federation_scrapes_total, federation_scrape_errors_total{node=} and
// federation_node_up{node=} (1 only when every one of the node's targets
// answered this round).
func (f *Federator) Scrape(ctx context.Context, targets []Target) {
	timeout := f.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	f.Reg.Counter("federation_rounds_total").Inc()
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.scrapeOne(ctx, targets[i])
		}(i)
	}
	wg.Wait()

	up := make(map[string]bool)
	for i, t := range targets {
		ok, seen := up[t.Node]
		if !seen {
			ok = true
		}
		if errs[i] != nil {
			ok = false
			f.Reg.Counter("federation_scrape_errors_total", obs.L(NodeLabel, t.Node)).Inc()
		} else {
			f.Reg.Counter("federation_scrapes_total").Inc()
		}
		up[t.Node] = ok
	}
	for node, ok := range up {
		v := int64(0)
		if ok {
			v = 1
		}
		f.Reg.Gauge("federation_node_up", obs.L(NodeLabel, node)).Set(v)
	}
}

func (f *Federator) scrapeOne(ctx context.Context, t Target) error {
	points, err := transport.Metrics(ctx, f.Net, t.Addr)
	if err != nil {
		return err
	}
	f.Reg.Import(points, obs.L(NodeLabel, t.Node))
	return nil
}
