package supervisor

import (
	"context"
	"fmt"

	"blobcr/internal/cloud"
	"blobcr/internal/health"
	"blobcr/internal/obs"
)

// startHealth wires the cluster health plane at construction: the federation
// scraper and SLO engine over the supervisor's own registry, whose history
// ring is sampled manually once per federation round so every window query
// aligns with scrape rounds. The engine's status backs the health-get op and
// any /healthz listener sharing the registry.
func (s *Supervisor) startHealth(cfg *health.Config) {
	capN := cfg.HistoryCap
	if capN <= 0 {
		capN = 256
	}
	s.reg.StartHistory(0, capN)
	s.fed = &health.Federator{Net: s.cl.Network(), Reg: s.reg, Timeout: s.cfg.PingTimeout}
	s.engine = health.NewEngine(s.reg, cfg.Rules)
	s.engine.OnFire = func(a health.Alert) {
		s.log.append(Event{
			Type: EventAlertFiring, Node: a.Node,
			Detail: fmt.Sprintf("alert=%s value=%g round=%d", a.Rule, a.Value, s.healthRounds()),
		})
	}
	s.engine.OnResolve = func(a health.Alert) {
		s.log.append(Event{
			Type: EventAlertResolved, Node: a.Node,
			Detail: fmt.Sprintf("alert=%s round=%d", a.Rule, s.healthRounds()),
		})
	}
	s.reg.SetHealth(s.engine.Status)
}

// healthRounds reads the federation round counter — the unit detection
// latency is promised in ("fires within 2 scrape periods"), immune to
// scheduler jitter in a way wall-clock assertions are not.
func (s *Supervisor) healthRounds() uint64 {
	return s.reg.Counter("federation_rounds_total").Value()
}

// Alerts returns the currently firing SLO alerts; nil without Config.Health.
func (s *Supervisor) Alerts() []health.Alert {
	if s.engine == nil {
		return nil
	}
	return s.engine.Active()
}

// healthRound runs one federation sweep over the live nodes, samples the
// cluster ring, and evaluates the SLO rules. Runs inside the heartbeat round
// (gated by Config.Health.Every), reusing the liveness survey's node list so
// a node the detector already confirmed dead is not re-scraped.
func (s *Supervisor) healthRound(ctx context.Context, nodes []*cloud.Node) {
	hcfg := s.cfg.Health
	var targets []health.Target
	for _, node := range nodes {
		targets = append(targets, health.Target{Node: node.Name, Addr: node.ProxyAddr})
		if node.DataAddr != "" {
			targets = append(targets, health.Target{Node: node.Name, Addr: node.DataAddr})
		}
	}
	if hcfg.RepairAddr != "" {
		targets = append(targets, health.Target{Node: "repair", Addr: hcfg.RepairAddr})
	}
	s.fed.Scrape(ctx, targets)
	if h := s.reg.History(); h != nil {
		h.Sample()
		s.evalAlerts(h)
	}
}

// evalAlerts runs the engine and mirrors the active-alert count into a
// gauge (the dashboard's headline number).
func (s *Supervisor) evalAlerts(h *obs.History) {
	active := s.engine.Eval(h)
	s.reg.Gauge("health_alerts_firing").Set(int64(len(active)))
}
