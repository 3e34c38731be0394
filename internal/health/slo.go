package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"blobcr/internal/obs"
)

// Agg selects how a Signal reduces a windowed series to one number.
type Agg int

const (
	// AggRate is a counter's per-second increase over the window (summed
	// across matching series).
	AggRate Agg = iota
	// AggP99 / AggP50 / AggMean reduce a histogram's in-window observations
	// (worst matching series wins).
	AggP99
	AggP50
	AggMean
	// AggGaugeLast / AggGaugeMin / AggGaugeMax / AggGaugeDelta reduce a
	// gauge over the window's samples; Delta is last minus baseline — the
	// burn-rate shape for backlog growth. Last and Delta sum across matching
	// series, Min and Max take the extreme.
	AggGaugeLast
	AggGaugeMin
	AggGaugeMax
	AggGaugeDelta
)

// Signal names one windowed quantity: a metric, fixed label matches, and the
// aggregation. Div, when set, divides by a second signal over the same
// window (hit rates, miss ratios); a zero or absent denominator makes the
// signal unevaluable for that window — no data never breaches.
type Signal struct {
	Metric string
	Labels []obs.Label
	Agg    Agg
	Div    *Signal
}

// Rule is one declarative SLO. With a single window it is a plain threshold
// rule; with several it is a multi-window burn-rate rule — every window must
// breach at once, so a short spike (long window clear) and a slow creep
// (short window clear) both stay quiet while a sustained burn fires.
type Rule struct {
	Name   string
	Signal Signal
	// PerNode evaluates the rule separately per node= label value.
	PerNode bool
	// Windows to evaluate, all of which must breach (at least one).
	Windows []time.Duration
	// Threshold with Below=false fires on value > Threshold; Below=true
	// fires on value < Threshold.
	Threshold float64
	Below     bool
	// FireAfter / ResolveAfter are the hysteresis: consecutive breaching
	// (resp. clear) evaluations before the alert transitions (default 1).
	FireAfter    int
	ResolveAfter int
}

// Alert is one firing (or just-resolved) rule instance.
type Alert struct {
	Rule  string
	Node  string // "" for cluster-wide rules
	Value float64
	Since time.Time // first evaluation of the breach streak that fired
}

// Name renders "rule" or "rule(node)".
func (a Alert) Name() string {
	if a.Node == "" {
		return a.Rule
	}
	return fmt.Sprintf("%s(%s)", a.Rule, a.Node)
}

// DefaultRules is the stock SLO set over the signals every deployment
// already exports: the paper's headline quantities (suspend window, drain
// backlog, MTTR) plus the storage-efficiency regressions (dedup hit rate,
// seglog live ratio) that degrade silently.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:      "suspend-p99-high",
			Signal:    Signal{Metric: "proxy_suspend_ns", Agg: AggP99},
			PerNode:   true,
			Windows:   []time.Duration{30 * time.Second, 2 * time.Minute},
			Threshold: float64(500 * time.Millisecond),
			FireAfter: 2, ResolveAfter: 2,
		},
		{
			Name:      "drain-backlog-growing",
			Signal:    Signal{Metric: "supervisor_drain_backlog_bytes", Agg: AggGaugeDelta},
			PerNode:   true,
			Windows:   []time.Duration{10 * time.Second, 30 * time.Second},
			Threshold: 1 << 20, // sustained growth past 1 MiB across both windows
			FireAfter: 1, ResolveAfter: 2,
		},
		{
			Name: "heartbeat-miss-rate-high",
			Signal: Signal{
				Metric: "supervisor_heartbeats_missed_total", Agg: AggRate,
				Div: &Signal{Metric: "supervisor_heartbeats_total", Agg: AggRate},
			},
			Windows:   []time.Duration{15 * time.Second, time.Minute},
			Threshold: 0.05,
			FireAfter: 1, ResolveAfter: 3,
		},
		{
			Name:      "storage-mttr-high",
			Signal:    Signal{Metric: "supervisor_storage_mttr_ns", Agg: AggMean},
			Windows:   []time.Duration{5 * time.Minute},
			Threshold: float64(2 * time.Second),
			FireAfter: 1, ResolveAfter: 1,
		},
		{
			Name: "dedup-hit-rate-collapsed",
			Signal: Signal{
				Metric: "blobseer_dedup_hit_bytes_total", Agg: AggRate,
				Div: &Signal{Metric: "blobseer_commit_logical_bytes_total", Agg: AggRate},
			},
			Windows: []time.Duration{30 * time.Second, 2 * time.Minute},
			Below:   true, Threshold: 0.05,
			FireAfter: 2, ResolveAfter: 2,
		},
		{
			Name:    "seglog-live-ratio-low",
			Signal:  Signal{Metric: "seglog_live_ratio_pct", Agg: AggGaugeMin},
			PerNode: true,
			Windows: []time.Duration{time.Minute},
			Below:   true, Threshold: 30,
			FireAfter: 2, ResolveAfter: 2,
		},
	}
}

// Engine evaluates rules over a history ring and tracks alert state with
// fire/resolve hysteresis. Firings and resolutions surface three ways: the
// OnFire/OnResolve callbacks (the supervisor turns them into events),
// health_alert_active{alert=,node=} gauges in Reg, and Status (wired into
// the health-get op and /healthz via obs.Registry.SetHealth).
type Engine struct {
	Reg       *obs.Registry
	Rules     []Rule
	OnFire    func(Alert)
	OnResolve func(Alert)

	mu    sync.Mutex
	state map[string]*alertState
}

type alertState struct {
	firing        bool
	breach, clear int
	value         float64
	since         time.Time
}

// NewEngine builds an engine over rules (nil means DefaultRules) recording
// alert gauges into reg.
func NewEngine(reg *obs.Registry, rules []Rule) *Engine {
	if rules == nil {
		rules = DefaultRules()
	}
	return &Engine{Reg: reg, Rules: rules, state: make(map[string]*alertState)}
}

// Status reports readiness for obs.Registry.SetHealth: ok when nothing
// fires, else the sorted firing alert names.
func (e *Engine) Status() (ok bool, firing []string) {
	for _, a := range e.Active() {
		firing = append(firing, a.Name())
	}
	return len(firing) == 0, firing
}

// Active returns the currently firing alerts, sorted by name.
func (e *Engine) Active() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Alert
	for k, s := range e.state {
		if !s.firing {
			continue
		}
		rule, node := splitStateKey(k)
		out = append(out, Alert{Rule: rule, Node: node, Value: s.value, Since: s.since})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Eval runs one evaluation round over the ring's current contents and
// returns the alerts active afterwards. Callbacks run inline, without the
// engine lock held.
func (e *Engine) Eval(h *obs.History) []Alert {
	at := time.Now() // Alert.Since — domain data, not a latency measurement
	windows := make(map[time.Duration]*obs.WindowReport)
	for _, r := range e.Rules {
		for _, w := range r.Windows {
			windows[w] = nil
		}
	}
	for w := range windows {
		rep := h.Window(w)
		windows[w] = &rep
	}

	var fired, resolved []Alert
	e.mu.Lock()
	for ri := range e.Rules {
		rule := &e.Rules[ri]
		if len(rule.Windows) == 0 {
			continue
		}
		shortest := rule.Windows[0]
		for _, w := range rule.Windows[1:] {
			if w < shortest {
				shortest = w
			}
		}
		entities := e.ruleEntities(rule, windows[shortest])
		for _, node := range entities {
			breached := true
			var value float64
			for _, w := range rule.Windows {
				v, ok := signalValue(windows[w], &rule.Signal, node)
				if !ok {
					breached = false
					break
				}
				if w == shortest {
					value = v
				}
				if rule.Below {
					if v >= rule.Threshold {
						breached = false
						break
					}
				} else if v <= rule.Threshold {
					breached = false
					break
				}
			}
			k := stateKey(rule.Name, node)
			s := e.state[k]
			if s == nil {
				s = &alertState{}
				e.state[k] = s
			}
			if breached {
				if s.breach == 0 {
					s.since = at
				}
				s.breach++
				s.clear = 0
				s.value = value
				fireAfter := rule.FireAfter
				if fireAfter < 1 {
					fireAfter = 1
				}
				if !s.firing && s.breach >= fireAfter {
					s.firing = true
					fired = append(fired, Alert{Rule: rule.Name, Node: node, Value: value, Since: s.since})
				}
			} else {
				s.clear++
				s.breach = 0
				resolveAfter := rule.ResolveAfter
				if resolveAfter < 1 {
					resolveAfter = 1
				}
				if s.firing && s.clear >= resolveAfter {
					s.firing = false
					resolved = append(resolved, Alert{Rule: rule.Name, Node: node, Value: s.value, Since: s.since})
				}
			}
		}
	}
	e.mu.Unlock()

	for _, a := range fired {
		e.Reg.Gauge("health_alert_active", obs.L("alert", a.Rule), obs.L(NodeLabel, a.Node)).Set(1)
		e.Reg.Counter("health_alerts_fired_total", obs.L("alert", a.Rule)).Inc()
		if e.OnFire != nil {
			e.OnFire(a)
		}
	}
	for _, a := range resolved {
		e.Reg.Gauge("health_alert_active", obs.L("alert", a.Rule), obs.L(NodeLabel, a.Node)).Set(0)
		e.Reg.Counter("health_alerts_resolved_total", obs.L("alert", a.Rule)).Inc()
		if e.OnResolve != nil {
			e.OnResolve(a)
		}
	}
	return e.Active()
}

// ruleEntities lists the node label values a per-node rule evaluates over
// (plus every entity with existing state, so a vanished node's alert can
// still resolve). Cluster-wide rules evaluate once, under "".
func (e *Engine) ruleEntities(rule *Rule, rep *obs.WindowReport) []string {
	if !rule.PerNode {
		return []string{""}
	}
	seen := make(map[string]bool)
	for i := range rep.Stats {
		st := &rep.Stats[i]
		if st.Name != rule.Signal.Metric {
			continue
		}
		for _, l := range st.Labels {
			if l.Key == NodeLabel && l.Value != "" {
				seen[l.Value] = true
			}
		}
	}
	for k := range e.state {
		if r, node := splitStateKey(k); r == rule.Name && node != "" {
			seen[node] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func stateKey(rule, node string) string { return rule + "\xff" + node }

func splitStateKey(k string) (rule, node string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '\xff' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// signalValue reduces a window report to sig's value for one entity. ok is
// false when no matching series carries data in the window (or the
// denominator of a ratio is absent or zero) — unevaluable never breaches.
func signalValue(rep *obs.WindowReport, sig *Signal, node string) (float64, bool) {
	v, ok := aggValue(rep, sig, node)
	if !ok {
		return 0, false
	}
	if sig.Div != nil {
		d, ok := aggValue(rep, sig.Div, node)
		if !ok || d <= 0 {
			return 0, false
		}
		v /= d
	}
	return v, true
}

func aggValue(rep *obs.WindowReport, sig *Signal, node string) (float64, bool) {
	want := sig.Labels
	if node != "" {
		want = append(append([]obs.Label(nil), want...), obs.L(NodeLabel, node))
	}
	matched := false
	var acc float64
	for i := range rep.Stats {
		st := &rep.Stats[i]
		if st.Name != sig.Metric || !statMatches(st, want) {
			continue
		}
		var v float64
		switch sig.Agg {
		case AggRate:
			if st.Kind != obs.KindCounter {
				continue
			}
			v = st.Rate
		case AggP99, AggP50, AggMean:
			if st.Kind != obs.KindHistogram || st.Count == 0 {
				continue
			}
			switch sig.Agg {
			case AggP99:
				v = st.P99
			case AggP50:
				v = st.P50
			default:
				v = st.Mean
			}
		default:
			if st.Kind != obs.KindGauge {
				continue
			}
			switch sig.Agg {
			case AggGaugeLast:
				v = float64(st.Last)
			case AggGaugeMin:
				v = float64(st.Min)
			case AggGaugeMax:
				v = float64(st.Max)
			case AggGaugeDelta:
				v = float64(st.Last - st.First)
			}
		}
		if !matched {
			acc = v
			matched = true
			continue
		}
		switch sig.Agg {
		case AggRate, AggGaugeLast, AggGaugeDelta:
			acc += v
		case AggGaugeMin:
			acc = min(acc, v)
		default: // quantiles, mean, gauge max: worst series wins
			acc = max(acc, v)
		}
	}
	return acc, matched
}

func statMatches(st *obs.WindowStat, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, l := range st.Labels {
			if l.Key == w.Key {
				found = l.Value == w.Value
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
