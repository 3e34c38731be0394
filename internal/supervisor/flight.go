package supervisor

import (
	"context"
	"fmt"
	"time"

	"blobcr/internal/cloud"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// FlightDump is one node's flight-recorder snapshot: the most recent spans
// its proxy and co-located data provider completed, mirrored off both
// endpoints' flight-get op during heartbeat rounds. A dump that survives the
// node's confirmed death is marked Final — the post-mortem record of what
// the node was doing in its last instants, available after the node itself
// can no longer answer.
type FlightDump struct {
	Node  string
	Taken time.Time
	Final bool // archived at the node's confirmed death
	Spans []obs.SpanRecord
}

// mirrorFlights refreshes the retained flight dump of every node that
// answered this heartbeat round. The fetches ride the round's ping contexts'
// deadline budget conceptually but run after the pings resolved, bounded by
// one PingTimeout for the whole sweep: mirroring is best-effort — a fetch
// that fails simply leaves the previous dump in place, which is exactly the
// dump a death would archive.
func (s *Supervisor) mirrorFlights(ctx context.Context, nodes []*cloud.Node, errs []error) {
	fctx, cancel := context.WithTimeout(ctx, s.cfg.PingTimeout)
	defer cancel()
	net := s.cl.Network()
	for i, node := range nodes {
		if errs[i] != nil {
			continue // unreachable this round; keep the last good dump
		}
		spans, err := transport.Flight(fctx, net, node.ProxyAddr)
		if err != nil {
			continue
		}
		if node.DataAddr != "" {
			if ds, err := transport.Flight(fctx, net, node.DataAddr); err == nil {
				spans = mergeSpans(spans, ds)
			}
		}
		s.flightMu.Lock()
		s.flights[node.Name] = FlightDump{Node: node.Name, Taken: time.Now(), Spans: spans}
		s.flightMu.Unlock()
		s.reg.Counter("supervisor_flight_mirrors_total").Inc()
	}
}

// archiveFlight marks a confirmed-dead node's last mirrored dump final and
// events the archival. Called once per confirmed failure; a node with no
// mirrored dump (it died before the first mirror round reached it) archives
// an empty final dump so the FLIGHT op still answers.
func (s *Supervisor) archiveFlight(name string) {
	s.flightMu.Lock()
	d := s.flights[name]
	d.Node = name
	d.Final = true
	if d.Taken.IsZero() {
		d.Taken = time.Now()
	}
	s.flights[name] = d
	s.flightMu.Unlock()
	s.reg.Counter("supervisor_flight_archived_total").Inc()
	age := time.Since(d.Taken).Round(time.Millisecond)
	s.log.append(Event{Type: EventFlightArchived, Node: name,
		Detail: formatFlightDetail(len(d.Spans), age)})
}

// Flight returns the retained flight dump of one node: the last mirrored
// snapshot while the node lives, the final archived one after its confirmed
// death.
func (s *Supervisor) Flight(name string) (FlightDump, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	d, ok := s.flights[name]
	if !ok {
		return FlightDump{}, false
	}
	d.Spans = append([]obs.SpanRecord(nil), d.Spans...)
	return d, true
}

// mergeSpans concatenates two span sets, dropping duplicates by span id.
// In-process deployments may route a node's proxy and data provider to the
// same registry, so the two endpoints can answer overlapping rings;
// span ids are unique per process, which makes the id a safe dedup key.
func mergeSpans(a, b []obs.SpanRecord) []obs.SpanRecord {
	seen := make(map[uint64]bool, len(a))
	for _, s := range a {
		seen[s.ID] = true
	}
	out := a
	for _, s := range b {
		if !seen[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

func formatFlightDetail(n int, age time.Duration) string {
	if n == 0 {
		return "no flight dump mirrored before death"
	}
	return fmt.Sprintf("archived %d spans, mirrored %s before confirmation", n, age)
}
