package supervisor

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// Serve binds the supervisor's introspection endpoint on the network, for
// blobcr-ctl events, status and top, and for external dashboards. Like every
// endpoint it answers the binary introspection ops (transport.Introspect) —
// metrics, trace, flight, history and health — from its registry, which
// under Config.Health is the federated cluster registry. Its control verbs
// are the same REST-ful text style as the checkpointing proxy:
//
//	request:  EVENTS <since-seq>
//	response: OK <n>\n<one event line per event> | ERR <message>
//
//	request:  STATUS
//	response: OK gen=<generation> watermark=<ckpt-id> local-watermark=<ckpt-id>
//	             interval=<duration> recoveries=<n> mean-mttr=<duration>
//	             work-lost=<duration> repairs=<n> replicas-restored=<n>
//	             storage-mttr=<duration>
//	             [backlog.<node>=<ckpts>/<chunks>/<bytes> ...]
//
// local-watermark is the multilevel first watermark: the newest checkpoint
// staged in every member's node-local tier and partner replica (always ≥
// watermark; equal when the drain has caught up or no local tier runs). The
// backlog fields — one per local-tier node, own captures and held partner
// replicas combined — are what the drain still owes the remote plane.
//
//	request:  FLIGHT <node>
//	response: OK v1\n<span lines> | OK v1 FINAL\n<span lines> — the named
//	          node's retained flight-recorder dump, served from the
//	          supervisor's own archive; FINAL marks the post-mortem archived
//	          once the node's death is confirmed.
func (s *Supervisor) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(func() *obs.Registry { return s.reg }, s.handle))
}

func (s *Supervisor) handle(_ context.Context, req []byte) ([]byte, error) {
	fields := strings.Fields(string(req))
	if len(fields) == 0 {
		return []byte("ERR malformed request"), nil
	}
	switch fields[0] {
	case "EVENTS":
		since := 0
		if len(fields) > 2 {
			return []byte("ERR malformed request"), nil
		}
		if len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return []byte("ERR bad sequence number"), nil
			}
			since = v
		}
		events := s.log.Since(since)
		var b strings.Builder
		fmt.Fprintf(&b, "OK %d", len(events))
		for _, e := range events {
			b.WriteByte('\n')
			b.WriteString(e.String())
		}
		return []byte(b.String()), nil
	case "FLIGHT":
		if len(fields) != 2 {
			return []byte("ERR malformed flight request"), nil
		}
		d, ok := s.Flight(fields[1])
		if !ok {
			return []byte("ERR no flight dump for node " + fields[1]), nil
		}
		head := "OK " + obs.ExpositionVersion
		if d.Final {
			head += " FINAL"
		}
		return append([]byte(head+"\n"), obs.MarshalSpans(d.Spans)...), nil
	case "STATUS":
		dep, gen := s.Deployment()
		m := s.Metrics()
		var b strings.Builder
		fmt.Fprintf(&b, "OK gen=%d watermark=%d local-watermark=%d interval=%s recoveries=%d mean-mttr=%s work-lost=%s repairs=%d replicas-restored=%d storage-mttr=%s",
			gen, dep.DurableWatermark(), dep.LocalWatermark(), s.Interval(), m.Recoveries, m.MeanMTTR(), m.WorkLost,
			m.StorageRepairs, m.ReplicasRestored, m.LastStorageMTTR)
		backlogs := s.Backlogs()
		nodes := make([]string, 0, len(backlogs))
		for name := range backlogs {
			nodes = append(nodes, name)
		}
		sort.Strings(nodes)
		for _, name := range nodes {
			nb := backlogs[name]
			fmt.Fprintf(&b, " backlog.%s=%d/%d/%d", name,
				nb.Own.Checkpoints+nb.Partner.Checkpoints,
				nb.Own.Chunks+nb.Partner.Chunks,
				nb.Own.Bytes+nb.Partner.Bytes)
		}
		return []byte(b.String()), nil
	default:
		return []byte("ERR unknown verb " + fields[0]), nil
	}
}
