package supervisor

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// Supervisor op codes (the table in Serve's comment).
const (
	opEvents = 0xB0 + iota
	opStatus
	opFlight
)

func init() {
	transport.RegisterOps(map[byte]string{opEvents: "EVENTS", opStatus: "STATUS", opFlight: "FLIGHT"})
}

// Serve binds the supervisor's introspection endpoint on the network, for
// blobcr-ctl events, status and top, and for external dashboards. Like every
// endpoint it answers the binary introspection ops (transport.Introspect) —
// metrics, trace, flight, history and health — from its registry, which
// under Config.Health is the federated cluster registry. Its control ops are
// in the plane's one binary dialect, each an op byte named in the
// transport's op registry followed by its fields in the wire encoding; a
// refused request is a handler error. Status, Events and Flight below are
// their client.
//
//	op    name    request fields        reply
//	0xB0  EVENTS  uvarint since-seq     uvarint n, n x string event line
//	0xB1  STATUS  —                     string status line
//	0xB2  FLIGHT  string node           bool final, bytes obs.MarshalSpans
//
// The status line reads
//
//	gen=<generation> watermark=<ckpt-id> local-watermark=<ckpt-id>
//	interval=<duration> recoveries=<n> mean-mttr=<duration>
//	work-lost=<duration> repairs=<n> replicas-restored=<n>
//	storage-mttr=<duration> [backlog.<node>=<ckpts>/<chunks>/<bytes> ...]
//
// local-watermark is the multilevel first watermark: the newest checkpoint
// staged in every member's node-local tier and partner replica (always ≥
// watermark; equal when the drain has caught up or no local tier runs). The
// backlog fields — one per local-tier node, own captures and held partner
// replicas combined — are what the drain still owes the remote plane.
//
// FLIGHT returns the named node's retained flight-recorder dump, served from
// the supervisor's own archive; final marks the post-mortem archived once
// the node's death is confirmed.
func (s *Supervisor) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(func() *obs.Registry { return s.reg }, s.handle))
}

func (s *Supervisor) handle(_ context.Context, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := r.U8()
	var since uint64
	var node string
	switch op {
	case opEvents:
		since = r.Uvarint()
	case opFlight:
		node = r.String()
	case opStatus:
	default:
		return nil, fmt.Errorf("supervisor: unknown op 0x%02X", op)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("supervisor: bad %s request: %w", transport.OpName(op), err)
	}
	w := wire.NewBuffer(256)
	switch op {
	case opEvents:
		events := s.log.Since(int(min(since, math.MaxInt)))
		w.PutUvarint(uint64(len(events)))
		for _, e := range events {
			w.PutString(e.String())
		}
	case opFlight:
		d, ok := s.Flight(node)
		if !ok {
			return nil, fmt.Errorf("supervisor: no flight dump for node %s", node)
		}
		w.PutBool(d.Final)
		w.PutBytes(obs.MarshalSpans(d.Spans))
	default:
		w.PutString(s.statusLine())
	}
	return w.Bytes(), nil
}

// statusLine renders the STATUS reply.
func (s *Supervisor) statusLine() string {
	dep, gen := s.Deployment()
	m := s.Metrics()
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d watermark=%d local-watermark=%d interval=%s recoveries=%d mean-mttr=%s work-lost=%s repairs=%d replicas-restored=%d storage-mttr=%s",
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
	return b.String()
}

// Status fetches the status line of the supervisor at addr.
func Status(ctx context.Context, n transport.Network, addr string) (line string, err error) {
	w := wire.NewBuffer(1)
	w.PutU8(opStatus)
	err = transport.CallOp(ctx, n, addr, w.Bytes(), func(r *wire.Reader) { line = r.String() })
	return line, err
}

// Events fetches the events the supervisor at addr logged after sequence
// number since, rendered one per line, oldest first.
func Events(ctx context.Context, n transport.Network, addr string, since uint64) (lines []string, err error) {
	w := wire.NewBuffer(1 + 10)
	w.PutU8(opEvents)
	w.PutUvarint(since)
	err = transport.CallOp(ctx, n, addr, w.Bytes(), func(r *wire.Reader) {
		lines = make([]string, r.Count())
		for i := range lines {
			lines[i] = r.String()
		}
	})
	return lines, err
}

// Flight fetches the flight-recorder dump the supervisor at addr retains for
// node; final marks the post-mortem archived once the node's death was
// confirmed.
func Flight(ctx context.Context, n transport.Network, addr, node string) (spans []obs.SpanRecord, final bool, err error) {
	w := wire.NewBuffer(1 + 10 + len(node))
	w.PutU8(opFlight)
	w.PutString(node)
	var dump []byte
	if err := transport.CallOp(ctx, n, addr, w.Bytes(), func(r *wire.Reader) { final, dump = r.Bool(), r.Bytes() }); err != nil {
		return nil, false, err
	}
	spans, err = obs.ParseSpans(dump)
	return spans, final, err
}
