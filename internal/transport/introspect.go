package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/wire"
)

// Introspection ops. Every endpoint — the four BlobSeer services, the
// checkpointing proxy and the supervisor — answers them from its own
// registry (Introspect), and the functions below are their one client. Like
// every protocol's ops they are named in the one op registry (RegisterOps);
// values from 0xF0 up are reserved for transport markers such as the
// trace-context header.
const (
	OpTraceGet   = 0xE0 // request: u64 trace id (non-zero); response: obs.MarshalSpans
	OpFlightGet  = 0xE1 // request: op only; response: obs.MarshalSpans of the flight ring
	OpHistoryGet = 0xE2 // request: u32 window seconds (non-zero); response: obs.MarshalWindow
	OpMetricsGet = 0xE3 // request: u32 chunk offset; response: i64 next offset (-1 = last) + exposition chunk
	OpHealthGet  = 0xE4 // request: op only; response: bool ok + uvarint n + n x firing alert name
)

func init() {
	RegisterOps(map[byte]string{
		OpTraceGet:   "trace-get",
		OpFlightGet:  "flight-get",
		OpHistoryGet: "history-get",
		OpMetricsGet: "metrics-get",
		OpHealthGet:  "health-get",
	})
}

// Introspect wraps an endpoint's handler so the endpoint answers the
// introspection ops from the registry reg returns at each request; every
// other request reaches h untouched. Each endpoint mounts it once, where it
// listens.
func Introspect(reg func() *obs.Registry, h Handler) Handler {
	return func(ctx context.Context, req []byte) ([]byte, error) {
		if len(req) == 0 || req[0] < OpTraceGet || req[0] > OpHealthGet {
			return h(ctx, req)
		}
		op, arg, err := decodeIntrospectRequest(req)
		if err != nil {
			return nil, err
		}
		return introspectReply(reg(), op, arg)
	}
}

// decodeIntrospectRequest decodes an introspection request: its op and the
// op's one argument (trace id, window seconds or chunk offset; 0 for the
// argument-less ops).
func decodeIntrospectRequest(req []byte) (op byte, arg uint64, err error) {
	r := wire.NewReader(req)
	op = r.U8()
	switch op {
	case OpTraceGet:
		arg = r.U64()
	case OpHistoryGet, OpMetricsGet:
		arg = uint64(r.U32())
	}
	name := OpName(op)
	if err := r.End(); err != nil {
		return 0, 0, fmt.Errorf("transport: bad %s request: %w", name, err)
	}
	if arg == 0 && (op == OpTraceGet || op == OpHistoryGet) {
		return 0, 0, fmt.Errorf("transport: bad %s request: zero argument", name)
	}
	return op, arg, nil
}

func introspectReply(reg *obs.Registry, op byte, arg uint64) ([]byte, error) {
	switch op {
	case OpTraceGet:
		return obs.MarshalSpans(reg.TraceSpans(arg)), nil
	case OpFlightGet:
		return obs.MarshalSpans(reg.FlightSpans()), nil
	case OpHistoryGet:
		h := reg.History()
		if h == nil {
			return nil, errors.New("transport: no history ring")
		}
		return obs.MarshalWindow(h.Window(time.Duration(arg) * time.Second)), nil
	case OpMetricsGet:
		chunk, next := reg.ExpositionAt(int(arg))
		w := wire.NewBuffer(16 + len(chunk))
		w.PutI64(int64(next))
		w.PutString(chunk)
		return w.Bytes(), nil
	default: // OpHealthGet
		ok, firing := reg.Health()
		w := wire.NewBuffer(16)
		w.PutBool(ok)
		w.PutUvarint(uint64(len(firing)))
		for _, name := range firing {
			w.PutString(name)
		}
		return w.Bytes(), nil
	}
}

// fetch issues one introspection request, with arg encoded the way
// decodeIntrospectRequest reads it, and names the endpoint in its error.
func fetch(ctx context.Context, n Network, addr string, op byte, arg uint64) ([]byte, error) {
	w := wire.NewBuffer(9)
	w.PutU8(op)
	switch op {
	case OpTraceGet:
		w.PutU64(arg)
	case OpHistoryGet, OpMetricsGet:
		w.PutU32(uint32(arg))
	}
	resp, err := n.Call(ctx, addr, w.Bytes())
	if err != nil {
		return nil, fmt.Errorf("transport: %s from %s: %w", OpName(op), addr, err)
	}
	return resp, nil
}

// Metrics scrapes the full metrics exposition of the endpoint at addr,
// following the chunk continuations a large exposition is split into, and
// parses it. A continuation offset that does not advance is an error, so a
// faulty endpoint cannot keep the scrape looping.
func Metrics(ctx context.Context, n Network, addr string) ([]obs.Point, error) {
	var text []byte
	var off int64
	for {
		resp, err := fetch(ctx, n, addr, OpMetricsGet, uint64(off))
		if err != nil {
			return nil, err
		}
		next, chunk, err := decodeMetricsChunk(resp)
		if err != nil {
			return nil, fmt.Errorf("transport: metrics from %s: %w", addr, err)
		}
		text = append(text, chunk...)
		if next < 0 {
			return obs.ParseProm(string(text))
		}
		if next <= off || next > math.MaxUint32 {
			return nil, fmt.Errorf("transport: metrics from %s: bad continuation offset %d after %d", addr, next, off)
		}
		off = next
	}
}

func decodeMetricsChunk(resp []byte) (next int64, chunk string, err error) {
	r := wire.NewReader(resp)
	next = r.I64()
	chunk = r.String()
	if err := r.End(); err != nil {
		return 0, "", err
	}
	return next, chunk, nil
}

// Trace collects the spans the endpoint at addr holds for one trace.
func Trace(ctx context.Context, n Network, addr string, trace uint64) ([]obs.SpanRecord, error) {
	if trace == 0 {
		return nil, errors.New("transport: zero trace id")
	}
	resp, err := fetch(ctx, n, addr, OpTraceGet, trace)
	if err != nil {
		return nil, err
	}
	return obs.ParseSpans(resp)
}

// Flight dumps the flight-recorder ring of the endpoint at addr.
func Flight(ctx context.Context, n Network, addr string) ([]obs.SpanRecord, error) {
	resp, err := fetch(ctx, n, addr, OpFlightGet, 0)
	if err != nil {
		return nil, err
	}
	return obs.ParseSpans(resp)
}

// History queries the history ring of the endpoint at addr over the
// trailing window, in whole seconds. The reply is parsed strictly: a corrupt
// or truncated frame is an error, never a half-applied report; an endpoint
// without a ring answers with an error.
func History(ctx context.Context, n Network, addr string, window time.Duration) (obs.WindowReport, error) {
	secs := int64(window / time.Second)
	if secs <= 0 || secs > math.MaxUint32 {
		return obs.WindowReport{}, fmt.Errorf("transport: bad history window %v", window)
	}
	resp, err := fetch(ctx, n, addr, OpHistoryGet, uint64(secs))
	if err != nil {
		return obs.WindowReport{}, err
	}
	return obs.ParseWindow(resp)
}

// Health asks the endpoint at addr for its readiness verdict: ok, or the
// names of the alerts firing (obs.Registry.Health).
func Health(ctx context.Context, n Network, addr string) (ok bool, firing []string, err error) {
	resp, err := fetch(ctx, n, addr, OpHealthGet, 0)
	if err != nil {
		return false, nil, err
	}
	return decodeHealth(resp)
}

func decodeHealth(resp []byte) (ok bool, firing []string, err error) {
	r := wire.NewReader(resp)
	ok = r.Bool()
	// Each name costs at least its length prefix (wire.Reader.Count).
	count := r.Count()
	for i := uint64(0); i < count; i++ {
		firing = append(firing, r.String())
	}
	if err := r.End(); err != nil {
		return false, nil, fmt.Errorf("transport: bad health reply: %w", err)
	}
	return ok, firing, nil
}
