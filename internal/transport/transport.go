// Package transport provides the request/response messaging substrate used
// by the BlobSeer service, the PVFS baseline and the checkpointing proxy.
//
// A Network binds handlers to addresses and issues calls to them. Two
// implementations are provided: an in-process network (for tests, examples
// and single-machine deployments) and a TCP network (for the real daemons in
// cmd/). Services are written once against the Network interface.
//
// Every call carries a context.Context: cancelling it abandons the call
// (in-flight TCP calls close their connection; in-process handlers receive
// the context and may observe the cancellation themselves). Handlers that
// fail because the requested entity does not exist should return an error
// wrapping ErrNotFound; the condition survives the wire, so callers can test
// it with errors.Is instead of matching message strings.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/wire"
)

// Handler processes one request and returns the response payload.
// Returning an error sends a remote error to the caller. The context is the
// caller's (in-process) or the server's (TCP); long-blocking handlers should
// honour its cancellation.
//
// Buffer ownership. The request belongs to the handler while it runs, and
// after it returns only for what the handler keeps of it: a handler that
// stores a window of the request keeps the whole frame alive. The reply
// belongs to the network from the moment the handler returns it. A handler
// that moves bulk data may do better, with two calls on its context, both
// only before it returns:
//   - ReleaseRequest says it keeps no reference into the request, so the
//     TCP server hands the frame it read the request into back to the
//     wire frame pool (wire.PutFrame) once the reply is on the wire;
//   - RecycleReply registers the pooled buffer (wire.NewFrameBuffer) the
//     reply was built in, which the TCP server hands back at that moment
//     too.
//
// InProc installs no recycler, so both calls are no-ops there: the
// client's request is the handler's request, and the handler's reply is the
// client's reply, which the client may keep for as long as it likes.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// recycler is the TCP server's record of what a handler gave back during one
// exchange. A connection serves its exchanges one after another, so each
// connection has one, reset before each request.
type recycler struct {
	release bool   // the handler keeps no reference into its request frame
	reply   []byte // the pooled buffer the reply was built in
}

type recyclerKey struct{}

func recyclerFrom(ctx context.Context) *recycler {
	rc, _ := ctx.Value(recyclerKey{}).(*recycler)
	return rc
}

// ReleaseRequest tells the server that the running handler keeps no
// reference into its request: no window of it is stored, queued or still
// read by another goroutine once the handler returns. The server then
// reuses the request's frame after the reply is sent. A no-op where the
// network has no frame to reuse (InProc).
func ReleaseRequest(ctx context.Context) {
	if rc := recyclerFrom(ctx); rc != nil {
		rc.release = true
	}
}

// RecycleReply registers buf, a buffer from wire.NewFrameBuffer or
// wire.GetFrame that backs the reply the running handler is about to
// return, and that the handler gives up: the server hands it back to the
// wire frame pool once the reply is on the wire. buf must not share memory
// with the request. Where there is no recycler (InProc) the reply is the
// caller's and buf is simply left to the collector.
func RecycleReply(ctx context.Context, buf []byte) {
	if rc := recyclerFrom(ctx); rc != nil {
		rc.reply = buf
	}
}

// ErrUnreachable is returned by Call when no service is bound at the address.
var ErrUnreachable = errors.New("transport: address unreachable")

// ErrNotFound marks handler errors for entities that do not exist. The mark
// is preserved across the wire: a RemoteError produced from a handler error
// wrapping ErrNotFound satisfies errors.Is(err, ErrNotFound) on the caller's
// side too.
var ErrNotFound = errors.New("transport: not found")

// NotFoundError is a convenience sentinel for services: it renders as its
// message and satisfies errors.Is(err, ErrNotFound), so handlers can define
// typed not-found sentinels whose mark survives the wire.
type NotFoundError string

func (e NotFoundError) Error() string { return string(e) }

// Is marks the sentinel as a transport-level not-found condition.
func (e NotFoundError) Is(target error) bool { return target == ErrNotFound }

// RemoteError is an application-level error returned by a remote handler.
type RemoteError struct {
	Msg string
	// NotFound records that the remote error wrapped ErrNotFound.
	NotFound bool
	// Verb names the operation whose call failed ("chunk-put", "CHECKPOINT",
	// ...). The wire does not carry it; the Meter wrapper tags it on the
	// caller's side so error messages and obs counters agree on which
	// operation failed instead of the error vanishing into callers unnamed.
	Verb string
}

func (e *RemoteError) Error() string {
	if e.Verb != "" {
		return "transport: remote error: " + e.Verb + ": " + e.Msg
	}
	return "transport: remote error: " + e.Msg
}

// Is lets errors.Is(err, ErrNotFound) see through the wire boundary.
func (e *RemoteError) Is(target error) bool { return target == ErrNotFound && e.NotFound }

// Network binds services to addresses and routes calls between them.
type Network interface {
	// Listen binds h to addr. If addr is empty an address is assigned.
	// The returned Server reports the bound address and stops the service
	// when closed.
	Listen(addr string, h Handler) (Server, error)
	// Call sends req to the service at addr and returns its response. A
	// cancelled or expired context abandons the call and returns ctx.Err().
	// Call keeps no reference to req once it returns, whatever it returns,
	// so the caller may reuse req's memory — a pooled frame goes back to
	// the pool — right after. The response is the caller's to keep.
	Call(ctx context.Context, addr string, req []byte) ([]byte, error)
}

// FaultNetwork is a Network with fail-stop failure injection: calls to a
// partitioned address fail with ErrUnreachable until the address is healed.
// InProc implements it directly; Latency forwards to a fault-capable inner
// network.
type FaultNetwork interface {
	Network
	Partition(addr string)
	Heal(addr string)
}

// Server is a bound service endpoint.
type Server interface {
	Addr() string
	Close() error
}

// remoteErrorFrom wraps a handler error for transmission, preserving the
// not-found mark.
func remoteErrorFrom(err error) *RemoteError {
	return &RemoteError{Msg: err.Error(), NotFound: errors.Is(err, ErrNotFound)}
}

// --- trace-context header ---

// An optional trace-context header rides in front of the request payload:
//
//	[marker 0xF7] [version 1] [trace id, 8 bytes LE] [parent span id, 8 bytes LE]
//
// Both terminal networks inject it from the caller's context and strip it
// before the handler runs, re-establishing the span context server-side so
// handler spans parent under the caller's RPC span. The marker byte cannot
// collide with a real first request byte: RegisterOps refuses op codes
// from 0xF0 up.
const (
	traceMarker    = 0xF7
	traceVersion   = 1
	traceHeaderLen = 1 + 1 + 8 + 8
)

// traceHeader encodes the trace header for the distributed trace ctx
// carries, or returns nil when there is none. The caller sends it in front
// of the request as its own frame part; the request is never copied.
func traceHeader(ctx context.Context) []byte {
	sc, ok := obs.SpanContextFrom(ctx)
	if !ok {
		return nil
	}
	hdr := make([]byte, traceHeaderLen)
	hdr[0] = traceMarker
	hdr[1] = traceVersion
	binary.LittleEndian.PutUint64(hdr[2:], sc.Trace)
	binary.LittleEndian.PutUint64(hdr[10:], sc.Span)
	return hdr
}

// extractTraceContext strips a leading trace header from req, returning the
// handler context (with the span context re-established) and the payload.
// A frame that starts with the marker but does not carry a well-formed
// header is rejected: truncation and version skew must fail loudly, not be
// mistaken for application bytes.
func extractTraceContext(ctx context.Context, req []byte) (context.Context, []byte, error) {
	if len(req) == 0 || req[0] != traceMarker {
		return ctx, req, nil
	}
	if len(req) < traceHeaderLen {
		return nil, nil, fmt.Errorf("transport: truncated trace header: %d of %d bytes", len(req), traceHeaderLen)
	}
	if req[1] != traceVersion {
		return nil, nil, fmt.Errorf("transport: unsupported trace header version %d", req[1])
	}
	trace := binary.LittleEndian.Uint64(req[2:])
	span := binary.LittleEndian.Uint64(req[10:])
	if trace == 0 {
		return nil, nil, errors.New("transport: trace header carries zero trace id")
	}
	return obs.WithSpanContext(ctx, obs.SpanContext{Trace: trace, Span: span}), req[traceHeaderLen:], nil
}

// --- In-process network ---

// InProc is an in-process Network: calls are direct function invocations.
// It is safe for concurrent use. A fresh InProc is an isolated namespace,
// so tests do not interfere with one another.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	nextAuto int
	// PartitionedAddrs simulates fail-stop node failures: calls to these
	// addresses fail with ErrUnreachable.
	partitioned map[string]bool
}

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{
		handlers:    make(map[string]Handler),
		partitioned: make(map[string]bool),
	}
}

type inprocServer struct {
	n    *InProc
	addr string
}

func (s *inprocServer) Addr() string { return s.addr }
func (s *inprocServer) Close() error {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	delete(s.n.handlers, s.addr)
	return nil
}

// Listen implements Network.
func (n *InProc) Listen(addr string, h Handler) (Server, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.nextAuto++
		addr = fmt.Sprintf("inproc-%d", n.nextAuto)
	}
	if _, exists := n.handlers[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	n.handlers[addr] = h
	return &inprocServer{n: n, addr: addr}, nil
}

// Call implements Network.
func (n *InProc) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	h, ok := n.handlers[addr]
	dead := n.partitioned[addr]
	n.mu.RUnlock()
	if !ok || dead {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	// Run the same encode/strip round trip the TCP network performs, so the
	// in-process network exercises the wire encoding and the handler sees
	// identical semantics (span context re-established, header stripped). The
	// frame starts with the caller's trace header when there is one, else
	// with the request, and either may carry the marker.
	body := req
	var hctx context.Context
	var err error
	if hdr := traceHeader(ctx); hdr != nil {
		hctx, _, err = extractTraceContext(ctx, hdr)
	} else {
		hctx, body, err = extractTraceContext(ctx, req)
	}
	if err != nil {
		return nil, remoteErrorFrom(err)
	}
	if recyclerFrom(hctx) != nil {
		// The caller is itself a TCP handler: its recycler must not reach
		// this handler, whose request and reply are the caller's memory.
		hctx = context.WithValue(hctx, recyclerKey{}, (*recycler)(nil))
	}
	resp, err := h(hctx, body)
	if err != nil {
		return nil, remoteErrorFrom(err)
	}
	return resp, nil
}

// Partition makes addr unreachable (fail-stop failure injection).
func (n *InProc) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[addr] = true
}

// Heal makes addr reachable again.
func (n *InProc) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, addr)
}

// --- Latency-injecting network ---

// Latency wraps a Network, sleeping PerCall before every Call and counting
// calls, so network cost shows up in wall time and deterministically in the
// call counter. The availability, preemption and health experiments use it
// to make round trips cost something on an in-process network; tests use the counter
// to assert how many round trips land inside a measured window.
type Latency struct {
	Inner   Network
	PerCall time.Duration
	calls   atomic.Uint64
}

// WithLatency wraps inner with a per-call delay.
func WithLatency(inner Network, perCall time.Duration) *Latency {
	return &Latency{Inner: inner, PerCall: perCall}
}

// Listen implements Network.
func (l *Latency) Listen(addr string, h Handler) (Server, error) {
	return l.Inner.Listen(addr, h)
}

// Call implements Network.
func (l *Latency) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	l.calls.Add(1)
	if l.PerCall > 0 {
		time.Sleep(l.PerCall)
	}
	return l.Inner.Call(ctx, addr, req)
}

// Calls returns how many calls have been issued through the wrapper.
func (l *Latency) Calls() uint64 { return l.calls.Load() }

// Partition forwards fail-stop injection to the inner network; it is a no-op
// when the inner network is not fault-capable.
func (l *Latency) Partition(addr string) {
	if fn, ok := l.Inner.(FaultNetwork); ok {
		fn.Partition(addr)
	}
}

// Heal forwards to the inner network; no-op when it is not fault-capable.
func (l *Latency) Heal(addr string) {
	if fn, ok := l.Inner.(FaultNetwork); ok {
		fn.Heal(addr)
	}
}

// --- Bandwidth-modelling network ---

// Bandwidth wraps a Network, modelling every address as a pipe of finite
// bandwidth: calls to one address are serialized and charged
// (len(request)+len(response))/BytesPerSec of wall time while holding the
// pipe. Independent addresses proceed in parallel, so striping a transfer
// across N providers divides its wall time by up to N. Stack it over Latency to model both
// per-round-trip and per-byte cost.
type Bandwidth struct {
	Inner       Network
	BytesPerSec float64

	mu    sync.Mutex
	pipes map[string]*sync.Mutex
	// perAddr overrides BytesPerSec for individual addresses, letting one
	// experiment starve the remote storage plane while local/partner links
	// keep full speed (the multilevel-checkpointing bench does exactly this).
	perAddr map[string]float64
}

// WithBandwidth wraps inner with a per-address bandwidth model.
func WithBandwidth(inner Network, bytesPerSec float64) *Bandwidth {
	return &Bandwidth{Inner: inner, BytesPerSec: bytesPerSec, pipes: make(map[string]*sync.Mutex)}
}

// SetAddrBytesPerSec overrides the modeled bandwidth for one address.
// bps <= 0 removes the override, restoring the default BytesPerSec.
func (b *Bandwidth) SetAddrBytesPerSec(addr string, bps float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.perAddr == nil {
		b.perAddr = make(map[string]float64)
	}
	if bps <= 0 {
		delete(b.perAddr, addr)
		return
	}
	b.perAddr[addr] = bps
}

// rate returns the bandwidth applied to addr: its override if one is set,
// else the default.
func (b *Bandwidth) rate(addr string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bps, ok := b.perAddr[addr]; ok {
		return bps
	}
	return b.BytesPerSec
}

// Listen implements Network.
func (b *Bandwidth) Listen(addr string, h Handler) (Server, error) {
	return b.Inner.Listen(addr, h)
}

func (b *Bandwidth) pipe(addr string) *sync.Mutex {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.pipes[addr]
	if !ok {
		p = &sync.Mutex{}
		b.pipes[addr] = p
	}
	return p
}

// Call implements Network: a successful exchange holds addr's pipe for the
// time the moved bytes would need at BytesPerSec. Failed calls are not
// charged (nothing moved), and cancellation interrupts the modeled transfer
// mid-flight.
func (b *Bandwidth) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	p := b.pipe(addr)
	p.Lock()
	defer p.Unlock()
	resp, err := b.Inner.Call(ctx, addr, req)
	bps := b.rate(addr)
	if err != nil || bps <= 0 {
		return resp, err
	}
	moved := len(req) + len(resp)
	t := time.NewTimer(time.Duration(float64(moved) / bps * float64(time.Second)))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return resp, nil
}

// Partition forwards fail-stop injection to the inner network; it is a no-op
// when the inner network is not fault-capable.
func (b *Bandwidth) Partition(addr string) {
	if fn, ok := b.Inner.(FaultNetwork); ok {
		fn.Partition(addr)
	}
}

// Heal forwards to the inner network; no-op when it is not fault-capable.
func (b *Bandwidth) Heal(addr string) {
	if fn, ok := b.Inner.(FaultNetwork); ok {
		fn.Heal(addr)
	}
}

var _ FaultNetwork = (*InProc)(nil)
var _ FaultNetwork = (*Latency)(nil)
var _ FaultNetwork = (*Bandwidth)(nil)

// --- TCP network ---

// Response status bytes on the wire.
const (
	statusOK       = 0
	statusErr      = 1
	statusNotFound = 2 // remote error that wrapped ErrNotFound
)

// TCP is a Network over real TCP sockets. Requests and responses are framed
// with a 4-byte length prefix; the first response byte is a status code
// (0 = ok, 1 = remote error with a UTF-8 message payload, 2 = remote
// not-found error).
type TCP struct {
	mu    sync.Mutex
	conns map[string][]net.Conn // idle connection pool per address
}

// NewTCP returns a TCP network with an empty connection pool.
func NewTCP() *TCP {
	return &TCP{conns: make(map[string][]net.Conn)}
}

type tcpServer struct {
	ln     net.Listener
	wg     sync.WaitGroup
	once   sync.Once
	cancel context.CancelFunc
	ctx    context.Context
	mu     sync.Mutex
	active map[net.Conn]struct{}
	closed bool
}

func (s *tcpServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, cancels the context in-flight handlers received,
// force-closes every open connection (clients may hold idle pooled
// connections indefinitely) and waits for handlers to exit.
func (s *tcpServer) Close() error {
	var err error
	s.once.Do(func() {
		err = s.ln.Close()
		s.cancel()
		s.mu.Lock()
		s.closed = true
		for c := range s.active {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

// track registers conn; it reports false if the server is already closed.
func (s *tcpServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active[conn] = struct{}{}
	return true
}

func (s *tcpServer) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, conn)
}

// Listen implements Network. An empty addr binds to 127.0.0.1 on an
// ephemeral port.
func (t *TCP) Listen(addr string, h Handler) (Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &tcpServer{ln: ln, active: make(map[net.Conn]struct{}), ctx: ctx, cancel: cancel}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !srv.track(conn) {
				conn.Close()
				return
			}
			srv.wg.Add(1)
			go func() {
				defer srv.wg.Done()
				defer srv.untrack(conn)
				serveConn(srv.ctx, conn, h)
			}()
		}
	}()
	return srv, nil
}

// serveConn serves one connection's exchanges in turn. Each request is read
// into a pooled frame; the handler's recycler says whether that frame, and
// a pooled reply buffer, go back to the pool once the reply is written.
func serveConn(ctx context.Context, conn net.Conn, h Handler) {
	defer conn.Close()
	rc := new(recycler)
	ctx = context.WithValue(ctx, recyclerKey{}, rc)
	for {
		req, err := wire.ReadPooledFrame(conn)
		if err != nil {
			return
		}
		*rc = recycler{}
		hctx, body, herr := extractTraceContext(ctx, req)
		var resp []byte
		if herr == nil {
			resp, herr = h(hctx, body)
		}
		// The status byte travels as its own frame part: the handler's
		// response goes to the socket from the buffer the handler built.
		status := []byte{statusOK}
		if herr != nil {
			status[0] = statusErr
			if errors.Is(herr, ErrNotFound) {
				status[0] = statusNotFound
			}
			resp = []byte(herr.Error())
		}
		err = wire.WriteFrameParts(conn, status, resp)
		if rc.release {
			wire.PutFrame(req)
		}
		wire.PutFrame(rc.reply)
		if err != nil {
			return
		}
	}
}

// Call implements Network. Connections are pooled and reused. A context
// deadline becomes the connection deadline; cancellation closes the
// connection, abandoning the in-flight exchange.
func (t *TCP) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := t.getConn(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	} else {
		conn.SetDeadline(time.Time{})
	}
	// Cancellation closes the connection under the in-flight exchange.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	err = wire.WriteFrameParts(conn, traceHeader(ctx), req)
	var frame []byte
	if err == nil {
		frame, err = wire.ReadFrame(conn)
	}
	// intact: the cancellation func never started, so nothing has closed (or
	// is about to close) the connection.
	intact := stop()
	if err != nil {
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// The connection deadline is the context deadline, so an I/O
		// timeout means the deadline expired even when the context's own
		// timer has not fired yet.
		var ne net.Error
		if _, hasDeadline := ctx.Deadline(); hasDeadline && errors.As(err, &ne) && ne.Timeout() {
			return nil, context.DeadlineExceeded
		}
		return nil, fmt.Errorf("transport: call %s: %w", addr, err)
	}
	if intact {
		t.putConn(addr, conn)
	} else {
		// Cancellation raced the successful exchange: the connection must not
		// go back in the pool. The response arrived intact, so still return it.
		conn.Close()
	}
	return decodeResponse(addr, frame)
}

// decodeResponse unpacks the status byte of a response frame.
func decodeResponse(addr string, frame []byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("transport: call %s: empty response frame", addr)
	}
	switch frame[0] {
	case statusErr:
		return nil, &RemoteError{Msg: string(frame[1:])}
	case statusNotFound:
		return nil, &RemoteError{Msg: string(frame[1:]), NotFound: true}
	}
	return frame[1:], nil
}

func (t *TCP) getConn(addr string) (net.Conn, error) {
	t.mu.Lock()
	pool := t.conns[addr]
	if n := len(pool); n > 0 {
		conn := pool[n-1]
		t.conns[addr] = pool[:n-1]
		t.mu.Unlock()
		return conn, nil
	}
	t.mu.Unlock()
	return net.Dial("tcp", addr)
}

func (t *TCP) putConn(addr string, conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	const maxIdlePerAddr = 8
	if len(t.conns[addr]) >= maxIdlePerAddr {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{}) // clear any call-scoped deadline
	t.conns[addr] = append(t.conns[addr], conn)
}

// Close closes all pooled connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, pool := range t.conns {
		for _, c := range pool {
			c.Close()
		}
		delete(t.conns, addr)
	}
	return nil
}
