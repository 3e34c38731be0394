package main

import (
	"context"
	"sync"
	"sync/atomic"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/transport"
)

// loopback adapts transport.TCP to the FaultNetwork cloud.Config.Net asks
// for. The benchmark injects no failures, so Partition and Heal do nothing.
// It remembers every server it binds: Cloud.Close stops the repository's
// services but not the per-node proxies', and a proxy left listening pins
// its last instance's whole mirror cache for the life of the process.
type loopback struct {
	tcp *transport.TCP

	mu      sync.Mutex
	servers []transport.Server
}

func (l *loopback) Listen(addr string, h transport.Handler) (transport.Server, error) {
	srv, err := l.tcp.Listen(addr, h)
	if err == nil {
		l.mu.Lock()
		l.servers = append(l.servers, srv)
		l.mu.Unlock()
	}
	return srv, err
}

func (l *loopback) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	return l.tcp.Call(ctx, addr, req)
}

func (*loopback) Partition(string) {}
func (*loopback) Heal(string)      {}

// close stops every server still up and drops the pooled connections.
func (l *loopback) close() {
	l.mu.Lock()
	servers := l.servers
	l.servers = nil
	l.mu.Unlock()
	for _, s := range servers {
		s.Close() //nolint:errcheck // teardown; closing twice is harmless
	}
	l.tcp.Close() //nolint:errcheck // teardown
}

// tracedNet is the transport interposer of the traced run: it times every
// client Call (rpc.<verb>) and every Handler it Listens (srv.<verb>). It
// copies nothing and changes no frame.
type tracedNet struct {
	inner transport.FaultNetwork
	rec   *recorder
}

// verbOf names a request frame. Stage frames (0xD0/0xD1 on the proxy port)
// are not in blobseer's table.
func verbOf(req []byte) string {
	if v := blobseer.VerbName(req); v != "" {
		return v
	}
	if len(req) > 0 {
		switch req[0] {
		case 0xD0:
			return "stage-put"
		case 0xD1:
			return "stage-release"
		}
	}
	return "other"
}

func (n *tracedNet) Listen(addr string, h transport.Handler) (transport.Server, error) {
	// The handler needs the bound address, which is only known after Listen
	// returns; the server is not reachable before then either.
	var bound atomic.Pointer[string]
	none := ""
	bound.Store(&none)
	srv, err := n.inner.Listen(addr, func(ctx context.Context, req []byte) ([]byte, error) {
		if !n.rec.on.Load() {
			return h(ctx, req)
		}
		id, start := n.rec.open()
		resp, err := h(withLink(ctx, link{id, -1}), req)
		n.rec.close(span{ID: id, Name: "srv." + verbOf(req), Start: start, Parent: -1, Op: -1,
			Addr: *bound.Load(), Req: len(req), Resp: len(resp)})
		return resp, err
	})
	if err == nil {
		a := srv.Addr()
		bound.Store(&a)
	}
	return srv, err
}

func (n *tracedNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if !n.rec.on.Load() {
		return n.inner.Call(ctx, addr, req)
	}
	l := linkFrom(ctx)
	id, start := n.rec.open()
	resp, err := n.inner.Call(withLink(ctx, link{id, l.op}), addr, req)
	n.rec.close(span{ID: id, Name: "rpc." + verbOf(req), Start: start, Parent: l.span, Op: l.op,
		Addr: addr, Req: len(req), Resp: len(resp)})
	return resp, err
}

func (n *tracedNet) Partition(addr string) { n.inner.Partition(addr) }
func (n *tracedNet) Heal(addr string)      { n.inner.Heal(addr) }

// tracedStore is the chunk-store interposer: store.put/get/delete spans,
// tagged with the address of the service the store sits behind (filled in
// once the deployment is up). The CAS layer and the providers discover a
// backend's abilities by type assertion, so every optional interface the
// inner store has is forwarded.
type tracedStore struct {
	chunkstore.Store
	rec  *recorder
	addr atomic.Pointer[string]
}

func newTracedStore(inner chunkstore.Store, rec *recorder) *tracedStore {
	s := &tracedStore{Store: inner, rec: rec}
	s.setAddr("")
	return s
}

func (s *tracedStore) setAddr(addr string) { s.addr.Store(&addr) }

func (s *tracedStore) record(name string, start int64, id int32, n int) {
	s.rec.close(span{ID: id, Name: name, Start: start, Parent: -1, Op: -1, Addr: *s.addr.Load(), Req: n})
}

func (s *tracedStore) Put(k chunkstore.Key, data []byte) error {
	if !s.rec.on.Load() {
		return s.Store.Put(k, data)
	}
	id, start := s.rec.open()
	err := s.Store.Put(k, data)
	s.record("store.put", start, id, len(data))
	return err
}

func (s *tracedStore) Get(k chunkstore.Key) ([]byte, error) {
	if !s.rec.on.Load() {
		return s.Store.Get(k)
	}
	id, start := s.rec.open()
	data, err := s.Store.Get(k)
	s.record("store.get", start, id, len(data))
	return data, err
}

func (s *tracedStore) Delete(k chunkstore.Key) error {
	if !s.rec.on.Load() {
		return s.Store.Delete(k)
	}
	id, start := s.rec.open()
	err := s.Store.Delete(k)
	s.record("store.delete", start, id, 0)
	return err
}

// EngineStats forwards chunkstore.EngineStatser.
func (s *tracedStore) EngineStats() chunkstore.EngineStats { return chunkstore.StatsOf(s.Store) }

// CompactNow forwards chunkstore.Compactor; a backend with nothing to
// compact reports a zero result, as cas.Store does for its own backend.
func (s *tracedStore) CompactNow() (chunkstore.CompactResult, error) {
	if c, ok := s.Store.(chunkstore.Compactor); ok {
		return c.CompactNow()
	}
	return chunkstore.CompactResult{}, nil
}

// Keys forwards the key listing cas.NewStore recovers its index from.
func (s *tracedStore) Keys() []chunkstore.Key {
	if l, ok := s.Store.(interface{ Keys() []chunkstore.Key }); ok {
		return l.Keys()
	}
	return nil
}

// Close releases the inner store.
func (s *tracedStore) Close() error {
	if c, ok := s.Store.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

var (
	_ chunkstore.EngineStatser = (*tracedStore)(nil)
	_ chunkstore.Compactor     = (*tracedStore)(nil)
)
