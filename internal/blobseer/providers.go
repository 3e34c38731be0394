package blobseer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// ProviderState is one provider's membership state.
type ProviderState uint8

const (
	// ProviderActive providers are placement-eligible: new chunk replicas
	// may land on them.
	ProviderActive ProviderState = iota
	// ProviderDraining providers have left the placement rotation but keep
	// serving reads while the repair plane re-places their replicas
	// elsewhere (the first half of a DECOMMISSION).
	ProviderDraining
)

func (s ProviderState) String() string {
	if s == ProviderDraining {
		return "draining"
	}
	return "active"
}

// ProviderInfo is one membership entry.
type ProviderInfo struct {
	Addr  string
	State ProviderState
}

// Membership is the provider manager's full membership view. Epoch bumps on
// every change (JOIN, fail-stop unregister, drain, retire), so a scrub or
// repair pass can detect churn between its survey and its fixes.
type Membership struct {
	Epoch     uint64
	Providers []ProviderInfo
}

// Active returns the placement-eligible provider addresses.
func (m Membership) Active() []string {
	var out []string
	for _, p := range m.Providers {
		if p.State == ProviderActive {
			out = append(out, p.Addr)
		}
	}
	return out
}

// Addrs returns every member address (active and draining).
func (m Membership) Addrs() []string {
	out := make([]string, len(m.Providers))
	for i, p := range m.Providers {
		out[i] = p.Addr
	}
	return out
}

// ProviderManager tracks the data-provider membership writers place over:
// a commit fetches the active set (opProviders) and rendezvous-ranks it per
// chunk (PlacementRanked), which stripes the global I/O workload the way the
// paper's striping scheme intends.
//
// Membership is dynamic: providers JOIN at any time (opRegister) and leave
// either abruptly (opUnregister, fail-stop) or gracefully via DECOMMISSION —
// opDrain takes the provider out of placement while it keeps serving reads,
// and opRetireProvider removes it once the repair plane has re-placed its
// replicas. Every change bumps the membership epoch.
type ProviderManager struct {
	// Obs is the registry handler spans and span stores record into; nil
	// means obs.Default. Set before Serve.
	Obs *obs.Registry

	mu        sync.Mutex
	providers []string // placement-eligible (active), sorted
	draining  []string // decommissioning, still readable, sorted
	epoch     uint64
}

func (pm *ProviderManager) registry() *obs.Registry {
	if pm.Obs != nil {
		return pm.Obs
	}
	return obs.Default
}

// NewProviderManager returns an empty provider manager.
func NewProviderManager() *ProviderManager {
	return &ProviderManager{}
}

// Serve binds the provider manager to addr on n.
func (pm *ProviderManager) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(pm.registry, pm.handle))
}

func (pm *ProviderManager) handle(ctx context.Context, frame []byte) ([]byte, error) {
	q, err := decodeFor("provider manager", opRegister, opRetireProvider, frame)
	if err != nil {
		return nil, err
	}
	_, sp := handlerSpan(ctx, pm.registry(), q.op)
	defer sp.End()
	pm.mu.Lock()
	defer pm.mu.Unlock()
	w := wire.NewBuffer(64)
	switch q.op {
	case opRegister:
		if slices.Contains(pm.providers, q.addr) {
			break // already registered
		}
		// A draining provider that re-joins is reactivated.
		pm.draining = removeAddr(pm.draining, q.addr)
		pm.providers = append(pm.providers, q.addr)
		sort.Strings(pm.providers) // deterministic placement order
		pm.epoch++

	case opProviders:
		putList(w, pm.providers, (*wire.Buffer).PutString)

	case opUnregister:
		// A fail-stopped node's provider leaves the placement rotation;
		// chunks it held survive only through replicas.
		pm.providers = removeAddr(pm.providers, q.addr)
		pm.draining = removeAddr(pm.draining, q.addr)
		pm.epoch++

	case opMembership:
		w.PutU64(pm.epoch)
		w.PutUvarint(uint64(len(pm.providers) + len(pm.draining)))
		for _, p := range pm.providers {
			w.PutString(p)
			w.PutU8(uint8(ProviderActive))
		}
		for _, p := range pm.draining {
			w.PutString(p)
			w.PutU8(uint8(ProviderDraining))
		}

	case opDrain:
		if slices.Contains(pm.draining, q.addr) {
			break // already draining
		}
		if !slices.Contains(pm.providers, q.addr) {
			return nil, fmt.Errorf("blobseer: drain of unknown provider %s", q.addr)
		}
		pm.providers = removeAddr(pm.providers, q.addr)
		pm.draining = append(pm.draining, q.addr)
		sort.Strings(pm.draining)
		pm.epoch++

	case opRetireProvider:
		if slices.Contains(pm.providers, q.addr) {
			return nil, fmt.Errorf("blobseer: provider %s must drain before retiring", q.addr)
		}
		if !slices.Contains(pm.draining, q.addr) {
			break // already gone: retiring twice is idempotent
		}
		pm.draining = removeAddr(pm.draining, q.addr)
		pm.epoch++
	}
	return w.Bytes(), nil
}

// removeAddr returns list without addr, preserving order.
func removeAddr(list []string, addr string) []string {
	for i, p := range list {
		if p == addr {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// DataProvider serves content-addressed chunk storage over the network:
// any chunkstore.Store engine under the cas.Store dedup layer.
type DataProvider struct {
	// Obs is the registry handler spans and span stores record into; nil
	// means obs.Default. Set before Serve.
	Obs *obs.Registry

	store *cas.Store
}

func (dp *DataProvider) registry() *obs.Registry {
	if dp.Obs != nil {
		return dp.Obs
	}
	return obs.Default
}

// NewDataProvider wraps store as a network service.
func NewDataProvider(store *cas.Store) *DataProvider {
	return &DataProvider{store: store}
}

// Store exposes the underlying chunk store (local inspection and tests).
func (dp *DataProvider) Store() chunkstore.Store { return dp.store }

// Serve binds the data provider to addr on n.
func (dp *DataProvider) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(dp.registry, dp.handle))
}

func (dp *DataProvider) handle(ctx context.Context, frame []byte) ([]byte, error) {
	q, err := decodeFor("data provider", opChunkDelete, opStoreCompact, frame)
	if err != nil {
		return nil, err
	}
	_, sp := handlerSpan(ctx, dp.registry(), q.op)
	defer sp.End()
	w := wire.NewBuffer(64)
	switch q.op {
	case opChunkDelete:
		if err := dp.store.Delete(q.chunks[0]); err != nil {
			return nil, err
		}

	case opChunkList:
		putList(w, dp.store.Keys(), putChunkKey)

	case opChunkUsage:
		w.PutU64(uint64(dp.store.UsedBytes()))
		w.PutU64(uint64(dp.store.Len()))

	case opChunkGetBatch:
		// One pooled frame for the whole response — a flag, a length prefix
		// and the body per key, sized from the dedup index — and every body
		// read from the store straight into it. The frame goes back to the
		// pool once the transport has sent it.
		keys := q.chunks
		w = wire.NewFrameBuffer(len(keys)*(1+binary.MaxVarintLen32) + dp.store.BodyBytes(keys))
		for _, k := range keys {
			mark := w.Len()
			w.PutBool(true)
			err := dp.store.ReadInto(k, w.ReserveBytes)
			switch {
			case errors.Is(err, chunkstore.ErrNotFound):
				// Per-item absence: the reader fails over this chunk only.
				w.Truncate(mark)
				w.PutBool(false)
			case err != nil:
				// A real backend failure (unreadable file, I/O error) must
				// not masquerade as absence: fail the frame so the reader
				// records the true cause while failing over.
				wire.PutFrame(w.Bytes())
				return nil, err
			}
		}
		transport.RecycleReply(ctx, w.Bytes())

	case opCasRefBatch:
		for _, fp := range q.fps {
			w.PutBool(dp.store.Ref(fp))
		}

	case opCasPutBatch:
		// The frame is all-or-nothing: the client treats a failed frame as
		// "no references taken" and fails the chunks over to other
		// providers. PutContentBatch verifies every body against its
		// fingerprint before it applies anything, and hands the engine the
		// bodies this provider lacks as one batch.
		dups, err := dp.store.PutContentBatch(q.fps, q.bodies)
		// The CAS index and the engine copy what they store: nothing refers
		// into the request frame any more.
		transport.ReleaseRequest(ctx)
		if err != nil {
			return nil, err
		}
		for _, dup := range dups {
			w.PutBool(dup)
		}

	case opCasReleaseBatch:
		chunks, freed, err := dp.store.ReleaseBatch(q.fps)
		if err != nil {
			return nil, err
		}
		w.PutUvarint(uint64(chunks))
		w.PutU64(freed)

	case opCasReleaseN:
		fp, n := q.fps[0], q.arg
		if n > maxBatchItems {
			return nil, fmt.Errorf("blobseer: implausible release of %d references", n)
		}
		var remaining, totalReclaimed uint64
		for i := uint64(0); i < n; i++ {
			rem, reclaimed, err := dp.store.Release(fp)
			if err != nil {
				return nil, err
			}
			remaining = rem
			totalReclaimed += reclaimed
			if rem == 0 && reclaimed == 0 {
				break // fingerprint unknown (or pinned floor): further releases are no-ops
			}
		}
		w.PutU64(remaining)
		w.PutU64(totalReclaimed)

	case opCasStats:
		putCasStats(w, dp.store.Stats())

	case opStoreStats:
		putEngineStats(w, dp.store.EngineStats())

	case opStoreCompact:
		res, err := dp.store.CompactNow()
		if err != nil {
			return nil, err
		}
		w.PutUvarint(uint64(res.Segments))
		w.PutUvarint(uint64(res.Relocated))
		w.PutU64(res.ReclaimedBytes)
	}
	return w.Bytes(), nil
}

// MetadataProvider stores segment-tree nodes. The client shards node keys
// across several metadata providers by hash, which is what lets 120
// concurrent committers avoid a single metadata bottleneck.
//
// A provider holds every node of every version until a sweep deletes it —
// a thousand per sparse checkpoint — so the store is laid out for the
// collector: encoded nodes sit back to back in megabyte slabs and the index
// maps a key to a pointer-free location, which the collector does not scan.
// Its mark work is then per slab, not per node, however many versions the
// repository has accumulated (one heap object per node made every
// collection of a long-lived provider's process cost in proportion to its
// age).
type MetadataProvider struct {
	// Obs is the registry handler spans and span stores record into; nil
	// means obs.Default. Set before Serve.
	Obs *obs.Registry

	mu    sync.RWMutex
	nodes map[meta.NodeKey]nodeLoc
	slabs []nodeSlab
	bytes int64
}

// nodeSlabBytes is the capacity of one slab of encoded nodes.
const nodeSlabBytes = 1 << 20

// nodeLoc locates one encoded node: n bytes at off in slabs[slab].
type nodeLoc struct{ slab, off, n uint32 }

// nodeSlab is one append-only run of encoded nodes. Stored nodes are
// immutable and a slab's bytes are never reused, so a reader may keep a
// window of buf after letting go of mu; a slab whose nodes have all been
// deleted drops its buffer.
type nodeSlab struct {
	buf  []byte
	live int // bytes of nodes the index still points at
}

// putLocked stores val under key unless the key is already stored (nodes
// are immutable). Caller holds mu.
func (mp *MetadataProvider) putLocked(key meta.NodeKey, val []byte) {
	if _, exists := mp.nodes[key]; exists {
		return
	}
	last := len(mp.slabs) - 1
	if last < 0 || len(mp.slabs[last].buf)+len(val) > cap(mp.slabs[last].buf) {
		mp.slabs = append(mp.slabs, nodeSlab{buf: make([]byte, 0, max(nodeSlabBytes, len(val)))})
		last++
	}
	sl := &mp.slabs[last]
	mp.nodes[key] = nodeLoc{slab: uint32(last), off: uint32(len(sl.buf)), n: uint32(len(val))}
	sl.buf = append(sl.buf, val...)
	sl.live += len(val)
	mp.bytes += int64(len(val))
}

// getLocked returns the stored node as a window of its slab. Caller holds mu
// (read mode suffices).
func (mp *MetadataProvider) getLocked(key meta.NodeKey) (val []byte, ok bool) {
	loc, ok := mp.nodes[key]
	if !ok {
		return nil, false
	}
	return mp.slabs[loc.slab].buf[loc.off : loc.off+loc.n : loc.off+loc.n], true
}

// deleteLocked removes a node; the slab it leaves empty is released (a full
// slab now, the one still filling as soon as the next put moves on — its
// bytes are never handed out twice). Caller holds mu.
func (mp *MetadataProvider) deleteLocked(key meta.NodeKey) {
	loc, ok := mp.nodes[key]
	if !ok {
		return
	}
	delete(mp.nodes, key)
	mp.bytes -= int64(loc.n)
	sl := &mp.slabs[loc.slab]
	if sl.live -= int(loc.n); sl.live == 0 {
		sl.buf = nil
	}
}

func (mp *MetadataProvider) registry() *obs.Registry {
	if mp.Obs != nil {
		return mp.Obs
	}
	return obs.Default
}

// NewMetadataProvider returns an empty metadata provider.
func NewMetadataProvider() *MetadataProvider {
	return &MetadataProvider{nodes: make(map[meta.NodeKey]nodeLoc)}
}

// Serve binds the metadata provider to addr on n.
func (mp *MetadataProvider) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(mp.registry, mp.handle))
}

func (mp *MetadataProvider) handle(ctx context.Context, frame []byte) ([]byte, error) {
	q, err := decodeFor("metadata provider", opNodeList, opNodeGetBatch, frame)
	if err != nil {
		return nil, err
	}
	_, sp := handlerSpan(ctx, mp.registry(), q.op)
	defer sp.End()
	w := wire.NewBuffer(64)
	switch q.op {
	case opNodeList:
		mp.mu.RLock()
		keys := slices.Collect(maps.Keys(mp.nodes))
		mp.mu.RUnlock()
		putList(w, keys, putNodeKey)

	case opNodeDelete:
		mp.mu.Lock()
		mp.deleteLocked(q.nodes[0])
		mp.mu.Unlock()

	case opNodeUsage:
		mp.mu.RLock()
		w.PutU64(uint64(mp.bytes))
		w.PutU64(uint64(len(mp.nodes)))
		mp.mu.RUnlock()

	case opNodePutBatch:
		// The encoded nodes are windows of the frame: putLocked copies.
		mp.mu.Lock()
		for i, key := range q.nodes {
			mp.putLocked(key, q.vals[i])
		}
		mp.mu.Unlock()

	case opNodeGetBatch:
		// Collect under the lock (stored nodes are immutable), then encode
		// into a response sized once: a whole tree level can ride one frame.
		vals := make([][]byte, len(q.nodes))
		held := make([]bool, len(q.nodes))
		size := 0
		mp.mu.RLock()
		for i, key := range q.nodes {
			vals[i], held[i] = mp.getLocked(key)
			size += 1 + binary.MaxVarintLen32 + len(vals[i])
		}
		mp.mu.RUnlock()
		w = wire.NewBuffer(size)
		for i, val := range vals {
			w.PutBool(held[i])
			if held[i] {
				w.PutBytes(val)
			}
		}
	}
	return w.Bytes(), nil
}
