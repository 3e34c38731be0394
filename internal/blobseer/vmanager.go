package blobseer

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"blobcr/internal/cas"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// ErrVersionNotFound is returned for lookups of unpublished versions. It
// satisfies errors.Is(err, transport.ErrNotFound), so the condition survives
// the wire without string matching.
var ErrVersionNotFound error = transport.NotFoundError("blobseer: version not found")

// ErrBlobNotFound is returned for operations on unknown blobs. Like
// ErrVersionNotFound it is marked as a transport-level not-found condition.
var ErrBlobNotFound error = transport.NotFoundError("blobseer: blob not found")

// blobState is the version manager's record of one BLOB.
type blobState struct {
	id        uint64
	chunkSize uint64
	versions  []VersionInfo           // published, dense, versions[i].Version == i
	nextTkt   uint64                  // next version number to hand out
	pending   map[uint64]*VersionInfo // committed out of order, awaiting predecessors
	retired   uint64                  // versions < retired are eligible for GC

	// Content-addressed bookkeeping. Manifests arrive with opCommit and are
	// applied in publish order: each write event at a chunk index supersedes
	// the previous event at the same index. A superseded event's content is
	// visible in versions [event, supersededAt), so once `retired` reaches
	// supersededAt the event's references can be released — this is what
	// makes Retire O(retired chunks).
	manifests  map[uint64][]manifestEntry // committed, awaiting publication
	lastWrite  map[uint64]writeEvent      // chunk index -> latest published write
	superseded []supersededEvent          // released (returned) by opRetire
	pins       []uint64                   // versions cloned from; their content is shared forever

	hint []uint64 // latest published demand record (opHintPut), at most maxHintBytes of chunks
}

// writeEvent is one published chunk write.
type writeEvent struct {
	version   uint64
	fp        cas.Fingerprint
	providers []string
}

// supersededEvent is a write whose index was overwritten at supersededAt.
type supersededEvent struct {
	writeEvent
	supersededAt uint64
}

// applyManifestLocked folds version v's manifest (if any) into the supersede
// tracking. Called exactly once per version, in publish order.
func (b *blobState) applyManifestLocked(v uint64) {
	m, ok := b.manifests[v]
	if !ok {
		return
	}
	delete(b.manifests, v)
	for _, e := range m {
		if prev, ok := b.lastWrite[e.index]; ok {
			b.superseded = append(b.superseded, supersededEvent{writeEvent: prev, supersededAt: v})
		}
		b.lastWrite[e.index] = writeEvent{version: v, fp: e.fp, providers: e.providers}
	}
}

// pinnedIn reports whether any cloned-from version lies in [from, until):
// the clone shares the content visible there, so it must never be released.
func (b *blobState) pinnedIn(from, until uint64) bool {
	for _, p := range b.pins {
		if p >= from && p < until {
			return true
		}
	}
	return false
}

// relocateLocked counts — and with apply, rewrites — the provider entries of
// every write event carrying one of the relocations' fingerprints: each
// occurrence of From on such an event becomes To. Events are scanned in all
// three stores (published lastWrite, superseded-awaiting-release, and
// committed-but-unpublished manifests), so a repair that moves a replica
// redirects exactly the releases a later Retire will issue. Returns the
// occurrence count per relocation, aligned with the input. Relocations must
// name distinct (FP, From) pairs; a duplicate pair counts on the last entry.
// Caller holds vm.mu (via handle).
func (vm *VersionManager) relocateLocked(apply bool, relocs []Relocation) []uint64 {
	counts := make([]uint64, len(relocs))
	type fromKey struct {
		fp   cas.Fingerprint
		from string
	}
	byKey := make(map[fromKey]int, len(relocs))
	for i, rl := range relocs {
		byKey[fromKey{fp: rl.FP, from: rl.From}] = i
	}
	visit := func(fp cas.Fingerprint, providers []string) {
		for j, p := range providers {
			i, ok := byKey[fromKey{fp: fp, from: p}]
			if !ok {
				continue
			}
			counts[i]++
			if apply {
				providers[j] = relocs[i].To
			}
		}
	}
	for _, b := range vm.blobs {
		for _, ev := range b.lastWrite {
			visit(ev.fp, ev.providers)
		}
		for _, ev := range b.superseded {
			visit(ev.fp, ev.providers)
		}
		for _, m := range b.manifests {
			for _, e := range m {
				visit(e.fp, e.providers)
			}
		}
	}
	return counts
}

// VersionManager serializes version publication and stores per-version
// descriptors. It is the only sequential point of the system, and it handles
// only small metadata records, exactly as in BlobSeer's design.
type VersionManager struct {
	// Obs receives the manager's handler spans and serves its introspection
	// ops; nil means obs.Default. Set before Serve.
	Obs *obs.Registry

	mu sync.Mutex
	// published is broadcast whenever a blob's published horizon advances;
	// a commit that arrived ahead of its predecessors waits on it.
	published *sync.Cond
	blobs     map[uint64]*blobState
	nextBlob  uint64
}

func (vm *VersionManager) registry() *obs.Registry {
	if vm.Obs != nil {
		return vm.Obs
	}
	return obs.Default
}

// NewVersionManager returns an empty version manager.
func NewVersionManager() *VersionManager {
	vm := &VersionManager{blobs: make(map[uint64]*blobState), nextBlob: 1}
	vm.published = sync.NewCond(&vm.mu)
	return vm
}

// publishLocked publishes b's pending versions in ticket order, stopping at
// the first gap, and wakes the commits waiting for their version to appear.
func (vm *VersionManager) publishLocked(b *blobState) {
	for {
		next, ok := b.pending[uint64(len(b.versions))]
		if !ok {
			break
		}
		delete(b.pending, next.Version)
		b.versions = append(b.versions, *next)
		b.applyManifestLocked(next.Version)
	}
	vm.published.Broadcast()
}

// awaitPublishedLocked blocks, with vm.mu released, until b has published
// version v or ctx ends.
func (vm *VersionManager) awaitPublishedLocked(ctx context.Context, b *blobState, v uint64) error {
	if v < uint64(len(b.versions)) {
		return nil
	}
	// Wake the waiter when ctx ends; taking vm.mu orders the broadcast
	// after the waiter's ctx check, so the wake-up cannot be missed.
	stop := context.AfterFunc(ctx, func() {
		vm.mu.Lock()
		defer vm.mu.Unlock()
		vm.published.Broadcast()
	})
	defer stop()
	for v >= uint64(len(b.versions)) {
		if err := ctx.Err(); err != nil {
			return err
		}
		vm.published.Wait()
	}
	return nil
}

func newBlobState(id, chunkSize uint64) *blobState {
	return &blobState{
		id:        id,
		chunkSize: chunkSize,
		pending:   make(map[uint64]*VersionInfo),
		manifests: make(map[uint64][]manifestEntry),
		lastWrite: make(map[uint64]writeEvent),
	}
}

// Serve binds the version manager to addr on n.
func (vm *VersionManager) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, transport.Introspect(vm.registry, vm.handle))
}

func (vm *VersionManager) handle(ctx context.Context, frame []byte) ([]byte, error) {
	q, err := decodeFor("version manager", opCreate, opHintGet, frame)
	if err != nil {
		return nil, err
	}
	_, sp := handlerSpan(ctx, vm.registry(), q.op)
	defer sp.End()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	var b *blobState // the blob of the ops that name one
	switch q.op {
	case opTicket, opCommit, opAbort, opGetVersion, opLatest, opClone, opRetire, opHintPut, opHintGet:
		if b = vm.blobs[q.blob]; b == nil {
			return nil, fmt.Errorf("%w: %d", ErrBlobNotFound, q.blob)
		}
	}
	w := wire.NewBuffer(64)
	switch q.op {
	case opCreate:
		if q.arg == 0 {
			return nil, errors.New("blobseer: chunk size must be positive")
		}
		id := vm.nextBlob
		vm.nextBlob++
		vm.blobs[id] = newBlobState(id, q.arg)
		w.PutU64(id)

	case opTicket:
		w.PutU64(b.nextTkt)
		b.nextTkt++

	case opCommit:
		// A corrupt manifest failed the decode: the manifest is the only
		// record Retire releases from, so publishing without it would leak
		// every reference the commit took.
		info := q.info
		if info.Version >= b.nextTkt {
			return nil, fmt.Errorf("blobseer: commit of unticketed version %d", info.Version)
		}
		if info.Version < uint64(len(b.versions)) {
			return nil, fmt.Errorf("blobseer: version %d already published", info.Version)
		}
		b.pending[info.Version] = &info
		if len(q.manifest) > 0 {
			b.manifests[info.Version] = q.manifest
		}
		// Publish in ticket order. A commit that arrived ahead of an open
		// predecessor answers only once the predecessor commits or aborts:
		// the version it returns must be readable.
		vm.publishLocked(b)
		if err := vm.awaitPublishedLocked(ctx, b, info.Version); err != nil {
			return nil, err
		}
		w.PutU64(uint64(len(b.versions))) // published horizon

	case opAbort:
		// An aborted ticket publishes the predecessor's state under the
		// reserved number so later versions are not blocked forever.
		if version := q.arg; version >= uint64(len(b.versions)) {
			var prev VersionInfo
			if len(b.versions) > 0 {
				prev = b.versions[len(b.versions)-1]
			}
			prev.Version = version
			b.pending[version] = &prev
			vm.publishLocked(b)
		}

	case opGetVersion:
		if q.arg >= uint64(len(b.versions)) {
			return nil, fmt.Errorf("%w: blob %d version %d", ErrVersionNotFound, q.blob, q.arg)
		}
		putVersionInfo(w, b.versions[q.arg])
		w.PutU64(b.chunkSize)

	case opLatest:
		if len(b.versions) == 0 {
			return nil, fmt.Errorf("%w: blob %d has no versions", ErrVersionNotFound, q.blob)
		}
		putVersionInfo(w, b.versions[len(b.versions)-1])
		w.PutU64(b.chunkSize)

	case opClone:
		src, srcVersion := b, q.arg
		if srcVersion >= uint64(len(src.versions)) {
			return nil, fmt.Errorf("%w: blob %d version %d", ErrVersionNotFound, q.blob, srcVersion)
		}
		id := vm.nextBlob
		vm.nextBlob++
		srcInfo := src.versions[srcVersion]
		// The clone shares the origin's content at srcVersion forever: pin
		// that version so retiring the origin never releases chunks the
		// clone's tree still reaches.
		src.pins = append(src.pins, srcVersion)
		clone := newBlobState(id, src.chunkSize)
		clone.nextTkt = 1
		clone.versions = []VersionInfo{{
			Version: 0,
			Size:    srcInfo.Size,
			Span:    srcInfo.Span,
			Root:    srcInfo.Root,
		}}
		vm.blobs[id] = clone
		w.PutU64(id)

	case opListLive:
		var live []LiveVersion
		for _, id := range vm.sortedIDsLocked() {
			b := vm.blobs[id]
			for _, v := range b.versions {
				if v.Version >= b.retired {
					live = append(live, LiveVersion{Blob: id, Info: v, ChunkSize: b.chunkSize})
				}
			}
		}
		putList(w, live, func(w *wire.Buffer, lv LiveVersion) {
			w.PutU64(lv.Blob)
			putVersionInfo(w, lv.Info)
			w.PutU64(lv.ChunkSize)
		})

	case opRetire:
		before := min(q.arg, uint64(len(b.versions)))
		if before > b.retired {
			b.retired = before
		}
		w.PutU64(b.retired)
		// Collect the write events whose entire visibility window now falls
		// below the retired horizon: those references can be released on the
		// data providers. Events a clone still shares are dropped without
		// release (pinned forever). This is O(superseded events), i.e.
		// O(chunks written by retired versions) — no repository sweep.
		var releasable []manifestEntry
		keep := b.superseded[:0]
		for _, ev := range b.superseded {
			switch {
			case ev.supersededAt > b.retired:
				keep = append(keep, ev)
			case b.pinnedIn(ev.version, ev.supersededAt):
				// dropped: shared with a clone
			default:
				releasable = append(releasable, manifestEntry{fp: ev.fp, providers: ev.providers})
			}
		}
		b.superseded = keep
		putList(w, releasable, putRelease)

	case opRelocate:
		for _, n := range vm.relocateLocked(q.apply, q.relocs) {
			w.PutUvarint(n)
		}

	case opHintPut:
		// The record decoded whole before it replaces anything, and one
		// over the cap is refused: either way a bad record leaves the
		// previous one in place.
		if limit := maxHintBytes / b.chunkSize; uint64(len(q.indices)) > limit {
			return nil, fmt.Errorf("blobseer: hint of %d chunks over the limit of %d", len(q.indices), limit)
		}
		b.hint = q.indices

	case opHintGet:
		w.PutIndices(b.hint)

	case opListBlobs:
		ids := vm.sortedIDsLocked()
		putList(w, ids, func(w *wire.Buffer, id uint64) {
			w.PutU64(id)
			w.PutU64(vm.blobs[id].chunkSize)
			w.PutU64(uint64(len(vm.blobs[id].versions)))
		})
	}
	return w.Bytes(), nil
}

// sortedIDsLocked returns the blob ids in ascending order. Caller holds
// vm.mu.
func (vm *VersionManager) sortedIDsLocked() []uint64 {
	ids := slices.Collect(maps.Keys(vm.blobs))
	slices.Sort(ids)
	return ids
}
