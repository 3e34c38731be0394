package blobseer

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/wire"
)

// This file is the storage-plane control surface the elastic membership and
// repair subsystem (internal/repair) is built on: membership queries and
// transitions against the provider manager, write-event reference relocation
// against the version manager, live-version enumeration, and direct
// per-provider chunk I/O for scrub fetches and re-replication installs.

// Membership returns the provider manager's full membership view: every
// provider with its state (active or draining) and the epoch that bumps on
// each change.
func (c *Client) Membership(ctx context.Context) (Membership, error) {
	r, err := c.call(ctx, c.PMAddr, request{op: opMembership}.encode())
	if err != nil {
		return Membership{}, err
	}
	m := Membership{Epoch: r.U64()}
	m.Providers = getList(r, maxBatchItems, func(r *wire.Reader) ProviderInfo {
		return ProviderInfo{Addr: r.String(), State: ProviderState(r.U8())}
	})
	return m, r.Err()
}

// DrainProvider starts a DECOMMISSION: the provider leaves the placement
// rotation but keeps serving reads. The repair plane then re-places its
// replicas elsewhere; once it holds no live chunk, RetireProvider removes it
// for good. Draining an already-draining provider is a no-op.
func (c *Client) DrainProvider(ctx context.Context, addr string) error {
	_, err := c.call(ctx, c.PMAddr, request{op: opDrain, addr: addr}.encode())
	return err
}

// RetireProvider completes a DECOMMISSION, removing a drained provider from
// the membership. The provider manager refuses to retire a provider that is
// still active (placement-eligible); retiring an unknown provider is a
// no-op.
func (c *Client) RetireProvider(ctx context.Context, addr string) error {
	_, err := c.call(ctx, c.PMAddr, request{op: opRetireProvider, addr: addr}.encode())
	return err
}

// RelocateWrites counts — and with apply, commits — the relocation of write-
// event references on the version manager: every occurrence of each
// relocation's From provider on events carrying its fingerprint becomes To.
// It returns the occurrence count per relocation, aligned with the input.
//
// The repair plane calls it twice per move: once with apply=false to learn
// how many references to pre-install at the new provider, and once with
// apply=true to commit; the difference between the two counts (events
// retired or published in between) is settled against the new provider, so
// CAS reference counts stay exact through a re-replication racing commits
// and Retire.
func (c *Client) RelocateWrites(ctx context.Context, apply bool, relocs []Relocation) ([]uint64, error) {
	if len(relocs) == 0 {
		return nil, nil
	}
	counts := make([]uint64, len(relocs))
	for start := 0; start < len(relocs); start += maxFrameItems {
		end := min(start+maxFrameItems, len(relocs))
		r, err := c.call(ctx, c.VMAddr, request{op: opRelocate, apply: apply, relocs: relocs[start:end]}.encode())
		if err != nil {
			return nil, err
		}
		for i := start; i < end; i++ {
			counts[i] = r.Uvarint()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// LiveVersion is one non-retired published version.
type LiveVersion struct {
	Blob      uint64
	Info      VersionInfo
	ChunkSize uint64
}

// LiveVersions enumerates every non-retired published version of every blob
// — the root set a scrub walks and the mark-and-sweep GC marks from.
func (c *Client) LiveVersions(ctx context.Context) ([]LiveVersion, error) {
	r, err := c.call(ctx, c.VMAddr, request{op: opListLive}.encode())
	if err != nil {
		return nil, err
	}
	out := getList(r, maxBatchItems, func(r *wire.Reader) LiveVersion {
		return LiveVersion{Blob: r.U64(), Info: getVersionInfo(r), ChunkSize: r.U64()}
	})
	return out, r.Err()
}

// VersionLeaves returns every present chunk descriptor of the version, in
// index order (holes omitted). The tree descent is the batched level-order
// Lookup, so the call costs O(tree depth) round trips per metadata provider.
func (c *Client) VersionLeaves(ctx context.Context, info VersionInfo) ([]meta.LeafSlot, error) {
	if !info.Root.Valid {
		return nil, nil
	}
	slots, err := c.tree(ctx).Lookup(info.Root, info.Span, 0, info.Span)
	if err != nil {
		return nil, err
	}
	out := slots[:0]
	for _, s := range slots {
		if s.Present {
			out = append(out, s)
		}
	}
	return out, nil
}

// PlacementRanked returns every provider ordered by rendezvous (highest-
// random-weight) preference for the chunk key. The ranking is keyed by the
// storage key — for content-addressed chunks that key is derived from the
// fingerprint (cas.Fingerprint.Key), so writers, readers and the repair
// plane all derive the same ranking: a writer's canonical placement is the
// first `replication` entries, a repair pass re-homes a lost replica on the
// next-ranked live provider, and a reader that exhausts a leaf's recorded
// replicas can fall back to the same ranking over the current membership.
// The order is stable when a provider leaves the rotation.
//
// The address is hashed before the key: FNV-1a diffuses its last input bytes
// poorly, so with the address last, providers whose addresses differ only in
// a final digit (inproc-5..8, consecutive ports) rank by that digit's bits
// and one of four takes half the chunks. The key's 16 uniform bytes after
// the address spread that difference over the whole score.
func PlacementRanked(key chunkstore.Key, providers []string) []string {
	type scored struct {
		addr  string
		score uint64
	}
	var kb [16]byte
	binary.BigEndian.PutUint64(kb[0:8], key.Blob)
	binary.BigEndian.PutUint64(kb[8:16], key.ID)
	scores := make([]scored, len(providers))
	for i, addr := range providers {
		h := fnv.New64a()
		h.Write([]byte(addr))
		h.Write(kb[:])
		scores[i] = scored{addr: addr, score: h.Sum64()}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].score != scores[j].score {
			return scores[i].score > scores[j].score
		}
		return scores[i].addr < scores[j].addr
	})
	out := make([]string, len(scores))
	for i := range out {
		out[i] = scores[i].addr
	}
	return out
}

// FetchChunksFrom fetches the bodies for keys from one provider, aligned
// with keys; a chunk the provider does not hold yields a nil entry. sizes
// are the expected body sizes, used to split the request into frames the
// same way the restore path does.
func (c *Client) FetchChunksFrom(ctx context.Context, addr string, keys []chunkstore.Key, sizes []int) ([][]byte, error) {
	out := make([][]byte, len(keys))
	err := splitByBytes(len(keys), func(i int) int { return sizes[i] }, func(start, end int) error {
		bodies, err := c.getChunkBatch(ctx, addr, keys[start:end])
		if err != nil {
			return err
		}
		copy(out[start:end], bodies)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CasReplica is one content-addressed body to install on a provider with an
// exact number of references. A nil Body means the provider is expected to
// hold the body already and only the references are added.
type CasReplica struct {
	FP   cas.Fingerprint
	Body []byte
	Refs uint64
}

// StoreCasReplicas installs content-addressed replicas on one provider:
// each item's body is uploaded (taking one reference) and its remaining
// references are added, in batched frames. Items with zero references are
// skipped. An item whose Body is nil but whose fingerprint the provider does
// not hold fails the call — the caller must re-place the body elsewhere. On
// a mid-call failure the references already taken stand; the caller's
// accounting (or the mark-and-sweep fallback) reconciles them.
func (c *Client) StoreCasReplicas(ctx context.Context, addr string, reps []CasReplica) error {
	var puts []CasReplica        // body uploads (1 ref each)
	var extras []cas.Fingerprint // additional single references, one entry per ref
	for _, rep := range reps {
		if rep.Refs == 0 {
			continue
		}
		refsOnly := rep.Refs
		if rep.Body != nil {
			puts = append(puts, rep)
			refsOnly--
		}
		for i := uint64(0); i < refsOnly; i++ {
			extras = append(extras, rep.FP)
		}
	}
	err := splitByBytes(len(puts), func(i int) int { return len(puts[i].Body) }, func(start, end int) error {
		fps := make([]cas.Fingerprint, 0, end-start)
		bodies := make([][]byte, 0, end-start)
		for _, rep := range puts[start:end] {
			fps = append(fps, rep.FP)
			bodies = append(bodies, rep.Body)
		}
		return c.casPutBatch(ctx, addr, fps, bodies)
	})
	if err != nil {
		return err
	}
	if len(extras) == 0 {
		return nil
	}
	held, _, err := c.casRefBatch(ctx, addr, extras)
	if err != nil {
		return err
	}
	for i, ok := range held {
		if !ok {
			return fmt.Errorf("blobseer: provider %s does not hold %s for a reference-only install", addr, extras[i])
		}
	}
	return nil
}

// ReleaseCasRefsAt drops n references on fp at one provider in a single
// round trip (opCasReleaseN), reporting the bytes reclaimed if the count
// reached zero.
func (c *Client) ReleaseCasRefsAt(ctx context.Context, addr string, fp cas.Fingerprint, n uint64) (reclaimedBytes uint64, err error) {
	if n == 0 {
		return 0, nil
	}
	r, err := c.call(ctx, addr, request{op: opCasReleaseN, fps: []cas.Fingerprint{fp}, arg: n}.encode())
	if err != nil {
		return 0, err
	}
	r.U64() // remaining count, unused here
	reclaimed := r.U64()
	return reclaimed, r.Err()
}

// DeleteChunkAt removes one stored chunk from one provider. For a content-
// addressed body this also drops the provider's dedup index entry — the
// primitive a repair pass uses to destroy a corrupt replica before
// re-placing a good one.
func (c *Client) DeleteChunkAt(ctx context.Context, addr string, key chunkstore.Key) error {
	_, err := c.call(ctx, addr, request{op: opChunkDelete, chunks: []chunkstore.Key{key}}.encode())
	return err
}
