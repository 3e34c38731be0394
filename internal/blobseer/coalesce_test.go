package blobseer

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/transport"
)

// getItemNet counts the items of every chunk-get-batch request it carries.
type getItemNet struct {
	*transport.InProc
	mu    sync.Mutex
	items int
}

func (n *getItemNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if len(req) > 1 && req[0] == opChunkGetBatch {
		count, _ := binary.Uvarint(req[1:])
		n.mu.Lock()
		n.items += int(count)
		n.mu.Unlock()
	}
	return n.InProc.Call(ctx, addr, req)
}

func (n *getItemNet) sent() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.items
}

// TestReadChunksCoalescesByContent reads one snapshot holding recurring
// bodies, whole and tail-length zero bodies, holes and unique bodies. Every
// index reads back as written; each distinct non-zero body is asked of a
// provider once, a zero body not at all; no two delivered bodies share
// memory; and when the shared body's first replica is corrupt or its
// provider is partitioned, the body is failed over once — not once per
// index — and every index that names it still receives the good bytes.
func TestReadChunksCoalescesByContent(t *testing.T) {
	const chunk = 1024
	rng := rand.New(rand.NewSource(21))
	unique := func() []byte {
		b := make([]byte, chunk)
		rng.Read(b)
		return b
	}
	shared, pair := unique(), unique()
	writes := map[uint64][]byte{
		0: shared, 2: shared, 3: make([]byte, chunk), 4: unique(), 5: shared,
		6: pair, 7: pair, 8: make([]byte, chunk), 10: unique(), 11: make([]byte, 300),
	}
	const size = 11*chunk + 300 // chunk 11 is a short all-zero tail
	indices := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 4000}
	const distinct = 4 // shared, pair and the two unique bodies

	cases := []struct {
		name        string
		fault       func(t *testing.T, d *Deployment, net *getItemNet, first string)
		wantCorrupt int
		// failOvers is the replica attempts the read must move on from,
		// given how many distinct bodies have their first replica on the
		// shared body's first provider.
		failOvers func(firstOn int) int
	}{
		{name: "healthy"},
		{
			name: "corrupt shared replica",
			fault: func(t *testing.T, d *Deployment, _ *getItemNet, first string) {
				for i, addr := range d.DataAddrs {
					if addr != first {
						continue
					}
					// Mem.Get hands back the stored slice: rot it in place.
					body, err := d.DataProviderStores()[i].Get(cas.Sum(shared).Key())
					if err != nil {
						t.Fatal(err)
					}
					body[0] ^= 0xFF
				}
			},
			wantCorrupt: 1,
			failOvers:   func(int) int { return 1 },
		},
		{
			name: "shared body's provider partitioned",
			fault: func(t *testing.T, _ *Deployment, net *getItemNet, first string) {
				net.Partition(first)
				t.Cleanup(func() { net.Heal(first) })
			},
			failOvers: func(firstOn int) int { return firstOn },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := &getItemNet{InProc: transport.NewInProc()}
			d, err := Deploy(net, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			c := d.Client()
			c.Replication = 2
			blob, err := c.CreateBlob(ctx, chunk)
			if err != nil {
				t.Fatal(err)
			}
			info, err := c.WriteVersion(ctx, blob, writes, size)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := c.Open(ctx, SnapshotRef{Blob: blob, Version: info.Version})
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := c.VersionLeaves(ctx, info)
			if err != nil {
				t.Fatal(err)
			}
			first := replicaOrder(leafOf(t, leaves, 0))[0]
			firstOn := make(map[chunkstore.Key]bool)
			for _, l := range leaves {
				if l.Present && !chunkstore.IsZero(writes[l.Index]) && replicaOrder(l.Leaf)[0] == first {
					firstOn[l.Leaf.Key] = true
				}
			}
			wantFailOvers := 0
			if tc.fault != nil {
				tc.fault(t, d, net, first)
				wantFailOvers = tc.failOvers(len(firstOn))
			}

			sentBefore := net.sent()
			var mu sync.Mutex
			got := make(map[uint64][]byte)
			stats, err := snap.ReadChunks(ctx, indices, func(idx uint64, body []byte) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[idx]; dup {
					t.Errorf("chunk %d delivered twice", idx)
				}
				got[idx] = body
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(indices) {
				t.Fatalf("delivered %d indices, want %d", len(got), len(indices))
			}
			for _, idx := range indices {
				body, want := got[idx], writes[idx]
				switch {
				case want != nil && chunkstore.IsZero(want):
					if body != nil {
						t.Errorf("zero chunk %d delivered as %d fetched bytes, want nil", idx, len(body))
					}
				case !bytes.Equal(body, want) || (body == nil) != (want == nil):
					t.Errorf("chunk %d: delivered %d bytes (nil %v), want %d (nil %v)", idx, len(body), body == nil, len(want), want == nil)
				}
			}
			if want := (ReadStats{Chunks: 10, Coalesced: 3, ZeroBodies: 3, UnfetchedBytes: 5*chunk + 300}); stats.Chunks != want.Chunks ||
				stats.Coalesced != want.Coalesced || stats.ZeroBodies != want.ZeroBodies || stats.UnfetchedBytes != want.UnfetchedBytes {
				t.Errorf("stats %+v, want chunks/coalesced/zero/unfetched as in %+v", stats, want)
			}
			if stats.CorruptReplicas != tc.wantCorrupt || stats.FailedOver != wantFailOvers {
				t.Errorf("stats %+v: want %d corrupt replicas and %d failovers", stats, tc.wantCorrupt, wantFailOvers)
			}
			if sent, want := net.sent()-sentBefore, distinct+wantFailOvers; sent != want {
				t.Errorf("asked providers for %d bodies, want one per distinct non-zero body and failover (%d)", sent, want)
			}

			// Write a marker into every delivered body, then check each
			// still holds its own: a body sharing memory with another
			// would carry the later marker.
			for k, idx := range indices {
				for i := range got[idx] {
					got[idx][i] = byte(k + 1)
				}
			}
			for k, idx := range indices {
				if bytes.Count(got[idx], []byte{byte(k + 1)}) != len(got[idx]) {
					t.Errorf("chunk %d shares memory with another delivered body", idx)
				}
			}
		})
	}
}

// leafOf returns the descriptor of chunk idx among a version's leaves.
func leafOf(t *testing.T, leaves []meta.LeafSlot, idx uint64) meta.Leaf {
	t.Helper()
	for _, l := range leaves {
		if l.Index == idx && l.Present {
			return l.Leaf
		}
	}
	t.Fatalf("chunk %d has no leaf", idx)
	return meta.Leaf{}
}
