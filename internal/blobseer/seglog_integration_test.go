package blobseer

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// seglogDeploy starts a deployment whose data providers sit on segment logs
// under a test temp dir.
func seglogDeploy(t *testing.T, nMeta, nData int) (*Deployment, *Client) {
	t.Helper()
	d, err := DeployWith(transport.NewInProc(), nMeta, nData,
		SeglogStores(t.TempDir(), seglog.Options{DisableAutoCompact: true}))
	if err != nil {
		t.Fatalf("DeployWith: %v", err)
	}
	t.Cleanup(d.Close)
	return d, d.Client()
}

// TestSeglogBackedDeployment drives the full write/read/retire/GC cycle of
// the service against log-structured providers: the paths that issue Put,
// Get, Keys and Delete against the engine through the whole stack.
func TestSeglogBackedDeployment(t *testing.T) {
	d, c := seglogDeploy(t, 2, 3)
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	var infos []VersionInfo
	for v := 0; v < 4; v++ {
		writes := make(map[uint64][]byte)
		for i := uint64(0); i < 8; i++ {
			writes[i] = bytes.Repeat([]byte{byte(v*16 + int(i) + 1)}, testChunkSize)
		}
		info, err := c.WriteVersion(ctx, blob, writes, 8*testChunkSize)
		if err != nil {
			t.Fatalf("WriteVersion %d: %v", v, err)
		}
		infos = append(infos, info)
	}
	for v, info := range infos {
		got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 8*testChunkSize)
		if err != nil {
			t.Fatalf("ReadVersion %d: %v", v, err)
		}
		if got[0] != byte(v*16+1) {
			t.Fatalf("version %d read wrong data: %d", v, got[0])
		}
	}

	// The engine is visible over the wire.
	for _, addr := range d.DataAddrs {
		es, err := c.StoreEngineStats(ctx, addr)
		if err != nil {
			t.Fatalf("StoreEngineStats(%s): %v", addr, err)
		}
		if es.Backend != "cas+seglog" {
			t.Fatalf("backend = %q, want cas+seglog", es.Backend)
		}
	}

	// Retire + GC delete dead chunks through the engine; compaction over the
	// wire then reclaims the log space.
	last := infos[len(infos)-1].Version
	if err := c.Retire(ctx, blob, last); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(ctx, d.DataAddrs); err != nil {
		t.Fatalf("GC: %v", err)
	}
	for _, addr := range d.DataAddrs {
		if _, err := c.CompactChunkStore(ctx, addr); err != nil {
			t.Fatalf("CompactChunkStore(%s): %v", addr, err)
		}
	}
	got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: last}, 0, 8*testChunkSize)
	if err != nil {
		t.Fatalf("surviving version after GC+compaction: %v", err)
	}
	if got[0] != byte((len(infos)-1)*16+1) {
		t.Fatal("surviving version corrupted")
	}
}

// TestStoreStatsBackends: the wire stats verb reports each backend
// truthfully, and compaction on a backend with nothing to compact is a
// zero-result no-op, not an error.
func TestStoreStatsBackends(t *testing.T) {
	d, c := deploy(t, 1, 1) // mem-backed
	es, err := c.StoreEngineStats(ctx, d.DataAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(es.Backend, "cas+") {
		t.Fatalf("backend = %q, want cas+ prefix", es.Backend)
	}
	res, err := c.CompactChunkStore(ctx, d.DataAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The CAS layer implements Compactor by delegation; over a mem backend
	// the pass is a zero-result no-op.
	if res != (chunkstore.CompactResult{}) {
		t.Fatalf("mem backend reported compaction work: %+v", res)
	}
}

// TestOpenStore covers the daemons' backend choice: the directory alone
// decides between the segment log and memory.
func TestOpenStore(t *testing.T) {
	for _, tc := range []struct{ dir, want string }{
		{"", "mem"},
		{t.TempDir() + "/s", "seglog"},
	} {
		s, err := OpenStore(tc.dir)
		if err != nil {
			t.Fatalf("OpenStore(%q): %v", tc.dir, err)
		}
		if got := chunkstore.StatsOf(s).Backend; got != tc.want {
			t.Fatalf("OpenStore(%q) = %q, want %q", tc.dir, got, tc.want)
		}
		closeStore(s)
	}
}

// TestChunkGetBatchBuildsOneSizedResponse: the data provider answers a chunk
// batch from one pooled frame sized from the dedup index — no growth while the
// bodies are read into it, whatever their on-disk encoding — reports absent
// keys per item without leaving a half-written item behind, and still serves
// a body the index does not know (stored behind its back) by growing.
func TestChunkGetBatchBuildsOneSizedResponse(t *testing.T) {
	backend, err := seglog.Open(t.TempDir(), seglog.Options{DisableAutoCompact: true, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cas.NewStore(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dp := NewDataProvider(store)

	rng := rand.New(rand.NewSource(5))
	raw := make([]byte, 64<<10)
	rng.Read(raw)
	bodies := [][]byte{raw, make([]byte, 8192), bytes.Repeat([]byte("checkpoint"), 900), raw[:100]}
	for _, b := range bodies {
		if _, err := store.PutContent(cas.Sum(b), b); err != nil {
			t.Fatal(err)
		}
	}
	absent := chunkstore.Key{Blob: 404, ID: 404}
	ask := func(keys []chunkstore.Key) ([]byte, [][]byte) {
		t.Helper()
		w := wire.NewBuffer(16 + 16*len(keys))
		w.PutU8(opChunkGetBatch)
		w.PutUvarint(uint64(len(keys)))
		for _, k := range keys {
			putChunkKey(w, k)
		}
		resp, err := dp.handle(ctx, w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(resp)
		out := make([][]byte, len(keys))
		for i := range keys {
			if r.Bool() {
				out[i] = r.Bytes()
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("response does not decode cleanly: err %v, %d bytes left over", r.Err(), r.Remaining())
		}
		return resp, out
	}

	keys := []chunkstore.Key{cas.Sum(bodies[0]).Key(), absent, cas.Sum(bodies[1]).Key(), cas.Sum(bodies[2]).Key(), absent, cas.Sum(bodies[3]).Key()}
	resp, got := ask(keys)
	want := [][]byte{bodies[0], nil, bodies[1], bodies[2], nil, bodies[3]}
	sized := 0
	for i := range keys {
		if (got[i] == nil) != (want[i] == nil) || !bytes.Equal(got[i], want[i]) {
			t.Errorf("item %d: got %d bytes (present %v), want %d (present %v)", i, len(got[i]), got[i] != nil, len(want[i]), want[i] != nil)
		}
		sized += 1 + binary.MaxVarintLen32 + len(want[i])
	}
	// The response is a pooled frame: its capacity is the size class of
	// what it was sized to.
	if class := cap(wire.GetFrame(sized)); cap(resp) != class {
		t.Errorf("response capacity %d, want the %d-byte class of the %d it was sized to: the buffer grew or was sized twice", cap(resp), class, sized)
	}

	// A body the dedup index has never seen.
	stray := chunkstore.Key{Blob: 1, ID: 2}
	if err := store.Put(stray, raw[:5000]); err != nil {
		t.Fatal(err)
	}
	if _, got := ask([]chunkstore.Key{stray, keys[0]}); !bytes.Equal(got[0], raw[:5000]) || !bytes.Equal(got[1], raw) {
		t.Error("a chunk stored behind the index's back was not served")
	}
}
