package blobseer

import (
	"bytes"
	"context"
	"encoding/hex"
	"sync"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/transport"
)

// recordingNet is a Network that keeps a copy of every request frame sent
// through it, in call order.
type recordingNet struct {
	transport.Network
	mu     sync.Mutex
	frames [][]byte
}

func (n *recordingNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	n.mu.Lock()
	n.frames = append(n.frames, bytes.Clone(req))
	n.mu.Unlock()
	return n.Network.Call(ctx, addr, req)
}

// clientFrames runs a fixed script of client calls against an in-process
// deployment — one metadata and one data provider, whose auto-assigned
// addresses are inproc-3 and inproc-4 — and returns the first request frame
// the client sent for each op. The script reaches every op of the four
// services.
func clientFrames(t *testing.T) map[byte][]byte {
	t.Helper()
	rec := &recordingNet{Network: transport.NewInProc()}
	d, err := Deploy(rec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	data := d.DataAddrs[0]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	const chunk = 32
	body0 := bytes.Repeat([]byte{0xA0}, chunk)
	body1 := bytes.Repeat([]byte{0xB1}, chunk/2)
	fp0 := cas.Sum(body0)
	blob, err := c.CreateBlob(ctx, chunk)
	must(err)
	// latest, list-blobs, ticket, providers, cas-ref-batch, cas-put-batch,
	// node-put-batch, commit.
	v0, _, err := c.WriteChunks(ctx, blob, nil, nil, []Chunk{{Index: 0, Body: body0}}, chunk)
	must(err)
	ref0 := SnapshotRef{Blob: blob, Version: v0.Version}
	v1, _, err := c.WriteChunks(ctx, blob, &ref0, nil, []Chunk{{Index: 0, Body: body1}, {Index: 2, Body: body1}}, 3*chunk)
	must(err)
	// get-version; a cold client reads the tree: node-get-batch,
	// chunk-get-batch.
	_, err = d.Client().ReadVersion(ctx, SnapshotRef{Blob: blob, Version: v1.Version}, 0, 3*chunk)
	must(err)
	_, err = c.Clone(ctx, SnapshotRef{Blob: blob, Version: v1.Version})
	must(err)
	must(c.PutHint(ctx, blob, []uint64{2, 0, 1 << 33}))
	_, err = c.GetHint(ctx, blob)
	must(err)
	_, err = c.RelocateWrites(ctx, false, []Relocation{{FP: fp0, From: data, To: "inproc-99"}, {FP: cas.Sum(body1), From: data, To: ""}})
	must(err)
	must(c.RegisterProvider(ctx, "spare:7720"))
	must(c.DrainProvider(ctx, "spare:7720"))
	must(c.RetireProvider(ctx, "spare:7720"))
	must(c.UnregisterProvider(ctx, "gone:7721"))
	_, err = c.Membership(ctx)
	must(err)
	_, _, err = c.Usage(ctx, d.DataAddrs)
	must(err)
	_, _, err = c.MetaUsage(ctx)
	must(err)
	_, err = c.CasStats(ctx, d.DataAddrs)
	must(err)
	_, err = c.StoreEngineStats(ctx, data)
	must(err)
	_, err = c.CompactChunkStore(ctx, data)
	must(err)
	_, err = c.ReleaseCasRefsAt(ctx, data, cas.Sum([]byte("never stored")), 3)
	must(err)
	_, _, err = c.casReleaseBatch(ctx, data, []cas.Fingerprint{cas.Sum([]byte("never stored")), fp0})
	must(err)
	c.DeleteChunkAt(ctx, data, chunkstore.Key{Blob: 7, ID: 1 << 40}) // not stored: refused after decoding
	c.abort(ctx, blob, 1<<20)
	// retire, then GC: list-live, node-list, node-delete (v0's root),
	// chunk-list.
	_, err = c.RetireStats(ctx, blob, v1.Version)
	must(err)
	_, err = c.GC(ctx, d.DataAddrs)
	must(err)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	first := make(map[byte][]byte)
	for _, f := range rec.frames {
		if _, seen := first[f[0]]; !seen {
			first[f[0]] = f
		}
	}
	return first
}

// goldenFrames is the first frame clientFrames records for each op, as the
// client's hand-written encoders built it before the request codec existed.
// The codec keeps every frame byte for byte, so a deployment of either side
// serves the other.
var goldenFrames = map[string]string{
	"create":            "012000000000000000",
	"ticket":            "020100000000000000",
	"commit":            "0301000000000000000000000000000000200000000000000001000000000000000101000000000000000000000000000000010020545e9f3eaf2ba2883101637f4db862733ecedb93ed30a402688873edf3c256f60108696e70726f632d34",
	"abort":             "0401000000000000000000100000000000",
	"get-version":       "0501000000000000000000000000000000",
	"latest":            "060100000000000000",
	"clone":             "0701000000000000000100000000000000",
	"list-live":         "08",
	"retire":            "0901000000000000000100000000000000",
	"list-blobs":        "0a",
	"relocate":          "0b000220545e9f3eaf2ba2883101637f4db862733ecedb93ed30a402688873edf3c256f608696e70726f632d3409696e70726f632d39392006823030139c09badc394f700a071e0c652c84ec62cf4eb4d4e84e7839493d4308696e70726f632d3400",
	"hint-put":          "0c01000000000000000302008080808020",
	"hint-get":          "0d0100000000000000",
	"register":          "2008696e70726f632d34",
	"providers":         "21",
	"unregister":        "2209676f6e653a37373231",
	"membership":        "23",
	"drain":             "240a73706172653a37373230",
	"retire-provider":   "250a73706172653a37373230",
	"chunk-delete":      "4007000000000000000000000000010000",
	"chunk-list":        "41",
	"chunk-usage":       "42",
	"cas-release-batch": "430220b68565cf5699273f6a21847b3fe44726374cbd6c3bfdc829527f1db2a050434120545e9f3eaf2ba2883101637f4db862733ecedb93ed30a402688873edf3c256f6",
	"cas-stats":         "44",
	"chunk-get-batch":   "4501ba099c13303082060c1e070a704f39dc",
	"cas-ref-batch":     "460120545e9f3eaf2ba2883101637f4db862733ecedb93ed30a402688873edf3c256f6",
	"cas-put-batch":     "470120545e9f3eaf2ba2883101637f4db862733ecedb93ed30a402688873edf3c256f620a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0",
	"cas-release-n":     "4820b68565cf5699273f6a21847b3fe44726374cbd6c3bfdc829527f1db2a050434103",
	"store-stats":       "49",
	"store-compact":     "4a",
	"node-list":         "60",
	"node-delete":       "610100000000000000000000000000000000000000000000001000000000000000",
	"node-usage":        "62",
	"node-put-batch":    "63010100000000000000000000000000000000000000000000001000000000000000240210010108696e70726f632d3401010088a22baf3e9f5e547362b84d7f63013120000000",
	"node-get-batch":    "64010100000000000000010000000000000000000000000000001000000000000000",
}

// TestRequestFramesAreGolden: the client sends every op's request as it did
// when each call site wrote its frame by hand.
func TestRequestFramesAreGolden(t *testing.T) {
	got := clientFrames(t)
	if len(goldenFrames) != len(opNames) {
		t.Fatalf("%d golden frames for %d ops", len(goldenFrames), len(opNames))
	}
	for op, name := range opNames {
		want, ok := goldenFrames[name]
		if !ok {
			t.Errorf("%s: no golden frame", name)
			continue
		}
		frame, ok := got[op]
		switch {
		case !ok:
			t.Errorf("%s: the script sent no frame", name)
		case hex.EncodeToString(frame) != want:
			t.Errorf("%s: frame\n %x\nwant\n %s", name, frame, want)
		}
	}
	for op := range got {
		if _, ok := opNames[op]; !ok {
			t.Errorf("a frame of unnamed op %d", op)
		}
	}
}
