package proxy

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/localtier"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// stagePutFrame builds a stage-put frame announcing count chunks and
// carrying the given ones.
func stagePutFrame(count uint32, chunks []blobseer.Chunk) []byte {
	b := wire.NewBuffer(128)
	b.PutU8(opStagePut)
	b.PutString("vm-9")
	b.PutU64(4) // seq
	b.PutU64(1) // base blob
	b.PutU64(2) // base version
	b.PutU64(1024)
	b.PutU64(64)
	b.PutU32(count)
	for _, ch := range chunks {
		b.PutU64(ch.Index)
		b.PutBytes(ch.Body)
	}
	return b.Bytes()
}

// testStagePutCorruptFrames: the partner-replication handler accepts a
// well-formed stage-put frame, and rejects every truncation of it and every
// chunk count the frame cannot hold — 0xFFFFFFFF sized a map before the
// decode error was looked at — with a clean error and nothing staged.
func testStagePutCorruptFrames(t *testing.T, n transport.Network) {
	p := New()
	p.Stage = localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	srv, err := p.Serve(n, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	chunks := []blobseer.Chunk{{Index: 0, Body: []byte("zero")}, {Index: 5, Body: []byte("five!")}, {Index: 6, Body: []byte{}}}
	good := stagePutFrame(uint32(len(chunks)), chunks)

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"count 0xFFFFFFFF", stagePutFrame(0xFFFFFFFF, chunks)},
		{"count one more than the frame holds", stagePutFrame(uint32(len(chunks))+1, chunks)},
		{"count with no chunks at all", stagePutFrame(1<<20, nil)},
	} {
		if _, err := n.Call(ctx, srv.Addr(), tc.frame); err == nil {
			t.Errorf("%s: corrupt stage-put frame accepted", tc.name)
		}
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := n.Call(ctx, srv.Addr(), good[:cut]); err == nil {
			t.Fatalf("truncated stage-put frame (%d of %d bytes) accepted", cut, len(good))
		}
	}
	if own, partner := p.Stage.Backlog(); own.Checkpoints+partner.Checkpoints != 0 {
		t.Fatalf("a rejected frame staged something: own %+v partner %+v", own, partner)
	}

	if _, err := n.Call(ctx, srv.Addr(), good); err != nil {
		t.Fatalf("well-formed stage-put rejected: %v", err)
	}
	pending := p.Stage.Pending("vm-9")
	if len(pending) != 1 || !pending[0].Replica || pending[0].Seq != 4 || pending[0].Base != (blobseer.SnapshotRef{Blob: 1, Version: 2}) {
		t.Fatalf("staged replica = %+v", pending)
	}
	back, err := p.Stage.Chunks(pending[0])
	if err != nil {
		t.Fatal(err)
	}
	if !sameChunks(back, chunks) {
		t.Errorf("staged chunks = %q, want %q", back, chunks)
	}
}

// sameChunks reports whether two chunk lists hold the same indices and
// bodies in the same order.
func sameChunks(a, b []blobseer.Chunk) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

func TestInProcStagePutCorruptFrames(t *testing.T) {
	testStagePutCorruptFrames(t, transport.NewInProc())
}
func TestTCPStagePutCorruptFrames(t *testing.T) {
	tcp := transport.NewTCP()
	defer tcp.Close()
	testStagePutCorruptFrames(t, tcp)
}

// TestStagePutFrameIsSizedOnce: the replica frame of a capture is built in a
// buffer created large enough for the header, every chunk's index and length
// prefix, and the bodies — it never regrows (which re-copies every chunk
// encoded so far) — and in ascending index order, so equal captures make
// equal frames.
func TestStagePutFrameIsSizedOnce(t *testing.T) {
	const chunks, chunk = 64, 1 << 10
	list := make([]blobseer.Chunk, chunks)
	for i := range list {
		list[i] = blobseer.Chunk{Index: uint64(i) * 3, Body: bytes.Repeat([]byte{byte(i)}, chunk)}
	}
	stage := localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	c, err := stage.Put("vm-9", 4, blobseer.SnapshotRef{Blob: 1, Version: 2}, 1<<20, chunk, list, false)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeStagePut(c, list)
	// Grown by append, a buffer this size gains a quarter; sized up front, its
	// only slack is the varint prefixes' worst case.
	if slack := cap(frame) - len(frame); slack > 16+chunks*binary.MaxVarintLen32 {
		t.Errorf("stage-put frame: %d bytes in a buffer of %d — it outgrew the buffer it was created with", len(frame), cap(frame))
	}
	if again := encodeStagePut(c, list); !bytes.Equal(frame, again) {
		t.Error("two encodings of one capture differ")
	}

	p := New()
	p.Stage = localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	if _, err := p.handle(ctx, frame); err != nil {
		t.Fatal(err)
	}
	back, err := p.Stage.Chunks(p.Stage.Pending("vm-9")[0])
	if err != nil {
		t.Fatal(err)
	}
	if !sameChunks(back, list) {
		t.Error("the chunk list did not survive the frame")
	}
}

// TestDecodeStagePutRejectsCorruptFrames: a stage-put frame comes off the
// partner link, so the decoder accepts exactly n chunks strictly ascending
// by index and nothing after them. A repeated index would let a later body
// silently replace an earlier one, and trailing bytes mean the sender and
// the receiver disagree on the frame's layout.
func TestDecodeStagePutRejectsCorruptFrames(t *testing.T) {
	chunks := []blobseer.Chunk{{Index: 0, Body: []byte("zero")}, {Index: 5, Body: []byte("five!")}, {Index: 6, Body: []byte{}}}
	good := stagePutFrame(uint32(len(chunks)), chunks)
	c, back, err := decodeStagePut(good)
	if err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	if c.Owner != "vm-9" || c.Seq != 4 || c.Base != (blobseer.SnapshotRef{Blob: 1, Version: 2}) || c.Size != 1024 || c.ChunkSize != 64 || !sameChunks(back, chunks) {
		t.Fatalf("decoded %+v %q", c, back)
	}

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"one chunk past the count", stagePutFrame(uint32(len(chunks))-1, chunks)},
		{"duplicate index", stagePutFrame(3, []blobseer.Chunk{{Index: 0, Body: []byte("a")}, {Index: 5, Body: []byte("b")}, {Index: 5, Body: []byte("c")}})},
		{"descending index", stagePutFrame(2, []blobseer.Chunk{{Index: 5, Body: []byte("b")}, {Index: 0, Body: []byte("a")}})},
		{"count 0xFFFFFFFF", stagePutFrame(0xFFFFFFFF, chunks)},
		{"truncated body", good[:len(good)-1]},
		{"stage-release op", append([]byte{opStageRelease}, good[1:]...)},
		{"empty", nil},
	} {
		if _, _, err := decodeStagePut(tc.frame); err == nil {
			t.Errorf("%s: corrupt stage-put frame decoded", tc.name)
		}
	}
}

// FuzzStagePut holds the partner link's stage-put frame to its codec: a
// chunk list built from the input round-trips through encodeStagePut, and
// its frame one byte short, one byte long, or with its first two chunks
// swapped is rejected. (FuzzProxyRequest holds every accepted frame,
// stage-put among them, to re-encoding byte for byte.)
func FuzzStagePut(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("\x03abc\x00\x05hello"), uint8(2))
	f.Add(stagePutFrame(2, []blobseer.Chunk{{Index: 0, Body: []byte("zero")}, {Index: 5, Body: []byte("five!")}}), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		// An ascending list: each chunk takes a body of up to 15 bytes of
		// data, the length from the byte before it; indices advance by step+1.
		var chunks []blobseer.Chunk
		idx := uint64(step)
		for rest := data; len(rest) > 0; idx += uint64(step) + 1 {
			n := min(int(rest[0]%16), len(rest)-1)
			chunks = append(chunks, blobseer.Chunk{Index: idx, Body: rest[1 : 1+n]})
			rest = rest[1+n:]
		}
		want := localtier.Capture{Owner: string(data[:min(len(data), 8)]), Seq: uint64(len(data)), Size: idx, ChunkSize: 16}
		frame := encodeStagePut(&want, chunks)
		c, back, err := decodeStagePut(frame)
		if err != nil || !reflect.DeepEqual(c, want) || !sameChunks(back, chunks) {
			t.Fatalf("round trip of %d chunks = %+v %q (%v)", len(chunks), c, back, err)
		}
		if _, _, err := decodeStagePut(frame[:len(frame)-1]); err == nil {
			t.Fatal("frame one byte short decoded")
		}
		if _, _, err := decodeStagePut(append(frame, 0)); err == nil {
			t.Fatal("frame one byte long decoded")
		}
		if len(chunks) >= 2 {
			chunks[0], chunks[1] = chunks[1], chunks[0]
			if _, _, err := decodeStagePut(encodeStagePut(&want, chunks)); err == nil {
				t.Fatal("frame with its chunks out of order decoded")
			}
		}
	})
}

// FuzzProxyRequest holds every frame the proxy port accepts to its one
// request decoder, seeded with a real frame of every proxy op. Any input
// decodes or fails without a panic; a frame the decoder accepts re-encodes
// to the same bytes; and a frame it refuses is refused by the handler before
// anything is served: the hosted instance — whose VM id and token the seeds
// carry, so a lenient decoder would reach it — is not checkpointed or
// prefetched into, and nothing is staged.
func FuzzProxyRequest(f *testing.F) {
	vm, token := "vm-1", "secret"
	for _, q := range []request{
		{op: opCheckpoint, vm: vm, token: token},
		{op: opWait, vm: vm, token: token, arg: 1},
		{op: opPoll, vm: vm, token: token, arg: 1},
		{op: opWaitLocal, vm: vm, token: token, arg: 1},
		{op: opStatus, vm: vm, token: token},
		{op: opPrefetch, vm: vm, token: token, indices: []uint64{0, 3, 300}},
		{op: opPing}, {op: opBacklog}, {op: opDrainNow},
		{op: opDrainFor, vm: vm, arg: 4},
		{op: opStageRelease, vm: vm, arg: 4, ref: blobseer.SnapshotRef{Blob: 1, Version: 2}},
	} {
		f.Add(q.encode())
	}
	f.Add(stagePutFrame(2, []blobseer.Chunk{{Index: 0, Body: []byte("zero")}, {Index: 5, Body: []byte("five!")}}))

	e := setup(f)
	e.proxy.Stage = localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	e.proxy.Repo = e.client
	reg := obs.NewRegistry()
	e.proxy.Obs = reg
	probe := func() [4]uint64 {
		remote, _, _ := e.mod.Stats()
		mine, partner := e.proxy.Stage.Backlog()
		return [4]uint64{
			reg.Counter("proxy_checkpoints_total").Value() + reg.Counter("proxy_checkpoint_failures_total").Value(),
			remote, uint64(e.mod.DirtyChunks()), uint64(mine.Checkpoints + partner.Checkpoints),
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := decodeRequest(data); err == nil {
			if again := q.encode(); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame % x re-encodes to % x", data, again)
			}
			return
		}
		before := probe()
		if _, err := e.proxy.handle(ctx, data); err == nil {
			t.Fatalf("refused frame % x was served", data)
		}
		if after := probe(); after != before {
			t.Fatalf("refused frame % x reached the instance or the tier: %v -> %v", data, before, after)
		}
	})
}
