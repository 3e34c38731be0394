package proxy

import (
	"bytes"
	"encoding/binary"
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
func stagePutFrame(count uint32, chunks map[uint64][]byte) []byte {
	b := wire.NewBuffer(128)
	b.PutU8(opStagePut)
	b.PutString("vm-9")
	b.PutU64(4) // seq
	b.PutU64(1) // base blob
	b.PutU64(2) // base version
	b.PutU64(1024)
	b.PutU64(64)
	b.PutU32(count)
	for idx, data := range chunks {
		b.PutU64(idx)
		b.PutBytes(data)
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
	chunks := map[uint64][]byte{0: []byte("zero"), 5: []byte("five!"), 6: {}}
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
	back, err := p.Stage.Writes(pending[0])
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range chunks {
		if string(back[idx]) != string(want) {
			t.Errorf("chunk %d = %q, want %q", idx, back[idx], want)
		}
	}
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
	writes := make(map[uint64][]byte, chunks)
	for i := uint64(0); i < chunks; i++ {
		writes[i*3] = bytes.Repeat([]byte{byte(i)}, chunk)
	}
	stage := localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	c, err := stage.Put("vm-9", 4, blobseer.SnapshotRef{Blob: 1, Version: 2}, 1<<20, chunk, writes, false)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeStagePut(c, writes)
	// Grown by append, a buffer this size gains a quarter; sized up front, its
	// only slack is the varint prefixes' worst case.
	if slack := cap(frame) - len(frame); slack > 16+chunks*binary.MaxVarintLen32 {
		t.Errorf("stage-put frame: %d bytes in a buffer of %d — it outgrew the buffer it was created with", len(frame), cap(frame))
	}
	if again := encodeStagePut(c, writes); !bytes.Equal(frame, again) {
		t.Error("two encodings of one capture differ: chunks are not in index order")
	}

	p := New()
	p.Stage = localtier.New(chunkstore.NewMem(), obs.NewRegistry())
	if _, err := p.handleStageFrame(ctx, frame); err != nil {
		t.Fatal(err)
	}
	back, err := p.Stage.Writes(p.Stage.Pending("vm-9")[0])
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range writes {
		if !bytes.Equal(back[idx], want) {
			t.Errorf("chunk %d did not survive the frame", idx)
		}
	}
}
