package transport

import (
	"bytes"
	"context"
	"net"
	"runtime/debug"
	"testing"
	"unsafe"

	"blobcr/internal/wire"
)

const recycleFrame = 100 << 10 // a pooled frame class

// givingHandler hands its request back and builds its reply in a pooled
// frame it registers for recycling, recording both arrays.
type givingHandler struct{ req, reply *byte }

func (g *givingHandler) handle(ctx context.Context, req []byte) ([]byte, error) {
	reply := wire.GetFrame(recycleFrame)
	for i := range reply {
		reply[i] = 0xAB
	}
	g.req, g.reply = unsafe.SliceData(req), unsafe.SliceData(reply)
	ReleaseRequest(ctx)
	RecycleReply(ctx, reply)
	return reply, nil
}

// drawn returns the arrays of n frames drawn from the pool's class of
// recycleFrame, each overwritten as a new user would.
func drawn(n int) map[*byte]bool {
	out := make(map[*byte]bool)
	for i := 0; i < n; i++ {
		p := wire.GetFrame(recycleFrame)
		for j := range p {
			p[j] = 0xFF
		}
		out[unsafe.SliceData(p)] = true
	}
	return out
}

// TestInProcRecyclesNothing: over InProc the handler's request is the
// caller's request and its reply the caller's reply, so handing them back
// is a no-op. The caller's request and reply stay intact, and no later
// draw from the pool returns either array — also when the InProc call is
// made by a TCP handler, whose recycler must not reach the inner one.
func TestInProcRecyclesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := NewInProc()
	inner := &givingHandler{}
	if _, err := in.Listen("giver", inner.handle); err != nil {
		t.Fatal(err)
	}
	req := bytes.Repeat([]byte{0x5A}, recycleFrame)
	resp, err := in.Call(context.Background(), "giver", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := drawn(8); got[unsafe.SliceData(resp)] || got[unsafe.SliceData(req)] {
		t.Fatal("a frame handed back over InProc came out of the pool")
	}
	if !bytes.Equal(req, bytes.Repeat([]byte{0x5A}, recycleFrame)) || resp[0] != 0xAB || resp[len(resp)-1] != 0xAB {
		t.Fatal("the caller's request or reply was overwritten")
	}

	// A TCP handler that calls the giver over InProc, keeping both its own
	// request and the inner reply.
	var outerReq, innerReply []byte
	tcp := NewTCP()
	defer tcp.Close()
	srv, err := tcp.Listen("", func(ctx context.Context, req []byte) ([]byte, error) {
		outerReq = req
		r, err := in.Call(ctx, "giver", bytes.Repeat([]byte{0x5A}, recycleFrame))
		innerReply = r
		return []byte("ok"), err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcp.Call(context.Background(), srv.Addr(), bytes.Repeat([]byte{0x3C}, recycleFrame)); err != nil {
		t.Fatal(err)
	}
	tcp.Close()
	srv.Close() // the exchange, and its recycling, is over
	if got := drawn(8); got[unsafe.SliceData(outerReq)] || got[unsafe.SliceData(innerReply)] {
		t.Fatal("an InProc handler's hand-back reached the recycler of the TCP handler calling it")
	}
	if !bytes.Equal(outerReq, bytes.Repeat([]byte{0x3C}, recycleFrame)) || innerReply[0] != 0xAB {
		t.Fatal("a frame the TCP handler kept was overwritten")
	}
}

// TestTCPServerRecyclesWhatHandlersGiveBack: the TCP serve loop reads a
// request into a pooled frame and, once the reply is written, hands back
// the request frame and the registered reply of a handler that gave them
// back — and neither of a handler that did not.
func TestTCPServerRecyclesWhatHandlersGiveBack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is handed at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exchange := func(h Handler) []byte {
		t.Helper()
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serveConn(context.Background(), server, h)
		}()
		if err := wire.WriteFrame(client, bytes.Repeat([]byte{0x5A}, recycleFrame)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(client)
		if err != nil || reply[0] != statusOK {
			t.Fatalf("reply: %v", err)
		}
		client.Close()
		<-done
		return reply
	}

	g := &givingHandler{}
	if reply := exchange(g.handle); len(reply) != 1+recycleFrame || reply[1] != 0xAB {
		t.Fatalf("reply of %d bytes, want the handler's %d", len(reply), recycleFrame)
	}
	if got := drawn(2); !got[g.req] || !got[g.reply] {
		t.Error("the request frame and the registered reply did not go back to the pool")
	}

	var kept []byte
	exchange(func(_ context.Context, req []byte) ([]byte, error) {
		kept = req
		return []byte("kept"), nil
	})
	if drawn(4)[unsafe.SliceData(kept)] {
		t.Error("the frame of a request its handler did not hand back came out of the pool")
	}
}
