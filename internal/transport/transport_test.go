package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// echoUpper is a trivial handler used across tests.
func echoUpper(_ context.Context, req []byte) ([]byte, error) {
	out := make([]byte, len(req))
	for i, b := range req {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		out[i] = b
	}
	return out, nil
}

func failing(_ context.Context, req []byte) ([]byte, error) {
	return nil, errors.New("boom")
}

func testNetworkBasics(t *testing.T, n Network) {
	t.Helper()
	srv, err := n.Listen("", echoUpper)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	resp, err := n.Call(context.Background(), srv.Addr(), []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "HELLO" {
		t.Errorf("resp = %q, want HELLO", resp)
	}

	// Empty request and response round-trip.
	resp, err = n.Call(context.Background(), srv.Addr(), nil)
	if err != nil {
		t.Fatalf("Call empty: %v", err)
	}
	if len(resp) != 0 {
		t.Errorf("empty call resp = %q", resp)
	}
}

func testNetworkRemoteError(t *testing.T, n Network) {
	t.Helper()
	srv, err := n.Listen("", failing)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = n.Call(context.Background(), srv.Addr(), []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Msg != "boom" {
		t.Errorf("remote msg = %q, want boom", re.Msg)
	}
}

func testNetworkUnreachable(t *testing.T, n Network, badAddr string) {
	t.Helper()
	if _, err := n.Call(context.Background(), badAddr, []byte("x")); err == nil {
		t.Error("Call to unbound address succeeded")
	}
}

func testNetworkConcurrency(t *testing.T, n Network) {
	t.Helper()
	srv, err := n.Listen("", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			want := []byte(fmt.Sprintf("MSG-%d", i))
			resp, err := n.Call(context.Background(), srv.Addr(), msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, want) {
				errs <- fmt.Errorf("resp %q want %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInProcBasics(t *testing.T)      { testNetworkBasics(t, NewInProc()) }
func TestInProcRemoteError(t *testing.T) { testNetworkRemoteError(t, NewInProc()) }
func TestInProcUnreachable(t *testing.T) {
	testNetworkUnreachable(t, NewInProc(), "nowhere")
}
func TestInProcConcurrency(t *testing.T) { testNetworkConcurrency(t, NewInProc()) }

func TestTCPBasics(t *testing.T)      { testNetworkBasics(t, NewTCP()) }
func TestTCPRemoteError(t *testing.T) { testNetworkRemoteError(t, NewTCP()) }
func TestTCPUnreachable(t *testing.T) {
	testNetworkUnreachable(t, NewTCP(), "127.0.0.1:1") // port 1: nothing listens
}
func TestTCPConcurrency(t *testing.T) { testNetworkConcurrency(t, NewTCP()) }

func TestInProcDuplicateBind(t *testing.T) {
	n := NewInProc()
	if _, err := n.Listen("a", echoUpper); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a", echoUpper); err == nil {
		t.Error("duplicate bind succeeded")
	}
}

func TestInProcCloseUnbinds(t *testing.T) {
	n := NewInProc()
	srv, err := n.Listen("svc", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(context.Background(), "svc", nil); err == nil {
		t.Error("Call after Close succeeded")
	}
	// Address can be rebound after close.
	if _, err := n.Listen("svc", echoUpper); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestInProcPartition(t *testing.T) {
	n := NewInProc()
	srv, err := n.Listen("node1", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n.Partition("node1")
	if _, err := n.Call(context.Background(), "node1", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned call err = %v, want ErrUnreachable", err)
	}
	n.Heal("node1")
	if _, err := n.Call(context.Background(), "node1", []byte("x")); err != nil {
		t.Errorf("healed call err = %v", err)
	}
}

func TestTCPConnReuse(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	srv, err := n.Listen("", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Sequential calls reuse the pooled connection.
	for i := 0; i < 10; i++ {
		if _, err := n.Call(context.Background(), srv.Addr(), []byte("ping")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	n.mu.Lock()
	idle := len(n.conns[srv.Addr()])
	n.mu.Unlock()
	if idle != 1 {
		t.Errorf("idle pool size = %d, want 1 (connection reuse broken)", idle)
	}
}

func TestTCPLargePayload(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	srv, err := n.Listen("", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	payload := make([]byte, 1<<20) // 1 MiB
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	resp, err := n.Call(context.Background(), srv.Addr(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Error("large payload corrupted in transit")
	}
}

func TestTCPServerCloseStopsService(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	srv, err := n.Listen("", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if _, err := n.Call(context.Background(), addr, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	n.Close() // drop pooled connections so the next call must redial
	if _, err := n.Call(context.Background(), addr, []byte("a")); err == nil {
		t.Error("Call succeeded after server close")
	}
}

// notFoundHandler returns an error wrapping ErrNotFound.
func notFoundHandler(_ context.Context, req []byte) ([]byte, error) {
	return nil, fmt.Errorf("missing thing: %w", ErrNotFound)
}

func testNetworkNotFound(t *testing.T, n Network) {
	t.Helper()
	srv, err := n.Listen("", notFoundHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = n.Call(context.Background(), srv.Addr(), []byte("x"))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want errors.Is(err, ErrNotFound)", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || !re.NotFound {
		t.Errorf("err = %#v, want RemoteError with NotFound", err)
	}
}

func TestInProcNotFoundMark(t *testing.T) { testNetworkNotFound(t, NewInProc()) }
func TestTCPNotFoundMark(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	testNetworkNotFound(t, n)
}

func TestCallCancelledContext(t *testing.T) {
	n := NewInProc()
	srv, err := n.Listen("", echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Call(ctx, srv.Addr(), []byte("x")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestTCPCallDeadline(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	block := make(chan struct{})
	srv, err := n.Listen("", func(ctx context.Context, req []byte) ([]byte, error) {
		<-block
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = n.Call(ctx, srv.Addr(), []byte("x"))
	if err == nil {
		t.Fatal("call to blocking handler succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline not enforced: call took %v", elapsed)
	}
}

func TestTCPCallCancelMidFlight(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	block := make(chan struct{})
	srv, err := n.Listen("", func(ctx context.Context, req []byte) ([]byte, error) {
		<-block
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := n.Call(ctx, srv.Addr(), []byte("x")); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestTCPCancelledCallDoesNotPoolItsConnection: a connection whose exchange
// was abandoned still has that exchange's response coming; it must never
// carry another call. Every call after a cancelled one gets its own answer.
func TestTCPCancelledCallDoesNotPoolItsConnection(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	arrived, release := make(chan struct{}), make(chan struct{})
	srv, err := n.Listen("", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "slow" {
			arrived <- struct{}{}
			<-release
		}
		return append([]byte("re:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := n.Call(ctx, srv.Addr(), []byte("slow"))
			done <- err
		}()
		<-arrived
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: %v", err)
		}
		release <- struct{}{} // the abandoned handler answers into its dead connection
		want := fmt.Sprintf("fast-%d", i)
		resp, err := n.Call(context.Background(), srv.Addr(), []byte(want))
		if err != nil || string(resp) != "re:"+want {
			t.Fatalf("call after a cancelled one: %q, %v; want %q", resp, err, "re:"+want)
		}
	}
}

func TestLatencyWrapperCountsAndForwardsFaults(t *testing.T) {
	inner := NewInProc()
	net := WithLatency(inner, 0)
	srv, err := net.Listen("", func(_ context.Context, req []byte) ([]byte, error) {
		return append([]byte("pong:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := net.Call(context.Background(), srv.Addr(), []byte("x"))
	if err != nil || string(resp) != "pong:x" {
		t.Fatalf("call through latency wrapper: %q, %v", resp, err)
	}
	if net.Calls() != 1 {
		t.Errorf("Calls = %d, want 1", net.Calls())
	}
	// Fault injection reaches the inner network through the wrapper.
	net.Partition(srv.Addr())
	if _, err := net.Call(context.Background(), srv.Addr(), []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to partitioned addr = %v, want ErrUnreachable", err)
	}
	net.Heal(srv.Addr())
	if _, err := net.Call(context.Background(), srv.Addr(), []byte("x")); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	if net.Calls() != 3 {
		t.Errorf("Calls = %d, want 3", net.Calls())
	}
}

// TestBandwidthModelsPerAddressPipes: the Bandwidth wrapper passes traffic
// through correctly, charges per-byte wall time on one pipe, and lets
// independent addresses proceed in parallel — striping across two addresses
// is roughly twice as fast as pushing the same bytes through one.
func TestBandwidthModelsPerAddressPipes(t *testing.T) {
	net := WithBandwidth(NewInProc(), 1<<20) // 1 MiB/s pipes
	echo := func(_ context.Context, req []byte) ([]byte, error) { return req, nil }
	a, err := net.Listen("", echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Listen("", echo)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64*1024) // 64 KiB each way = 128 KiB moved

	resp, err := net.Call(context.Background(), a.Addr(), payload)
	if err != nil || len(resp) != len(payload) {
		t.Fatalf("call through bandwidth pipe: %d bytes, err %v", len(resp), err)
	}

	elapsed := func(addrs []string) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, addr := range addrs {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				net.Call(context.Background(), addr, payload)
			}(addr)
		}
		wg.Wait()
		return time.Since(t0)
	}
	// Two transfers down one pipe serialize; one per pipe runs in parallel.
	serial := elapsed([]string{a.Addr(), a.Addr()})
	striped := elapsed([]string{a.Addr(), b.Addr()})
	if striped >= serial {
		t.Errorf("striping across pipes (%v) not faster than one pipe (%v)", striped, serial)
	}

	// Fail-stop injection passes through to the inner network.
	net.Partition(a.Addr())
	if _, err := net.Call(context.Background(), a.Addr(), payload); err == nil {
		t.Error("call to partitioned address succeeded")
	}
	net.Heal(a.Addr())
	if _, err := net.Call(context.Background(), a.Addr(), payload); err != nil {
		t.Errorf("call after heal: %v", err)
	}
}
