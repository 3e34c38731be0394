package transport

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blobcr/internal/obs"
)

// TestMeterRecordsCallsAndTagsErrors exercises the full metric surface of
// one metered round trip plus the RemoteError verb tagging. The service
// answers introspection op bytes, so each call is named from the registry.
func TestMeterRecordsCallsAndTagsErrors(t *testing.T) {
	inner := NewInProc()
	reg := obs.NewRegistry()
	net := WithMeter(inner, reg)
	ping, fail, missing := []byte{OpHealthGet, 0, 0, 0}, []byte{OpFlightGet}, []byte{OpTraceGet}

	srv, err := net.Listen("svc", func(_ context.Context, req []byte) ([]byte, error) {
		switch req[0] {
		case OpHealthGet:
			return []byte("pong"), nil
		case OpTraceGet:
			return nil, NotFoundError("no such thing")
		default:
			return nil, errors.New("boom")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	resp, err := net.Call(ctx, "svc", ping)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("call: %q, %v", resp, err)
	}
	if _, err := net.Call(ctx, "svc", fail); err == nil {
		t.Fatal("want error")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("want RemoteError, got %T", err)
		}
		if re.Verb != "flight-get" {
			t.Fatalf("RemoteError.Verb = %q, want flight-get", re.Verb)
		}
		if !strings.Contains(re.Error(), "flight-get: boom") {
			t.Fatalf("error message lacks verb: %q", re.Error())
		}
	}
	if _, err := net.Call(ctx, "svc", missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want not-found, got %v", err)
	}
	if _, err := net.Call(ctx, "nowhere", ping); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want unreachable, got %v", err)
	}

	check := func(name, verb string, want uint64) {
		t.Helper()
		if got := reg.Counter(name, obs.L("verb", verb)).Value(); got != want {
			t.Errorf("%s{verb=%s} = %d, want %d", name, verb, got, want)
		}
	}
	check("transport_calls_total", "health-get", 2) // one ok + one unreachable
	check("transport_calls_total", "flight-get", 1)
	check("transport_errors_total", "flight-get", 1)
	check("transport_not_found_total", "trace-get", 1)
	check("transport_unreachable_total", "health-get", 1)
	check("transport_req_bytes_total", "health-get", 8)
	check("transport_resp_bytes_total", "health-get", 4)

	if n := reg.Histogram("transport_call_ns", obs.L("verb", "health-get")).Count(); n != 2 {
		t.Errorf("call latency histogram count %d, want 2", n)
	}
	if n := reg.Histogram("transport_addr_call_ns", obs.L("addr", "svc")).Count(); n != 3 {
		t.Errorf("addr latency histogram count %d, want 3", n)
	}
}

// TestMeterForwardsFaults checks Partition/Heal pass through to the inner
// fault network, including when composed outside Latency.
func TestMeterForwardsFaults(t *testing.T) {
	inner := NewInProc()
	net := WithMeter(WithLatency(inner, 0), obs.NewRegistry())

	srv, err := net.Listen("svc", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	unregistered := []byte{0xEF} // an op byte no protocol owns
	net.Partition("svc")
	if _, err := net.Call(context.Background(), "svc", unregistered); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call: %v", err)
	}
	net.Heal("svc")
	if _, err := net.Call(context.Background(), "svc", unregistered); err != nil {
		t.Fatalf("healed call: %v", err)
	}
	if got := net.Registry().Counter("transport_calls_total", obs.L("verb", "other")).Value(); got != 2 {
		t.Fatalf("an unregistered op should file under other: got %d", got)
	}
}

// TestRegisterOpsRefusesDuplicates: a byte one protocol already owns, or
// one from the transport's marker range, cannot be registered again — two
// protocols would read each other's requests.
func TestRegisterOpsRefusesDuplicates(t *testing.T) {
	for _, op := range []byte{OpTraceGet, 0xF7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering op 0x%02X did not panic", op)
				}
			}()
			RegisterOps(map[byte]string{op: "again"})
		}()
	}
	if got := OpName(OpTraceGet); got != "trace-get" {
		t.Errorf("OpName(0xE0) = %q after the refused registration, want trace-get", got)
	}
}

// sharedErrNet always fails calls with one shared error value, modelling an
// inner Network that returns a cached error.
type sharedErrNet struct {
	err error
}

func (s *sharedErrNet) Listen(addr string, h Handler) (Server, error) {
	return nil, errors.New("sharedErrNet cannot listen")
}

func (s *sharedErrNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	return nil, s.err
}

// TestMeterDoesNotMutateInnerError checks verb tagging wraps a copy: the
// inner network's error value must stay untouched, or concurrent calls to
// different verbs would race on (and mislabel) the shared Verb field.
func TestMeterDoesNotMutateInnerError(t *testing.T) {
	shared := &RemoteError{Msg: "boom"}
	net := WithMeter(&sharedErrNet{err: shared}, obs.NewRegistry())

	_, err := net.Call(context.Background(), "svc", []byte{OpMetricsGet, 0, 0, 0, 0})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Verb != "metrics-get" {
		t.Fatalf("RemoteError.Verb = %q, want metrics-get", re.Verb)
	}
	if re == shared {
		t.Fatal("meter returned the inner error value instead of a copy")
	}
	if shared.Verb != "" {
		t.Fatalf("inner error mutated: Verb = %q", shared.Verb)
	}
}
