package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/wire"
)

// traceTestHeader builds a wire trace header by hand, for corruption tests.
func traceTestHeader(trace, parent uint64) []byte {
	h := make([]byte, traceHeaderLen)
	h[0] = traceMarker
	h[1] = traceVersion
	binary.LittleEndian.PutUint64(h[2:], trace)
	binary.LittleEndian.PutUint64(h[10:], parent)
	return h
}

// testTraceHeaderPropagation: a call under an active trace re-establishes
// the caller's span context on the far side, and a call without one arrives
// clean — on both terminal networks.
func testTraceHeaderPropagation(t *testing.T, n Network) {
	t.Helper()
	var got obs.SpanContext
	var present bool
	srv, err := n.Listen("", func(ctx context.Context, req []byte) ([]byte, error) {
		got, present = obs.SpanContextFrom(ctx)
		return append([]byte("echo:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	resp, err := n.Call(ctx, srv.Addr(), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if present {
		t.Error("span context invented on an untraced call")
	}
	if string(resp) != "echo:payload" {
		t.Errorf("untraced payload mangled: %q", resp)
	}

	tctx, trace := obs.BeginTrace(ctx)
	tctx, sp := obs.StartSpan(tctx, "rpc/test")
	resp, err = n.Call(tctx, srv.Addr(), []byte("payload"))
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:payload" {
		t.Errorf("traced payload mangled: %q", resp)
	}
	if !present {
		t.Fatal("span context did not cross the wire")
	}
	if got.Trace != trace {
		t.Errorf("far side saw trace %x, want %x", got.Trace, trace)
	}
	if got.Span != sp.ID() {
		t.Errorf("far side parents under %x, want the rpc span %x", got.Span, sp.ID())
	}
}

func TestInProcTraceHeaderPropagation(t *testing.T) { testTraceHeaderPropagation(t, NewInProc()) }
func TestTCPTraceHeaderPropagation(t *testing.T)    { testTraceHeaderPropagation(t, NewTCP()) }

// testTraceHeaderRejection: frames that open with the trace marker but carry
// a truncated or corrupt header are rejected before the handler runs, on
// both terminal networks.
func testTraceHeaderRejection(t *testing.T, n Network) {
	t.Helper()
	handled := false
	srv, err := n.Listen("", func(_ context.Context, req []byte) ([]byte, error) {
		handled = true
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	good := traceTestHeader(0xabc, 0xdef)
	for _, tc := range []struct {
		name string
		req  []byte
		want string
	}{
		{"empty after marker", []byte{traceMarker}, "truncated trace header"},
		{"cut mid-ids", good[:9], "truncated trace header"},
		{"one byte short", good[:traceHeaderLen-1], "truncated trace header"},
		{"version skew", append([]byte{traceMarker, 99}, good[2:]...), "unsupported trace header version"},
		{"zero trace id", traceTestHeader(0, 0xdef), "zero trace id"},
	} {
		handled = false
		_, err := n.Call(ctx, srv.Addr(), tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if handled {
			t.Errorf("%s: corrupt header reached the handler", tc.name)
		}
	}

	// A well-formed header on a raw frame still parses: the payload arrives
	// stripped.
	resp, err := n.Call(ctx, srv.Addr(), append(traceTestHeader(0xabc, 0xdef), []byte("body")...))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "body" {
		t.Errorf("valid raw header not stripped: %q", resp)
	}
}

func TestInProcTraceHeaderRejection(t *testing.T) { testTraceHeaderRejection(t, NewInProc()) }
func TestTCPTraceHeaderRejection(t *testing.T)    { testTraceHeaderRejection(t, NewTCP()) }

// TestScrapeExpositionChunked is the regression for metrics chunking at the
// frame level: an exposition past one chunk is served as continuations, each
// reply within the chunk bound, the chunks reassemble byte for byte into the
// registry's exposition (a cut may fall mid-line), and Metrics parses
// exactly the points of that exposition.
func TestScrapeExpositionChunked(t *testing.T) {
	reg := obs.NewRegistry()
	pad := strings.Repeat("x", 100)
	for i := 0; i < 480; i++ {
		h := reg.Histogram("wide_ns", obs.L("instance", fmt.Sprintf("%s-%04d", pad, i)))
		for b := 0; b < 64; b++ {
			h.Observe(1 << b)
		}
	}
	text := reg.PromText()
	if len(text) <= 4<<20 {
		t.Fatalf("test exposition only %d bytes, need > 4 MiB to exercise chunking", len(text))
	}
	want, err := obs.ParseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	n := NewInProc()
	srv, err := n.Listen("", Introspect(func() *obs.Registry { return reg }, func(context.Context, []byte) ([]byte, error) {
		return nil, errors.New("not an introspection op")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got strings.Builder
	chunks := 0
	for off := int64(0); off >= 0; chunks++ {
		resp, err := fetch(context.Background(), n, srv.Addr(), OpMetricsGet, uint64(off))
		if err != nil {
			t.Fatal(err)
		}
		next, chunk, err := decodeMetricsChunk(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) > obs.ExpositionChunkBytes {
			t.Fatalf("chunk at %d: %d bytes exceeds the chunk bound %d", off, len(chunk), obs.ExpositionChunkBytes)
		}
		if next >= 0 && next != off+int64(len(chunk)) {
			t.Fatalf("chunk at %d: %d bytes but next offset %d", off, len(chunk), next)
		}
		got.WriteString(chunk)
		off = next
	}
	if chunks < 2 {
		t.Errorf("exposition of %d bytes served in %d chunk, want continuations", len(text), chunks)
	}
	if got.String() != text {
		t.Fatalf("reassembled chunks differ from the registry exposition: %d vs %d bytes", got.Len(), len(text))
	}

	points, err := Metrics(context.Background(), n, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, want) {
		t.Fatalf("chunked scrape parsed %d points that differ from the exposition's %d", len(points), len(want))
	}
}

// TestMetricsContinuationMustAdvance: an endpoint whose continuation offset
// does not move past the one requested fails the scrape instead of keeping
// the client looping.
func TestMetricsContinuationMustAdvance(t *testing.T) {
	n := NewInProc()
	for _, stuck := range []int64{0, 7} {
		calls := 0
		srv, err := n.Listen("", func(_ context.Context, req []byte) ([]byte, error) {
			calls++
			w := wire.NewBuffer(16)
			w.PutI64(stuck)
			w.PutString("x_total 1\n")
			return w.Bytes(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = Metrics(ctx, n, srv.Addr())
		cancel()
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "continuation") {
			t.Errorf("offset stuck at %d: err = %v after %d calls, want a continuation error", stuck, err, calls)
		}
		if calls > 2 {
			t.Errorf("offset stuck at %d: %d calls before giving up, want at most 2", stuck, calls)
		}
	}
}

// testHistoryWindowCorruptFrames: History's strict parsing rejects garbage,
// half-cut and wrong-shape history-get replies outright — on both terminal
// networks — while a well-formed frame still round-trips.
func testHistoryWindowCorruptFrames(t *testing.T, n Network) {
	t.Helper()
	var reply []byte
	var replyErr error
	srv, err := n.Listen("", func(_ context.Context, req []byte) ([]byte, error) {
		if len(req) != 5 || req[0] != OpHistoryGet {
			return nil, errors.New("unexpected request")
		}
		return reply, replyErr
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	for _, tc := range []struct {
		name  string
		frame string
		err   error
	}{
		{"garbage", "garbage", nil},
		{"endpoint error", "", errors.New("no history ring")},
		{"junk body", "not a window header\n", nil},
		{"truncated series line", "window 60 span 5 samples 2\ncounter foo delta=1", nil},
		{"unknown series kind", "window 60 span 5 samples 2\nwidget foo delta=1 rate=2\n", nil},
		{"empty body", "", nil},
	} {
		reply, replyErr = []byte(tc.frame), tc.err
		if _, err := History(ctx, n, srv.Addr(), time.Minute); err == nil {
			t.Errorf("%s: corrupt history-get reply accepted", tc.name)
		}
	}

	reply, replyErr = []byte("window 60 span 5 samples 2\ncounter foo delta=4 rate=0.8\n"), nil
	rep, err := History(ctx, n, srv.Addr(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Window != time.Minute || rep.Samples != 2 || len(rep.Stats) != 1 || rep.Stats[0].Delta != 4 {
		t.Errorf("valid frame mis-parsed: %+v", rep)
	}

	// Sub-second windows truncate to zero seconds on the wire: rejected
	// client-side before any call.
	if _, err := History(ctx, n, srv.Addr(), 500*time.Millisecond); err == nil {
		t.Error("sub-second window accepted")
	}
}

func TestInProcHistoryWindowCorruptFrames(t *testing.T) {
	testHistoryWindowCorruptFrames(t, NewInProc())
}
func TestTCPHistoryWindowCorruptFrames(t *testing.T) {
	testHistoryWindowCorruptFrames(t, NewTCP())
}

// FuzzIntrospectReply feeds arbitrary bytes to every introspection decoder,
// client and server side. None may panic; a spans or window reply that
// decodes re-marshals to a frame that decodes to the same bytes again; a
// health reply that decodes re-encodes to one that decodes alike; and an
// introspection request, accepted or refused, never reaches the handler the
// server wraps.
func FuzzIntrospectReply(f *testing.F) {
	reg := obs.NewRegistry()
	tctx, trace := obs.BeginTrace(obs.WithRegistry(context.Background(), reg))
	_, sp := obs.StartSpan(tctx, "op/seed")
	sp.End()
	reg.Counter("c_total", obs.L("node", "n-0")).Add(3)
	reg.Histogram("h_ns").Observe(1500)
	h := reg.StartHistory(0, 4)
	h.Sample()
	reg.Gauge("g").Set(-2)
	h.Sample()
	reg.SetHealth(func() (bool, []string) { return false, []string{"a(n-1)", "b"} })
	reached := false
	srv := Introspect(func() *obs.Registry { return reg }, func(context.Context, []byte) ([]byte, error) {
		reached = true
		return nil, nil
	})
	for _, req := range [][]byte{
		binary.LittleEndian.AppendUint64([]byte{OpTraceGet}, trace),
		{OpFlightGet},
		{OpHistoryGet, 60, 0, 0, 0},
		{OpMetricsGet, 0, 0, 0, 0},
		{OpHealthGet},
	} {
		resp, err := srv(context.Background(), req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req)
		f.Add(resp)
	}
	// A window past time.Duration's range once decoded into a negative one,
	// which its own re-marshalled frame then failed.
	f.Add([]byte("window 1e300 span 0 samples 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if spans, err := obs.ParseSpans(data); err == nil {
			once := obs.MarshalSpans(spans)
			again, err := obs.ParseSpans(once)
			if err != nil {
				t.Fatalf("re-marshalled spans rejected: %v\n%q", err, once)
			}
			if twice := obs.MarshalSpans(again); !bytes.Equal(once, twice) {
				t.Fatalf("spans re-marshal differently:\n%q\n%q", once, twice)
			}
		}
		if rep, err := obs.ParseWindow(data); err == nil {
			once := obs.MarshalWindow(rep)
			again, err := obs.ParseWindow(once)
			if err != nil {
				t.Fatalf("re-marshalled window rejected: %v\n%q", err, once)
			}
			if twice := obs.MarshalWindow(again); !bytes.Equal(once, twice) {
				t.Fatalf("window re-marshals differently:\n%q\n%q", once, twice)
			}
		}
		if _, chunk, err := decodeMetricsChunk(data); err == nil {
			obs.ParseProm(chunk) //nolint:errcheck // only must not panic
		}
		if ok, firing, err := decodeHealth(data); err == nil {
			w := wire.NewBuffer(len(data))
			w.PutBool(ok)
			w.PutUvarint(uint64(len(firing)))
			for _, name := range firing {
				w.PutString(name)
			}
			ok2, firing2, err := decodeHealth(w.Bytes())
			if err != nil || ok2 != ok || strings.Join(firing2, "\x00") != strings.Join(firing, "\x00") || len(firing2) != len(firing) {
				t.Fatalf("health reply re-encodes differently: %v %q -> %v %q (%v)", ok, firing, ok2, firing2, err)
			}
		}
		reached = false
		srv(context.Background(), data) //nolint:errcheck // only routing is checked
		if len(data) > 0 && data[0] >= OpTraceGet && data[0] <= OpHealthGet && reached {
			t.Fatalf("introspection request % x reached the wrapped handler", data)
		}
	})
}
