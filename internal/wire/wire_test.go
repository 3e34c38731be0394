package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewBuffer(64)
	w.PutU8(0xAB)
	w.PutU32(0xDEADBEEF)
	w.PutU64(1<<63 | 12345)
	w.PutI64(-42)
	w.PutUvarint(300)
	w.PutBool(true)
	w.PutBool(false)
	w.PutF64(math.Pi)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x, want 0xAB", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x, want 0xDEADBEEF", got)
	}
	if got := r.U64(); got != 1<<63|12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d, want -42", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool #1 = false, want true")
	}
	if got := r.Bool(); got {
		t.Error("Bool #2 = true, want false")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v, want Pi", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestRoundTripBytesAndString(t *testing.T) {
	w := NewBuffer(0)
	w.PutBytes([]byte("hello"))
	w.PutString("world")
	w.PutBytes(nil)
	w.PutString("")

	r := NewReader(w.Bytes())
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	w := NewBuffer(0)
	w.PutBytes([]byte{1, 2, 3})
	r := NewReader(w.Bytes())
	got := r.BytesCopy()
	w.Bytes()[1] = 99 // mutate the backing array
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("BytesCopy aliased the source: %v", got)
	}
}

func TestTruncatedReads(t *testing.T) {
	w := NewBuffer(0)
	w.PutU64(7)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		if r.Err() != ErrTruncated {
			t.Errorf("cut=%d: Err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

func TestErrorLatchSticks(t *testing.T) {
	r := NewReader([]byte{1})
	r.U64() // fails
	if r.Err() != ErrTruncated {
		t.Fatalf("Err = %v", r.Err())
	}
	// Subsequent reads must return zero values and keep the first error.
	if got := r.U8(); got != 0 {
		t.Errorf("U8 after error = %d, want 0", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String after error = %q, want empty", got)
	}
	if r.Err() != ErrTruncated {
		t.Errorf("Err changed to %v", r.Err())
	}
}

func TestOversizedFieldRejected(t *testing.T) {
	w := NewBuffer(0)
	w.PutUvarint(MaxFieldSize + 1)
	r := NewReader(w.Bytes())
	if got := r.Bytes(); got != nil {
		t.Errorf("Bytes = %v, want nil", got)
	}
	if r.Err() != ErrTooLarge {
		t.Errorf("Err = %v, want ErrTooLarge", r.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("a"), {}, []byte("longer payload \x00 with zeros")}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame #%d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame at end = %v, want io.EOF", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("ReadFrame on truncated payload succeeded, want error")
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := NewBuffer(0)
		w.PutUvarint(v)
		r := NewReader(w.Bytes())
		return r.Uvarint() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUvarintRefusesPaddedEncodings: a varint carrying a redundant
// zero-valued high byte decodes alike to its shortest form, so a decoder
// that accepted it would let two distinct frames mean the same request.
func TestUvarintRefusesPaddedEncodings(t *testing.T) {
	for _, enc := range [][]byte{{0x80, 0x00}, {0x81, 0x80, 0x00}, {0xAC, 0x82, 0x00}} {
		r := NewReader(enc)
		if v := r.Uvarint(); !errors.Is(r.Err(), ErrNonCanonical) {
			t.Errorf("% x decoded to %d (err %v), want ErrNonCanonical", enc, v, r.Err())
		}
	}
	r := NewReader([]byte{0x00, 0xAC, 0x02})
	if a, b := r.Uvarint(), r.Uvarint(); a != 0 || b != 300 || r.Err() != nil {
		t.Errorf("shortest encodings decoded to %d, %d (%v)", a, b, r.Err())
	}
}

// TestBoolIsCanonical: only 0 and 1 decode as booleans; any other byte
// would decode as true and re-encode as 1.
func TestBoolIsCanonical(t *testing.T) {
	r := NewReader([]byte{0, 1})
	if a, b := r.Bool(), r.Bool(); a || !b || r.Err() != nil {
		t.Fatalf("0, 1 decoded to %v, %v (%v)", a, b, r.Err())
	}
	for _, v := range []byte{2, 0x80, 0xFF} {
		r := NewReader([]byte{v})
		if got := r.Bool(); got || r.Err() == nil {
			t.Errorf("byte %d decoded to %v (err %v)", v, got, r.Err())
		}
	}
}

// TestEndRefusesTrailingBytes: End is the reader's error, else an
// ErrTrailing naming how many bytes were left unread.
func TestEndRefusesTrailingBytes(t *testing.T) {
	r := NewReader([]byte{7, 1, 2, 3})
	r.U8()
	if err := r.End(); !errors.Is(err, ErrTrailing) || !strings.Contains(err.Error(), "3 after") {
		t.Errorf("End with 3 bytes left = %v", err)
	}
	r.U8()
	r.U8()
	r.U8()
	if err := r.End(); err != nil {
		t.Errorf("End of a consumed message = %v", err)
	}
	r.U8()
	if err := r.End(); err != ErrTruncated {
		t.Errorf("End after a truncated read = %v, want ErrTruncated", err)
	}
}

// TestFixedBytesRefusesOtherLengths: a fixed-size field decodes only at its
// size — never padded or cut to fit.
func TestFixedBytesRefusesOtherLengths(t *testing.T) {
	for n := 30; n <= 34; n++ {
		w := NewBuffer(0)
		w.PutBytes(bytes.Repeat([]byte{0xF1}, n))
		r := NewReader(w.Bytes())
		got := r.FixedBytes(32)
		if ok := r.End() == nil; ok != (n == 32) || (ok && len(got) != 32) {
			t.Errorf("%d-byte field: got %d bytes, End %v", n, len(got), r.End())
		}
	}
}

// TestCountAtMost: a count over the limit fails like one over the bytes
// left; one within both decodes.
func TestCountAtMost(t *testing.T) {
	frame := []byte{3, 0, 0, 0}
	if n := NewReader(frame).CountAtMost(3); n != 3 {
		t.Errorf("count 3 at most 3 = %d", n)
	}
	if r := NewReader(frame); r.CountAtMost(2) != 0 || r.Err() == nil {
		t.Error("count 3 at most 2 decoded")
	}
	if r := NewReader(frame[:3]); r.CountAtMost(10) != 0 || r.Err() == nil {
		t.Error("count 3 with 2 bytes left decoded")
	}
}

// TestIndicesCodec: a chunk-index list round-trips, and a count over the
// limit or over what the frame can hold is refused before the list is
// allocated.
func TestIndicesCodec(t *testing.T) {
	want := []uint64{300, 5, 1 << 40, 0}
	w := NewBuffer(0)
	w.PutIndices(want)
	frame := w.Bytes()
	if got := NewReader(frame).Indices(4); !slices.Equal(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	if r := NewReader(frame); r.Indices(3) != nil || r.Err() == nil {
		t.Error("a list over the limit decoded")
	}
	for cut := 0; cut < len(frame); cut++ {
		if r := NewReader(frame[:cut]); r.Indices(math.MaxUint64) != nil || r.Err() == nil {
			t.Errorf("list cut to %d of %d bytes decoded", cut, len(frame))
		}
	}
	// 1<<24 indices would take 128 MiB; the refusal allocates next to none.
	huge := NewBuffer(16)
	huge.PutUvarint(1 << 24)
	huge.PutUvarint(7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(huge.Bytes())
	r.Indices(math.MaxUint64)
	runtime.ReadMemStats(&after)
	if r.Err() == nil || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Errorf("implausible count: err %v after allocating %d bytes", r.Err(), after.TotalAlloc-before.TotalAlloc)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(a, b []byte, s string) bool {
		w := NewBuffer(0)
		w.PutBytes(a)
		w.PutString(s)
		w.PutBytes(b)
		r := NewReader(w.Bytes())
		ga := r.BytesCopy()
		gs := r.String()
		gb := r.BytesCopy()
		return bytes.Equal(ga, a) && gs == s && bytes.Equal(gb, b) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMixedSequence(t *testing.T) {
	f := func(u8 uint8, u32 uint32, u64 uint64, i64 int64, bl bool, fv float64, bs []byte) bool {
		if math.IsNaN(fv) {
			fv = 0 // NaN != NaN; encoding is still exact but comparison is not
		}
		w := NewBuffer(0)
		w.PutU8(u8)
		w.PutU32(u32)
		w.PutU64(u64)
		w.PutI64(i64)
		w.PutBool(bl)
		w.PutF64(fv)
		w.PutBytes(bs)
		r := NewReader(w.Bytes())
		ok := r.U8() == u8 && r.U32() == u32 && r.U64() == u64 &&
			r.I64() == i64 && r.Bool() == bl && r.F64() == fv &&
			bytes.Equal(r.BytesCopy(), bs)
		return ok && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferReset(t *testing.T) {
	w := NewBuffer(8)
	w.PutU64(1)
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after Reset = %d", w.Len())
	}
	w.PutU8(5)
	r := NewReader(w.Bytes())
	if got := r.U8(); got != 5 {
		t.Errorf("after reset U8 = %d", got)
	}
}

// TestFramePartsEqualJoinedFrame: head and body written as parts read back
// as the one frame their concatenation would have been, on both sides of
// the small-body threshold, over a plain writer and over a real socket
// (where the parts go out as one vectored write).
func TestFramePartsEqualJoinedFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	for _, tc := range []struct{ head, body []byte }{
		{nil, nil},
		{[]byte{7}, nil},
		{[]byte{7}, []byte("small")},
		{[]byte("eighteen byte head"), big[:joinBelow-1]},
		{[]byte("eighteen byte head"), big[:joinBelow]},
		{[]byte{0}, big},
		{nil, big},
	} {
		want := append(bytes.Clone(tc.head), tc.body...)
		var buf bytes.Buffer
		if err := WriteFrameParts(&buf, tc.head, tc.body); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadFrame(&buf); err != nil || !bytes.Equal(got, want) || buf.Len() != 0 {
			t.Errorf("head %d + body %d bytes over a buffer: %d bytes back, %d left over, err %v", len(tc.head), len(tc.body), len(got), buf.Len(), err)
		}
		errc := make(chan error, 1)
		go func() { errc <- WriteFrameParts(conn, tc.head, tc.body) }()
		got, err := ReadFrame(peer)
		if werr := <-errc; werr != nil || err != nil || !bytes.Equal(got, want) {
			t.Errorf("head %d + body %d bytes over TCP: %d bytes back, write err %v, read err %v", len(tc.head), len(tc.body), len(got), werr, err)
		}
	}
}

// TestReserveBytesIsPutBytesWithoutTheCopy: space reserved and filled in
// place decodes exactly as PutBytes of the same body, the window cannot be
// appended past its end, and Truncate takes an item back out.
func TestReserveBytesIsPutBytesWithoutTheCopy(t *testing.T) {
	body := []byte("read straight into the frame")
	w := NewBuffer(8) // too small: the reservation has to grow it
	w.PutBool(true)
	space := w.ReserveBytes(len(body))
	if len(space) != len(body) || cap(space) != len(body) {
		t.Fatalf("reserved len %d cap %d, want both %d", len(space), cap(space), len(body))
	}
	copy(space, body)
	mark := w.Len()
	w.PutBool(true)
	copy(w.ReserveBytes(3), "abc")
	w.Truncate(mark)
	w.PutBool(false)

	want := NewBuffer(64)
	want.PutBool(true)
	want.PutBytes(body)
	want.PutBool(false)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Errorf("encoded %q, want %q", w.Bytes(), want.Bytes())
	}
	r := NewReader(w.Bytes())
	if !r.Bool() || !bytes.Equal(r.Bytes(), body) || r.Bool() || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("decode of a reserved body went wrong: err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestFrameWindowsWrittenConcurrently is the sharing the restart path relies
// on: one received frame, decoded into windows with Reader.Bytes, each
// window then written by its own goroutine. The windows are disjoint, so
// the race detector stays quiet and every window holds what was written to
// it and nothing else.
func TestFrameWindowsWrittenConcurrently(t *testing.T) {
	const windows, size = 16, 4096
	w := NewBuffer(windows * (size + 4))
	for i := 0; i < windows; i++ {
		w.PutBytes(bytes.Repeat([]byte{byte(i)}, size))
	}
	var sock bytes.Buffer
	if err := WriteFrame(&sock, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(&sock)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(frame)
	got := make([][]byte, windows)
	for i := range got {
		got[i] = r.Bytes()
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	var wg sync.WaitGroup
	for i, win := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range win {
				win[j] = byte(0x80 + i)
			}
		}()
	}
	wg.Wait()
	for i, win := range got {
		if !bytes.Equal(win, bytes.Repeat([]byte{byte(0x80 + i)}, size)) {
			t.Errorf("window %d holds bytes written to another", i)
		}
	}
}

// TestFramePoolClasses: GetFrame serves a frame from the smallest class
// that holds it, a small or oversized frame is a plain allocation that
// PutFrame leaves alone, and a frame handed back is the one a later Get of
// its class returns, carrying what its last user wrote.
func TestFramePoolClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{0, 0},
		{64, 64},
		{32 << 10, 32 << 10},
		{32<<10 + 1, 65 << 10},
		{65 << 10, 65 << 10},
		{65<<10 + 1, 130 << 10},
		{4<<20 + 64<<10, 4<<20 + 64<<10},
		{4<<20 + 64<<10 + 1, 8<<20 + 128<<10},
		{MaxPooledFrame, MaxPooledFrame},
		{MaxPooledFrame + 1, MaxPooledFrame + 1},
	} {
		if p := GetFrame(tc.n); len(p) != tc.n || cap(p) != tc.cap {
			t.Errorf("GetFrame(%d): len %d cap %d, want cap %d", tc.n, len(p), cap(p), tc.cap)
		}
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is handed at random")
	}
	// A collection between Put and Get can empty the pool; it never hands
	// out an array nobody gave back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := GetFrame(100 << 10)
	copy(p, "last user")
	PutFrame(p)
	q := GetFrame(70 << 10)
	if &q[0] != &p[0] || string(q[:9]) != "last user" {
		t.Error("a Get of the class after a Put did not return the frame handed back")
	}
	PutFrame(q[1:])                    // a window: capacity is no class size
	PutFrame(make([]byte, 10, 64<<10)) // nor is this
	if r := GetFrame(70 << 10); &r[0] == &q[0] {
		t.Error("PutFrame of a window into a frame returned the frame to the pool")
	}
}

// TestReadPooledFrameIsReadFrame: a frame read into pooled memory holds the
// same bytes as one read into a fresh slice, across the class boundaries.
func TestReadPooledFrameIsReadFrame(t *testing.T) {
	for _, n := range []int{0, 5, 32 << 10, 32<<10 + 1, 1 << 20} {
		p := bytes.Repeat([]byte{byte(n)}, n)
		var buf bytes.Buffer
		WriteFrame(&buf, p) //nolint:errcheck // bytes.Buffer
		WriteFrame(&buf, p) //nolint:errcheck // bytes.Buffer
		a, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReadPooledFrame(&buf)
		if err != nil || !bytes.Equal(a, b) || !bytes.Equal(b, p) {
			t.Errorf("%d-byte frame: pooled read %d bytes, err %v", n, len(b), err)
		}
		PutFrame(b)
	}
}

// BenchmarkWriteFrame is the framing cost of one send into a writer that
// keeps nothing: a small control frame and a 4 MiB batch frame.
func BenchmarkWriteFrame(b *testing.B) {
	for _, n := range []int{64, 4 << 20} {
		b.Run(frameSizeName(n), func(b *testing.B) {
			p := bytes.Repeat([]byte{0xA5}, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteFrame(io.Discard, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadFrame reads a small and a 4 MiB frame into a slice the
// caller keeps (ReadFrame) and, at 4 MiB, into pooled memory handed back
// after each read (ReadPooledFrame): the difference is the runtime zeroing
// a fresh frame.
func BenchmarkReadFrame(b *testing.B) {
	for _, tc := range []struct {
		n      int
		pooled bool
	}{{64, false}, {4 << 20, false}, {4 << 20, true}} {
		name := frameSizeName(tc.n)
		if tc.pooled {
			name += "/pooled"
		}
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			WriteFrame(&buf, bytes.Repeat([]byte{0xA5}, tc.n)) //nolint:errcheck // bytes.Buffer
			src := bytes.NewReader(buf.Bytes())
			b.SetBytes(int64(tc.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Seek(0, io.SeekStart) //nolint:errcheck // bytes.Reader
				if !tc.pooled {
					if _, err := ReadFrame(src); err != nil {
						b.Fatal(err)
					}
					continue
				}
				p, err := ReadPooledFrame(src)
				if err != nil {
					b.Fatal(err)
				}
				PutFrame(p)
			}
		})
	}
}

func frameSizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dB", n)
}
