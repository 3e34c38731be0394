// Package wire provides compact binary encoding helpers shared by the
// network transports and the on-disk image formats.
//
// The encoding is deliberately simple: little-endian fixed-width integers,
// unsigned varints for lengths, and length-prefixed byte strings. A Buffer
// accumulates an encoded message; a Reader consumes one. Both sides keep an
// error latch so call sites can chain puts/gets and check the error once,
// which keeps protocol code readable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"unsafe"
)

// ErrTruncated is returned when a Reader runs out of bytes mid-field.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix exceeds the configured limit.
var ErrTooLarge = errors.New("wire: field exceeds size limit")

// MaxFieldSize bounds a single length-prefixed field. Checkpoint commits move
// chunk payloads of at most a few MB each; 1 GiB is far above any legitimate
// field and small enough to reject corrupt prefixes before allocating.
const MaxFieldSize = 1 << 30

// Buffer accumulates an encoded message.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The slice aliases the internal buffer.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the number of encoded bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Reset truncates the buffer for reuse.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// PutU8 appends a single byte.
func (w *Buffer) PutU8(v uint8) { w.b = append(w.b, v) }

// PutU32 appends a little-endian uint32.
func (w *Buffer) PutU32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

// PutU64 appends a little-endian uint64.
func (w *Buffer) PutU64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// PutI64 appends a little-endian int64.
func (w *Buffer) PutI64(v int64) { w.PutU64(uint64(v)) }

// PutUvarint appends an unsigned varint.
func (w *Buffer) PutUvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// PutBool appends a boolean as one byte.
func (w *Buffer) PutBool(v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
}

// PutF64 appends a float64 as its IEEE-754 bits.
func (w *Buffer) PutF64(v float64) { w.PutU64(math.Float64bits(v)) }

// PutIndices appends a chunk-index list: a uvarint count, then each index
// as a uvarint.
func (w *Buffer) PutIndices(indices []uint64) {
	w.PutUvarint(uint64(len(indices)))
	for _, idx := range indices {
		w.PutUvarint(idx)
	}
}

// PutBytes appends a varint length prefix followed by the bytes.
func (w *Buffer) PutBytes(p []byte) {
	w.PutUvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// ReserveBytes appends a varint length prefix for n bytes and n bytes of
// space, and returns the space for the caller to fill: PutBytes for a body
// that is read straight into the message instead of copied into it. The
// space is not zeroed, and it stays valid only until the next append.
func (w *Buffer) ReserveBytes(n int) []byte {
	w.PutUvarint(uint64(n))
	start := len(w.b)
	w.b = slices.Grow(w.b, n)[:start+n]
	return w.b[start : start+n : start+n]
}

// Truncate drops everything after the first n encoded bytes.
func (w *Buffer) Truncate(n int) { w.b = w.b[:n] }

// PutString appends a varint length prefix followed by the string bytes.
func (w *Buffer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Reader consumes an encoded message. Methods record the first decode error
// and return zero values afterwards; check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// ErrTrailing is End's error for a message with bytes after its last field.
var ErrTrailing = errors.New("wire: trailing bytes")

// End returns the first decode error, or ErrTrailing when bytes remain after
// the last field: a decoder that ends with it accepts only a message it
// consumed exactly, so no two messages decode alike.
func (r *Reader) End() error {
	if r.err == nil && r.Remaining() != 0 {
		return fmt.Errorf("%w: %d after the last field", ErrTrailing, r.Remaining())
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U8 decodes a single byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// ErrNonCanonical is returned for a varint encoded in more bytes than it
// needs: PutUvarint never writes one, and accepting it would let two frames
// decode alike.
var ErrNonCanonical = errors.New("wire: non-canonical varint")

// Uvarint decodes an unsigned varint in its shortest encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n <= 0:
		r.fail(ErrTruncated)
		return 0
	case n > 1 && r.b[r.off+n-1] == 0:
		r.fail(ErrNonCanonical)
		return 0
	}
	r.off += n
	return v
}

// Count decodes the item count of a list whose items each take at least
// one byte. A count over the bytes left in the frame is corrupt: it fails
// the reader before anything is allocated from it.
func (r *Reader) Count() uint64 {
	return r.CountAtMost(math.MaxUint64)
}

// CountAtMost is Count for a list of at most limit items: a count over the
// limit fails the reader too.
func (r *Reader) CountAtMost(limit uint64) uint64 {
	n := r.Uvarint()
	switch {
	case r.err != nil:
		return 0
	case n > uint64(r.Remaining()):
		r.fail(fmt.Errorf("wire: implausible count %d with %d bytes left in the frame", n, r.Remaining()))
		return 0
	case n > limit:
		r.fail(fmt.Errorf("wire: %d items over the limit of %d", n, limit))
		return 0
	}
	return n
}

// Indices decodes a chunk-index list PutIndices wrote, of at most limit
// entries. A count over the limit or over the bytes left fails before
// anything is allocated from it.
func (r *Reader) Indices(limit uint64) []uint64 {
	n := r.CountAtMost(limit)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Bool decodes a one-byte boolean. Only 0 and 1 are booleans: PutBool
// writes nothing else, and reading any other byte as true would let two
// frames decode alike.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: boolean byte %d", v))
		return false
	}
}

// F64 decodes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes decodes a length-prefixed byte string. The returned slice aliases
// the Reader's backing array.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxFieldSize {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// FixedBytes decodes a length-prefixed byte string that must be exactly n
// bytes long: a fixed-size field such as a fingerprint keeps PutBytes'
// prefix, and any other length fails the reader instead of being padded or
// cut to fit.
func (r *Reader) FixedBytes(n int) []byte {
	p := r.Bytes()
	if r.err == nil && len(p) != n {
		r.fail(fmt.Errorf("wire: %d-byte field where %d bytes belong", len(p), n))
		return nil
	}
	return p
}

// BytesCopy decodes a length-prefixed byte string into a fresh slice.
func (r *Reader) BytesCopy() []byte {
	p := r.Bytes()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	p := r.Bytes()
	if p == nil {
		return ""
	}
	return string(p)
}

// Frame I/O: a frame is a 4-byte little-endian length followed by that many
// payload bytes. Used by the TCP transport.

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameParts(w, nil, payload)
}

// joinBelow is the body size under which WriteFrameParts copies the body
// behind the length prefix and issues one plain write: for a small message
// the copy is cheaper than the bookkeeping of a vectored write.
const joinBelow = 1 << 10

// frameHeads pools the buffer a frame's length prefix and head — and a
// small body — are assembled in, so sending a frame allocates nothing.
var frameHeads = sync.Pool{New: func() any {
	b := make([]byte, 0, 64+joinBelow)
	return &b
}}

// WriteFrameParts writes one frame whose payload is head followed by body,
// without joining the two: the length prefix and head (a status byte, a
// trace header) share one small buffer, which goes out together with body in
// a single vectored write — writev on a net.Conn — so a large body is never
// copied to prepend a few bytes to it.
func WriteFrameParts(w io.Writer, head, body []byte) error {
	n := len(head) + len(body)
	if n > MaxFieldSize {
		return ErrTooLarge
	}
	bp := frameHeads.Get().(*[]byte)
	hdr := append(binary.LittleEndian.AppendUint32((*bp)[:0], uint32(n)), head...)
	var err error
	if len(body) < joinBelow {
		hdr = append(hdr, body...)
		_, err = w.Write(hdr)
	} else {
		bufs := net.Buffers{hdr, body}
		_, err = bufs.WriteTo(w)
	}
	*bp = hdr[:0]
	frameHeads.Put(bp)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into a fresh slice the
// caller keeps.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, func(n int) []byte { return make([]byte, n) })
}

// ReadPooledFrame is ReadFrame into GetFrame's memory: for a frame that
// lives for one exchange, whose reader hands it back with PutFrame once
// nothing refers into it.
func ReadPooledFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, GetFrame)
}

func readFrame(r io.Reader, alloc func(n int) []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFieldSize {
		return nil, ErrTooLarge
	}
	payload := alloc(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return payload, nil
}

// --- Frame pool ---

// A bulk frame — a batch of chunk bodies — usually lives for one exchange:
// the server decodes a request and drops it, a reply is garbage once it is
// on the wire. Allocating each afresh makes the runtime zero megabytes per
// exchange, so such frames come from a pool per size class instead. A class
// is a power of two from 64 KiB to 8 MiB plus 1/64th of it, so a frame of
// 4 MiB of bodies — the batch a client sends or asks for — and its per-item
// framing fits the 4 MiB class instead of taking twice its memory from the
// next, and the 8 MiB class holds the largest frame a client's batching
// builds (4 MiB of the smallest bodies, whose framing is then 3 MiB). A frame
// of 32 KiB or less, cheap to allocate, or one above the largest class is
// allocated and collected as any other slice.
const (
	minFrameShift = 16
	maxFrameShift = 23

	// MaxPooledFrame is the capacity of the largest pooled size class.
	MaxPooledFrame = 1<<maxFrameShift + 1<<(maxFrameShift-6)
)

// framePools holds one pool per class. An entry is the first byte of a
// backing array whose capacity is its class size, so Put stores a plain
// pointer and allocates nothing.
var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// frameClass returns the capacity of a class: a power of two, plus 1/64th
// of it for the framing around a payload of that power.
func frameClass(shift int) int { return 1<<shift + 1<<(shift-6) }

// frameShift returns the shift of the smallest class holding n bytes, or -1
// when n is allocated afresh: half the smallest class or less, or more than
// the largest.
func frameShift(n int) int {
	if n <= 1<<(minFrameShift-1) {
		return -1
	}
	for shift := minFrameShift; shift <= maxFrameShift; shift++ {
		if n <= frameClass(shift) {
			return shift
		}
	}
	return -1
}

// GetFrame returns a slice of length n. From a pooled class its capacity is
// the class size and its content is whatever the frame's last user left
// there, so the caller overwrites every byte it sends; otherwise it is a
// fresh, zeroed allocation.
func GetFrame(n int) []byte {
	shift := frameShift(n)
	if shift < 0 {
		return make([]byte, n)
	}
	if p, ok := framePools[shift-minFrameShift].Get().(*byte); ok {
		return unsafe.Slice(p, frameClass(shift))[:n]
	}
	return make([]byte, n, frameClass(shift))
}

// PutFrame hands p's backing array back to its class for a later GetFrame.
// The caller gives up p and every slice of it: nothing may read or write
// them afterwards. A slice whose capacity is not a class size — a frame
// allocated outside the classes, a window into one, a buffer that grew past
// its class — is left to the collector.
func PutFrame(p []byte) {
	c := cap(p)
	shift := frameShift(c)
	if shift < 0 || c != frameClass(shift) {
		return
	}
	framePools[shift-minFrameShift].Put(unsafe.SliceData(p))
}

// NewFrameBuffer returns an empty Buffer of at least the given capacity
// whose memory comes from GetFrame. Once its message is sent and nothing
// refers into it, PutFrame(w.Bytes()) hands the memory back.
func NewFrameBuffer(capacity int) *Buffer {
	return &Buffer{b: GetFrame(capacity)[:0]}
}
