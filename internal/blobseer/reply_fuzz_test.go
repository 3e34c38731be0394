package blobseer

import (
	"bytes"
	"testing"
	"unsafe"

	"blobcr/internal/wire"
)

// encodeChunkBatchReply writes a chunk-get-batch response the way the data
// provider does: a presence flag per item and the body if present.
func encodeChunkBatchReply(bodies [][]byte) []byte {
	w := wire.NewBuffer(64)
	for _, b := range bodies {
		w.PutBool(b != nil)
		if b != nil {
			w.PutBytes(b)
		}
	}
	return w.Bytes()
}

// FuzzChunkBatchReply: whatever a provider sends back, the reader's decoder
// returns an error or one entry per key and never panics. Every body it
// returns is a window of the reply with its capacity cut to its length; a
// reply cut short by a byte or longer by one is rejected; and the encoding a
// provider writes decodes back to its bodies.
func FuzzChunkBatchReply(f *testing.F) {
	sample := [][]byte{[]byte("first body"), nil, {}, bytes.Repeat([]byte{0xAB}, 300)}
	full := encodeChunkBatchReply(sample)
	f.Add(full, uint16(len(sample)))
	f.Add(full[:len(full)-1], uint16(len(sample)))
	f.Add(append(full, 0), uint16(len(sample)))
	f.Add(full, uint16(len(sample)+1))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(1))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, reply []byte, count uint16) {
		n := int(count % 512)
		out, err := decodeChunkBatchReply(reply, n)
		if err == nil {
			if len(out) != n {
				t.Fatalf("decoded %d entries for %d keys", len(out), n)
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(reply)))
			hi := lo + uintptr(len(reply))
			for i, body := range out {
				if cap(body) != len(body) {
					t.Fatalf("entry %d: capacity %d past its %d bytes", i, cap(body), len(body))
				}
				if len(body) == 0 {
					continue
				}
				start := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
				if start < lo || start+uintptr(len(body)) > hi {
					t.Fatalf("entry %d: %d bytes outside the %d-byte reply", i, len(body), len(reply))
				}
			}
			if len(reply) > 0 {
				if _, err := decodeChunkBatchReply(reply[:len(reply)-1], n); err == nil {
					t.Fatal("a reply cut short by one byte decoded")
				}
			}
			if _, err := decodeChunkBatchReply(append(reply[:len(reply):len(reply)], 0), n); err == nil {
				t.Fatal("a reply with one byte past its items decoded")
			}
		}

		// Cut the input into n bodies, every third one absent, and read
		// them back through the provider's encoding.
		bodies := make([][]byte, n)
		for i := range bodies {
			if i%3 == 2 {
				continue
			}
			take := min(len(reply), i+1)
			bodies[i], reply = reply[:take], reply[take:]
		}
		got, err := decodeChunkBatchReply(encodeChunkBatchReply(bodies), n)
		if err != nil {
			t.Fatalf("a well-formed reply of %d items: %v", n, err)
		}
		for i := range bodies {
			if (got[i] == nil) != (bodies[i] == nil) || !bytes.Equal(got[i], bodies[i]) {
				t.Fatalf("entry %d: got %q, want %q", i, got[i], bodies[i])
			}
		}
	})
}
