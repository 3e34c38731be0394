package seglog

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"sync"

	"blobcr/internal/chunkstore"
)

// minCompress is the smallest payload worth running DEFLATE over; below it
// the header-relative savings cannot pay for the CPU.
const minCompress = 128

// sampleLen is the prefix probed before committing to a full DEFLATE pass.
// Compressing an incompressible chunk costs nearly as much CPU as a
// compressible one and then gets thrown away; estimating the entropy of a
// small prefix first keeps encrypted/random checkpoint data off the
// compressor for a fraction of a percent of the cost. Payloads up to
// 2*sampleLen skip the probe — the full pass is already cheap there.
const sampleLen = 4 * 1024

// maxSampleEntropyX16 is the byte-entropy gate, in 1/16ths of a bit: a
// prefix above 7.4 bits/byte is effectively random and DEFLATE will not
// recover the 1/8th margin on it.
const maxSampleEntropyX16 = 16*7 + 6

// flateWriters pools DEFLATE encoders: flate.NewWriter allocates large
// internal tables, and the group-commit path compresses on every Put.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return fw
}}

// inflater is a pooled DEFLATE decoder with the reader it decodes from:
// flate.NewReader allocates its window and tables, and the read path decodes
// every compressed record it serves.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// encodePayload picks the storage encoding for a chunk body: zero-page
// elision first (flag only, no payload), then DEFLATE if it saves at least
// 1/8th of the bytes, else raw. The returned payload may alias data (raw
// case); callers must treat it as read-only. The choice is deterministic
// for given bytes and options, so identical re-puts encode identically.
func (s *Store) encodePayload(data []byte) (flags uint8, payload []byte) {
	if len(data) > 0 && chunkstore.IsZero(data) {
		return flagZero, nil
	}
	if s.opts.NoCompress || len(data) < minCompress {
		return 0, data
	}
	if len(data) > 2*sampleLen && !sampleCompressible(data[:sampleLen]) {
		return 0, data
	}
	var buf bytes.Buffer
	buf.Grow(len(data) / 2)
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(&buf)
	_, werr := fw.Write(data)
	cerr := fw.Close()
	flateWriters.Put(fw)
	if werr == nil && cerr == nil && buf.Len() < len(data)-len(data)/8 {
		return flagFlate, buf.Bytes()
	}
	return 0, data
}

// sampleCompressible estimates the Shannon byte entropy of a prefix sample
// and reports whether DEFLATE has a chance at the 1/8th margin. A histogram
// scan costs a couple of microseconds against tens for an actual DEFLATE
// probe — on the group-commit path that difference is batch-formation time.
// Deterministic for given bytes, like every other encoding decision here, so
// identical re-puts still produce identical records. A false positive only
// wastes one full DEFLATE pass (the real 1/8th check still gates storage);
// a false negative stores a compressible chunk raw, never corrupts it.
func sampleCompressible(sample []byte) bool {
	var hist [256]int
	for _, b := range sample {
		hist[b]++
	}
	// Entropy in 1/16th-bit fixed point: -sum(p * log2(p)) * 16.
	n := float64(len(sample))
	var bits float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		bits -= p * math.Log2(p)
	}
	return int(bits*16) <= maxSampleEntropyX16
}

// decodePayload expands a compressed or elided stored payload into dst, the
// chunk body's recorded length. (A raw payload needs no decoding: the read
// path places it in its destination directly.)
func decodePayload(flags uint8, payload, dst []byte) error {
	if flags&flagZero != 0 {
		clear(dst)
		return nil
	}
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // the pool holds no record's bytes
		inflaters.Put(in)
	}()
	in.src.Reset(payload)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return fmt.Errorf("seglog: decompress: %w", err)
	}
	if _, err := io.ReadFull(in.fr, dst); err != nil {
		return fmt.Errorf("seglog: decompress: %w", err)
	}
	var extra [1]byte
	if n, _ := in.fr.Read(extra[:]); n != 0 {
		return fmt.Errorf("seglog: decompress: stream longer than recorded length")
	}
	return nil
}
