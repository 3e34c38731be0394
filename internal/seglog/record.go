package seglog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"

	"blobcr/internal/chunkstore"
)

// On-disk record layout (big-endian), header then payload back to back:
//
//	[0:4)   CRC32C over header bytes [4:hdrSize) plus the payload
//	[4:12)  key.Blob
//	[12:20) key.ID
//	[20]    flags
//	[21:25) ulen — logical (uncompressed) payload length
//	[25:29) plen — stored payload length
//
// The CRC covers everything after itself, so a torn or bit-flipped tail is
// detected no matter where the damage lands. Records are self-delimiting:
// recovery needs no index or footer, only a forward scan.
const hdrSize = 29

const (
	// flagTombstone marks a delete; the record has no payload and its key
	// suppresses every earlier record for the same key during recovery.
	flagTombstone = 1 << 0
	// flagZero elides an all-zero payload: ulen zero bytes, none stored.
	flagZero = 1 << 1
	// flagFlate marks a DEFLATE-compressed payload.
	flagFlate = 1 << 2
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on amd64
// and arm64, the same checksum LevelDB and ext4 journals use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded fixed part of one record.
type header struct {
	key   chunkstore.Key
	flags uint8
	ulen  uint32
	plen  uint32
}

// encodedRec is one record ready to board a batch: the fixed header with
// its CRC already stamped, plus a reference to the payload bytes. The batch
// keeps both by reference and appends them with one vectored write, so the
// CRC runs outside the batch lock and a payload reaches the file from the
// caller's own buffer, never copied inside the engine. Header and payload
// must stay in place and unchanged until the record's enqueue returns.
type encodedRec struct {
	hdr     [hdrSize]byte
	payload []byte
}

// encode stamps e with the boarding form of one record. It fills e in
// place: the header lives where the batch will reference it from.
func (e *encodedRec) encode(h header, payload []byte) {
	binary.BigEndian.PutUint64(e.hdr[4:12], h.key.Blob)
	binary.BigEndian.PutUint64(e.hdr[12:20], h.key.ID)
	e.hdr[20] = h.flags
	binary.BigEndian.PutUint32(e.hdr[21:25], h.ulen)
	binary.BigEndian.PutUint32(e.hdr[25:29], h.plen)
	crc := crc32.Update(0, castagnoli, e.hdr[4:])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(e.hdr[0:4], crc)
	e.payload = payload
}

// parseHeader decodes a record header. The CRC is not verified here — it
// needs the payload.
func parseHeader(b []byte) header {
	return header{
		key: chunkstore.Key{
			Blob: binary.BigEndian.Uint64(b[4:12]),
			ID:   binary.BigEndian.Uint64(b[12:20]),
		},
		flags: b[20],
		ulen:  binary.BigEndian.Uint32(b[21:25]),
		plen:  binary.BigEndian.Uint32(b[25:29]),
	}
}

// verifyRecord checks a full raw record (header + payload) against its CRC.
func verifyRecord(raw []byte) bool {
	if len(raw) < hdrSize {
		return false
	}
	h := parseHeader(raw)
	if len(raw) != hdrSize+int(h.plen) {
		return false
	}
	return binary.BigEndian.Uint32(raw[0:4]) == crc32.Update(0, castagnoli, raw[4:])
}

// scanSegment walks every record of a segment file from offset 0, calling
// fn with each record's offset, header and (stored, still-compressed)
// payload. The payload slice is reused between calls; fn must not retain it.
// Only recovery scans: compaction reads a victim's live records by their
// index entries (compact.go).
//
// It returns the number of bytes covered by valid records and whether the
// scan stopped at a torn/corrupt record instead of clean EOF. A torn tail is
// the expected shape of a crash mid-append (the batch was never acked); the
// caller decides whether that is recoverable (last segment) or fatal
// (sealed segment).
func scanSegment(f io.ReaderAt, size int64, fn func(off int64, h header, payload []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), int(min(size, 1<<20)))
	var off int64
	var hb [hdrSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hb[:]); err != nil {
			if err == io.EOF {
				return off, false, nil
			}
			if err == io.ErrUnexpectedEOF {
				return off, true, nil
			}
			return off, false, err
		}
		h := parseHeader(hb[:])
		if int64(h.plen) > size-off-hdrSize {
			return off, true, nil // length field points past the file: torn
		}
		if cap(payload) < int(h.plen) {
			payload = make([]byte, h.plen)
		}
		payload = payload[:h.plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, true, nil
			}
			return off, false, err
		}
		crc := crc32.Update(0, castagnoli, hb[4:])
		crc = crc32.Update(crc, castagnoli, payload)
		if binary.BigEndian.Uint32(hb[0:4]) != crc {
			return off, true, nil
		}
		if err := fn(off, h, payload); err != nil {
			return off, false, err
		}
		off += hdrSize + int64(h.plen)
	}
}
