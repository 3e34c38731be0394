package blobseer

import (
	"bytes"
	"context"
	"encoding/hex"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// services returns a fresh handler of each of the four services; the
// version manager holds blob 1, of 4 KiB chunks, without versions.
func services(t *testing.T) map[string]transport.Handler {
	vm := NewVersionManager()
	if _, err := vm.handle(ctx, request{op: opCreate, arg: 4096}.encode().Bytes()); err != nil {
		t.Fatal(err)
	}
	return map[string]transport.Handler{
		"version manager":   vm.handle,
		"provider manager":  NewProviderManager().handle,
		"data provider":     NewDataProvider(cas.NewMem()).handle,
		"metadata provider": NewMetadataProvider().handle,
	}
}

// nonCanonicalFrames are frames that decode like a canonical frame of the
// same op but differ from it: a byte after the last field, a fingerprint
// field one byte short or long, a boolean byte other than 0 or 1.
func nonCanonicalFrames() map[string][]byte {
	fp := cas.Sum([]byte("body"))
	withFingerprint := func(n int) []byte {
		w := wire.NewBuffer(64)
		w.PutU8(opCasRefBatch)
		w.PutUvarint(1)
		w.PutBytes(bytes.Repeat([]byte{0xF1}, n))
		return w.Bytes()
	}
	return map[string][]byte{
		"cas-ref-batch with a trailing byte": append(fingerprintFrame(opCasRefBatch, []cas.Fingerprint{fp}, nil), 0),
		"31-byte fingerprint":                withFingerprint(31),
		"33-byte fingerprint":                withFingerprint(33),
		"relocate with apply byte 2":         {opRelocate, 2, 0},
		"list-blobs with a trailing byte":    {opListBlobs, 0},
	}
}

// TestNonCanonicalFramesRefused: no service serves a frame that differs
// from the canonical encoding of what it decodes to.
func TestNonCanonicalFramesRefused(t *testing.T) {
	for name, frame := range nonCanonicalFrames() {
		for svc, handle := range services(t) {
			if _, err := handle(ctx, frame); err == nil {
				t.Errorf("%s: served by the %s", name, svc)
			}
		}
	}
}

// TestGoldenFramesRoundTrip: every golden frame decodes and re-encodes byte
// for byte.
func TestGoldenFramesRoundTrip(t *testing.T) {
	for name, h := range goldenFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := decodeRequest(frame)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := q.encode().Bytes(); !bytes.Equal(got, frame) {
			t.Errorf("%s: re-encodes as %x", name, got)
		}
	}
}

// TestStoreStatsFieldCountIsBounded: a store-stats reply naming more
// counters than maxEngineFields is an error, not an empty report.
func TestStoreStatsFieldCountIsBounded(t *testing.T) {
	net := transport.NewInProc()
	srv, err := net.Listen("", func(context.Context, []byte) ([]byte, error) {
		w := wire.NewBuffer(64 << 10)
		w.PutString("seglog")
		w.PutUvarint(5000)
		for range 5000 {
			w.PutString("f")
			w.PutU64(1)
		}
		return w.Bytes(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Net: net}
	if es, err := c.StoreEngineStats(ctx, srv.Addr()); err == nil {
		t.Fatalf("a reply of 5000 counters accepted as %+v", es)
	}
}

// FuzzServiceRequest drives all four services' handlers with arbitrary
// frames, seeded with the golden frame of every op and the non-canonical
// frames. A frame decodeRequest accepts re-encodes byte for byte; no
// handler serves a frame decodeRequest refuses; and at most one service
// serves any frame.
func FuzzServiceRequest(f *testing.F) {
	for _, h := range goldenFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, frame := range nonCanonicalFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		q, decodeErr := decodeRequest(frame)
		if decodeErr == nil {
			if got := q.encode().Bytes(); !bytes.Equal(got, frame) {
				t.Fatalf("frame %x re-encodes as %x", frame, got)
			}
		}
		var served []string
		for svc, handle := range services(t) {
			if _, err := handle(ctx, frame); err == nil {
				served = append(served, svc)
			}
		}
		if len(served) > 0 && decodeErr != nil {
			t.Fatalf("%v served a frame decodeRequest refuses: %v", served, decodeErr)
		}
		if len(served) > 1 {
			t.Fatalf("one frame served by %v", served)
		}
	})
}
