package blobseer

import (
	"context"
	"slices"
	"testing"

	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// TestHintIsOneCappedRecordPerBlob: the version manager keeps exactly one
// demand record per blob — the latest put replaces it — answers an empty
// record for a blob without one and not-found for an unknown blob, and
// rejects whole a record over the byte cap or a corrupt frame, keeping the
// record it had.
func TestHintIsOneCappedRecordPerBlob(t *testing.T) {
	d, c := deploy(t, 1, 1)
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetHint(ctx, blob); err != nil || len(got) != 0 {
		t.Fatalf("hint of a fresh blob = %v, %v; want empty", got, err)
	}
	if _, err := c.GetHint(ctx, 999); !IsNotFound(err) {
		t.Errorf("hint of an unknown blob: err = %v, want not found", err)
	}
	if err := c.PutHint(ctx, 999, []uint64{1}); !IsNotFound(err) {
		t.Errorf("hint put to an unknown blob: err = %v, want not found", err)
	}

	first := []uint64{9, 2, 1 << 40, 2}
	second := []uint64{7, 0}
	for _, hint := range [][]uint64{first, second} {
		if err := c.PutHint(ctx, blob, hint); err != nil {
			t.Fatal(err)
		}
	}
	want := func(what string, blob uint64, hint []uint64) {
		t.Helper()
		got, err := c.GetHint(ctx, blob)
		if err != nil || !slices.Equal(got, hint) {
			t.Errorf("%s: hint = %v, %v; want %v", what, got, err, hint)
		}
	}
	want("after two puts", blob, second)
	want("the other blob", other, nil)

	limit := int(maxHintBytes / testChunkSize)
	full := make([]uint64, limit)
	for i := range full {
		full[i] = uint64(i)
	}
	if err := c.PutHint(ctx, other, full); err != nil {
		t.Fatalf("a record of exactly the cap: %v", err)
	}
	want("a record of exactly the cap", other, full)
	if err := c.PutHint(ctx, blob, append(full, 0)); err == nil {
		t.Error("a record over the cap was stored")
	}
	want("after the over-cap put", blob, second)

	w := wire.NewBuffer(32)
	w.PutU8(opHintPut)
	w.PutU64(blob)
	w.PutIndices([]uint64{300, 5})
	frame := w.Bytes()
	for cut := 1; cut < len(frame); cut++ {
		if _, err := c.Net.Call(ctx, d.VMAddr, frame[:cut]); err == nil {
			t.Fatalf("truncated hint-put frame (%d of %d bytes) accepted", cut, len(frame))
		}
	}
	want("after the truncated puts", blob, second)
}

// TestHintResponseCountIsBounded: a hint-get response whose count the frame
// cannot hold fails the decode instead of allocating from the count.
func TestHintResponseCountIsBounded(t *testing.T) {
	net := transport.NewInProc()
	srv, err := net.Listen("", func(context.Context, []byte) ([]byte, error) {
		w := wire.NewBuffer(16)
		w.PutUvarint(1 << 62)
		w.PutUvarint(3)
		return w.Bytes(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Net: net, VMAddr: srv.Addr()}
	if got, err := c.GetHint(ctx, 1); err == nil {
		t.Fatalf("implausible hint response accepted: %d indices", len(got))
	}
}
