package seglog

import (
	"bytes"
	"testing"
)

// TestCompressedGetReusesInflater: reading a DEFLATE record back allocates
// the body it returns and no decompressor of its own — an inflater's
// window and tables are tens of KiB, and the writers are pooled already.
func TestCompressedGetReusesInflater(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects under the race detector")
	}
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true})
	defer s.Close()
	body := bytes.Repeat([]byte("BlobCR stores VM images "), 2048)
	if err := s.Put(key(1), body); err != nil {
		t.Fatal(err)
	}
	if s.EngineStats().Field("flate_chunks") != 1 {
		t.Fatal("the record was not stored compressed")
	}
	get := func() {
		if got, err := s.Get(key(1)); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("Get: %v", err)
		}
	}
	get()
	if allocs := testing.AllocsPerRun(100, get); allocs > 2 {
		t.Errorf("a compressed Get made %.0f allocations, want the body and at most one more", allocs)
	}
}
