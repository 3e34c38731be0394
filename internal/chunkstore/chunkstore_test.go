package chunkstore

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMemPutCopies(t *testing.T) {
	s := NewMem()
	data := []byte{1, 2, 3}
	if err := s.Put(Key{1, 1}, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99
	got, _ := s.Get(Key{1, 1})
	if got[0] != 1 {
		t.Error("Put did not copy caller's buffer")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Blob: 0xAB, ID: 0xCD}
	want := "00000000000000ab-00000000000000cd"
	if k.String() != want {
		t.Errorf("String = %q, want %q", k.String(), want)
	}
}

func TestQuickRoundTripMem(t *testing.T) {
	s := NewMem()
	var next uint64
	f := func(blob uint64, data []byte) bool {
		next++
		k := Key{Blob: blob, ID: next}
		if err := s.Put(k, data); err != nil {
			return false
		}
		got, err := s.Get(k)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// batchSpy is a Store that is also a BatchPutter, recording the batch calls.
type batchSpy struct {
	*Mem
	puts, deletes int
}

func (b *batchSpy) PutBatch(keys []Key, bodies [][]byte) error {
	b.puts++
	for i, k := range keys {
		if err := b.Put(k, bodies[i]); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchSpy) DeleteBatch(keys []Key) error {
	b.deletes++
	for _, k := range keys {
		b.Delete(k) //nolint:errcheck // absent keys are skipped
	}
	return nil
}

// TestBatchHelpers: PutBatch and DeleteBatch hand a BatchPutter the whole
// set in one call, and give any other Store the same outcome through its
// single-chunk methods — every chunk stored with Put's semantics, absent
// keys skipped by DeleteBatch.
func TestBatchHelpers(t *testing.T) {
	const n = 40
	keys := make([]Key, n)
	bodies := make([][]byte, n)
	for i := range keys {
		keys[i] = Key{Blob: 3, ID: uint64(i)}
		bodies[i] = bytes.Repeat([]byte{byte(i)}, 10+i)
	}
	spy := &batchSpy{Mem: NewMem()}
	for name, s := range map[string]Store{"fallback": NewMem(), "batch putter": spy} {
		if err := PutBatch(s, keys, bodies); err != nil {
			t.Fatalf("%s: PutBatch: %v", name, err)
		}
		if err := PutBatch(s, keys[:1], bodies[:1]); err != nil {
			t.Fatalf("%s: identical re-put: %v", name, err)
		}
		if err := PutBatch(s, keys[:2], [][]byte{bodies[0], bodies[0]}); !errors.Is(err, ErrExists) {
			t.Fatalf("%s: different content under a stored key: %v, want ErrExists", name, err)
		}
		for i, k := range keys {
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, bodies[i]) {
				t.Fatalf("%s: chunk %d: %v", name, i, err)
			}
		}
		if err := DeleteBatch(s, append([]Key{{Blob: 9, ID: 9}}, keys[:n/2]...)); err != nil {
			t.Fatalf("%s: DeleteBatch with an absent key: %v", name, err)
		}
		if s.Len() != n/2 {
			t.Fatalf("%s: %d chunks left, want %d", name, s.Len(), n/2)
		}
	}
	if spy.puts != 3 || spy.deletes != 1 {
		t.Fatalf("a BatchPutter saw %d PutBatch and %d DeleteBatch calls, want 3 and 1", spy.puts, spy.deletes)
	}
}

func TestIsZero(t *testing.T) {
	for n := 0; n < 40; n++ {
		p := make([]byte, n)
		if !IsZero(p) {
			t.Fatalf("IsZero(zeros(%d)) = false", n)
		}
		for i := range p {
			p[i] = 1
			if IsZero(p) {
				t.Fatalf("IsZero missed byte %d of %d", i, n)
			}
			p[i] = 0
		}
	}
}

func TestStatsOfFallback(t *testing.T) {
	m := NewMem()
	if err := m.Put(Key{1, 1}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	es := StatsOf(m)
	if es.Backend != "mem" {
		t.Fatalf("Backend = %q", es.Backend)
	}
	if es.Field("chunks") != 1 || es.Field("logical_bytes") != 3 {
		t.Fatalf("fields = %+v", es.Fields)
	}
	if es.Field("no_such_field") != 0 {
		t.Fatal("missing field not zero")
	}
}

func TestCompactResultAdd(t *testing.T) {
	var r CompactResult
	r.Add(CompactResult{Segments: 1, Relocated: 2, ReclaimedBytes: 30})
	r.Add(CompactResult{Segments: 3, Relocated: 4, ReclaimedBytes: 50})
	if r.Segments != 4 || r.Relocated != 6 || r.ReclaimedBytes != 80 {
		t.Fatalf("accumulated = %+v", r)
	}
}
