package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// stores returns one fresh instance of every Store implementation.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "disk": disk}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := Key{Blob: 7, ID: 42}
			data := []byte("chunk payload")
			if err := s.Put(k, data); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := s.Get(k)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get = %q, want %q", got, data)
			}
			if !s.Has(k) {
				t.Error("Has = false after Put")
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d, want 1", s.Len())
			}
			if s.UsedBytes() != int64(len(data)) {
				t.Errorf("UsedBytes = %d, want %d", s.UsedBytes(), len(data))
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get(Key{1, 1}); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestImmutability(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := Key{1, 1}
			if err := s.Put(k, []byte("aaa")); err != nil {
				t.Fatal(err)
			}
			// Identical re-put (replica re-delivery) is fine.
			if err := s.Put(k, []byte("aaa")); err != nil {
				t.Errorf("idempotent re-put failed: %v", err)
			}
			// Different content is rejected.
			if err := s.Put(k, []byte("bbb")); !errors.Is(err, ErrExists) {
				t.Errorf("overwrite = %v, want ErrExists", err)
			}
			got, _ := s.Get(k)
			if !bytes.Equal(got, []byte("aaa")) {
				t.Errorf("content changed to %q", got)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := Key{3, 9}
			if err := s.Put(k, []byte("xyz")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if s.Has(k) {
				t.Error("Has = true after Delete")
			}
			if s.UsedBytes() != 0 || s.Len() != 0 {
				t.Errorf("after delete: bytes=%d len=%d", s.UsedBytes(), s.Len())
			}
			if err := s.Delete(k); !errors.Is(err, ErrNotFound) {
				t.Errorf("double delete = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestEmptyChunk(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := Key{5, 5}
			if err := s.Put(k, nil); err != nil {
				t.Fatalf("Put empty: %v", err)
			}
			got, err := s.Get(k)
			if err != nil {
				t.Fatalf("Get empty: %v", err)
			}
			if len(got) != 0 {
				t.Errorf("Get empty = %q", got)
			}
		})
	}
}

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

func TestDiskReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := s1.Put(Key{Blob: 1, ID: i}, []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Errorf("reopened Len = %d, want 5", s2.Len())
	}
	if s2.UsedBytes() != 10 {
		t.Errorf("reopened UsedBytes = %d, want 10", s2.UsedBytes())
	}
	got, err := s2.Get(Key{Blob: 1, ID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{3, 3}) {
		t.Errorf("reopened Get = %v", got)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			const n = 50
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					k := Key{Blob: 1, ID: uint64(i)}
					data := []byte(fmt.Sprintf("payload-%d", i))
					if err := s.Put(k, data); err != nil {
						t.Errorf("Put %d: %v", i, err)
						return
					}
					got, err := s.Get(k)
					if err != nil {
						t.Errorf("Get %d: %v", i, err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Errorf("Get %d = %q", i, got)
					}
				}(i)
			}
			wg.Wait()
			if s.Len() != n {
				t.Errorf("Len = %d, want %d", s.Len(), n)
			}
		})
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

func TestUsedBytesAccounting(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var want int64
			for i := 0; i < 20; i++ {
				data := make([]byte, i*13)
				if err := s.Put(Key{Blob: 2, ID: uint64(i)}, data); err != nil {
					t.Fatal(err)
				}
				want += int64(len(data))
			}
			if s.UsedBytes() != want {
				t.Errorf("UsedBytes = %d, want %d", s.UsedBytes(), want)
			}
			// Delete half and re-check.
			for i := 0; i < 10; i++ {
				if err := s.Delete(Key{Blob: 2, ID: uint64(i)}); err != nil {
					t.Fatal(err)
				}
				want -= int64(i * 13)
			}
			if s.UsedBytes() != want {
				t.Errorf("after deletes UsedBytes = %d, want %d", s.UsedBytes(), want)
			}
		})
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
