package chunkstore_test

// The engine-contract tests: every Store engine — memory, and the segment
// log that is the durable one — must pass them. They live in the external
// test package because internal/seglog imports chunkstore.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
)

// stores returns one fresh instance of every Store engine: memory, and the
// durable segment log as "disk".
func stores(t *testing.T) map[string]chunkstore.Store {
	t.Helper()
	return map[string]chunkstore.Store{"mem": chunkstore.NewMem(), "disk": openDisk(t, t.TempDir())}
}

// openDisk opens the segment log rooted at dir on a private metrics
// registry; the test closes it at cleanup (Close is idempotent, so a test
// may close it earlier to reopen the directory).
func openDisk(t *testing.T, dir string) *seglog.Store {
	t.Helper()
	s, err := seglog.Open(dir, seglog.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := chunkstore.Key{Blob: 7, ID: 42}
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
			if _, err := s.Get(chunkstore.Key{1, 1}); !errors.Is(err, chunkstore.ErrNotFound) {
				t.Errorf("Get missing = %v, want chunkstore.ErrNotFound", err)
			}
		})
	}
}

func TestImmutability(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := chunkstore.Key{1, 1}
			if err := s.Put(k, []byte("aaa")); err != nil {
				t.Fatal(err)
			}
			// Identical re-put (replica re-delivery) is fine.
			if err := s.Put(k, []byte("aaa")); err != nil {
				t.Errorf("idempotent re-put failed: %v", err)
			}
			// Different content is rejected.
			if err := s.Put(k, []byte("bbb")); !errors.Is(err, chunkstore.ErrExists) {
				t.Errorf("overwrite = %v, want chunkstore.ErrExists", err)
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
			k := chunkstore.Key{3, 9}
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
			if err := s.Delete(k); !errors.Is(err, chunkstore.ErrNotFound) {
				t.Errorf("double delete = %v, want chunkstore.ErrNotFound", err)
			}
		})
	}
}

func TestEmptyChunk(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := chunkstore.Key{5, 5}
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

// TestDiskReopenRecoversIndex: a reopened segment log rebuilds its index
// from the records on disk — counts, bytes and bodies.
func TestDiskReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s1 := openDisk(t, dir)
	for i := uint64(0); i < 5; i++ {
		if err := s1.Put(chunkstore.Key{Blob: 1, ID: i}, []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	s2 := openDisk(t, dir)
	if s2.Len() != 5 {
		t.Errorf("reopened Len = %d, want 5", s2.Len())
	}
	if s2.UsedBytes() != 10 {
		t.Errorf("reopened UsedBytes = %d, want 10", s2.UsedBytes())
	}
	got, err := s2.Get(chunkstore.Key{Blob: 1, ID: 3})
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
					k := chunkstore.Key{Blob: 1, ID: uint64(i)}
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

func TestUsedBytesAccounting(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var want int64
			for i := 0; i < 20; i++ {
				data := make([]byte, i*13)
				if err := s.Put(chunkstore.Key{Blob: 2, ID: uint64(i)}, data); err != nil {
					t.Fatal(err)
				}
				want += int64(len(data))
			}
			if s.UsedBytes() != want {
				t.Errorf("UsedBytes = %d, want %d", s.UsedBytes(), want)
			}
			// Delete half and re-check.
			for i := 0; i < 10; i++ {
				if err := s.Delete(chunkstore.Key{Blob: 2, ID: uint64(i)}); err != nil {
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

// TestDiskDurablePutSurvivesReopen: a Put that returned nil is readable
// from a fresh open of the same directory — the batch it rode was
// fdatasynced before the ack, so it is on disk, not just in the page cache.
func TestDiskDurablePutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := openDisk(t, dir)
	bodies := make(map[chunkstore.Key][]byte)
	for i := uint64(0); i < 20; i++ {
		k := chunkstore.Key{Blob: 9, ID: i}
		body := bytes.Repeat([]byte{byte(i + 1)}, int(i)*31)
		if err := s1.Put(k, body); err != nil {
			t.Fatalf("Put %v: %v", k, err)
		}
		bodies[k] = body
	}
	es := s1.EngineStats()
	if es.Field("fsyncs") == 0 {
		t.Fatal("durable Put performed no fsyncs")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDisk(t, dir)
	if s2.Len() != len(bodies) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(bodies))
	}
	for k, body := range bodies {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("reopened Get %v: %v", k, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("reopened chunk %v corrupted", k)
		}
	}
}

// TestDiskConcurrentMixedOps: puts, gets and deletes on distinct keys run
// concurrently with readers sweeping the whole index. Run under -race.
func TestDiskConcurrentMixedOps(t *testing.T) {
	s := openDisk(t, t.TempDir())
	const (
		workers = 16
		perW    = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := chunkstore.Key{Blob: uint64(w), ID: uint64(i)}
				body := []byte(fmt.Sprintf("w%d-i%d-%s", w, i, bytes.Repeat([]byte{byte(w)}, 256)))
				if err := s.Put(k, body); err != nil {
					t.Errorf("Put %v: %v", k, err)
					return
				}
				got, err := s.Get(k)
				if err != nil || !bytes.Equal(got, body) {
					t.Errorf("Get %v: %v", k, err)
					return
				}
				if i%2 == 0 {
					if err := s.Delete(k); err != nil {
						t.Errorf("Delete %v: %v", k, err)
						return
					}
					if _, err := s.Get(k); !errors.Is(err, chunkstore.ErrNotFound) {
						t.Errorf("Get after Delete %v: %v", k, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers sweeping the whole index while writers churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, k := range s.Keys() {
				s.Get(k) //nolint:errcheck // concurrent deletes make misses fine
			}
			s.UsedBytes()
			s.Len()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	want := workers * perW / 2
	if s.Len() != want {
		t.Fatalf("final Len = %d, want %d", s.Len(), want)
	}
}

// TestDiskConcurrentSameKey: identical concurrent puts of one key must all
// succeed (idempotent re-delivery) and leave exactly one durable copy.
func TestDiskConcurrentSameKey(t *testing.T) {
	s := openDisk(t, t.TempDir())
	k := chunkstore.Key{Blob: 1, ID: 1}
	body := bytes.Repeat([]byte("dup"), 100)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(k, body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent put %d: %v", i, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, err := s.Get(k)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readback: %v", err)
	}
}
