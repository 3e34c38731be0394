package chunkstore

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
)

// EngineField is one named statistic of a storage engine.
type EngineField struct {
	Name  string
	Value uint64
}

// EngineStats describes a backend beyond the Store interface: which engine
// it is and its engine-specific counters (segment counts, fsyncs, dead
// bytes, ...). The field set is engine-defined; consumers render it as an
// ordered name/value list (blobcr-ctl store) or pick fields by name (the
// disklog bench reads "fsyncs" and "puts" to show group commit working).
type EngineStats struct {
	Backend string
	Fields  []EngineField
}

// Field returns the value of a named field, or 0 if the engine does not
// report it.
func (s EngineStats) Field(name string) uint64 {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Value
		}
	}
	return 0
}

// EngineStatser is implemented by backends that report engine statistics.
type EngineStatser interface {
	EngineStats() EngineStats
}

// StatsOf returns a store's engine stats, synthesizing a minimal set for
// backends that predate the interface.
func StatsOf(s Store) EngineStats {
	if es, ok := s.(EngineStatser); ok {
		return es.EngineStats()
	}
	return EngineStats{Backend: "unknown", Fields: []EngineField{
		{Name: "chunks", Value: uint64(s.Len())},
		{Name: "logical_bytes", Value: uint64(s.UsedBytes())},
	}}
}

// CompactResult reports one compaction pass.
type CompactResult struct {
	Segments       int    // segments rewritten and removed
	Relocated      int    // live records moved to the active segment
	ReclaimedBytes uint64 // net disk bytes freed
}

// Add accumulates other into r (aggregation across providers).
func (r *CompactResult) Add(o CompactResult) {
	r.Segments += o.Segments
	r.Relocated += o.Relocated
	r.ReclaimedBytes += o.ReclaimedBytes
}

// Compactor is implemented by log-structured backends whose dead bytes are
// reclaimed by an explicit pass. The repair scrubber folds CompactNow into
// its cadence; for engines with nothing to compact it is absent.
type Compactor interface {
	CompactNow() (CompactResult, error)
}

// ReaderInto is implemented by backends that can read a chunk body straight
// into memory the caller provides, saving the buffer Get has to allocate:
// the data provider reads bodies directly into its response frame.
type ReaderInto interface {
	// ReadInto reads k's body into the slice alloc returns for the body's
	// length. alloc is called at most once, and not at all for an absent
	// chunk (ErrNotFound). After an error the slice's content is undefined.
	ReadInto(k Key, alloc func(n int) []byte) error
}

// ReadInto reads k's body from s into the slice alloc returns for its
// length: directly when the backend is a ReaderInto, else through Get and
// one copy.
func ReadInto(s Store, k Key, alloc func(n int) []byte) error {
	if r, ok := s.(ReaderInto); ok {
		return r.ReadInto(k, alloc)
	}
	data, err := s.Get(k)
	if err != nil {
		return err
	}
	copy(alloc(len(data)), data)
	return nil
}

// BatchPutter is implemented by backends that make a set of chunks durable
// — or gone — together, for less than the sum of the single calls: the
// segment log boards a whole batch with one append and one fdatasync.
type BatchPutter interface {
	// PutBatch stores bodies[i] under keys[i], each with the semantics of
	// Put (an identical re-put is a no-op, different content under a stored
	// key is ErrExists), and returns once all of them are durable. After an
	// error any subset may have been stored.
	PutBatch(keys []Key, bodies [][]byte) error
	// DeleteBatch removes every key; one that is not stored is skipped, so
	// after a nil return none of them is. After an error any subset may
	// have been removed.
	DeleteBatch(keys []Key) error
}

// batchFallbackParallelism bounds the concurrent Puts PutBatch issues
// against a backend that is not a BatchPutter: enough for a group-committing
// engine behind a wrapper to still share fsyncs between them.
const batchFallbackParallelism = 16

// PutBatch stores the chunks through s's own PutBatch when it is a
// BatchPutter, else through bounded-concurrent Puts.
func PutBatch(s Store, keys []Key, bodies [][]byte) error {
	if b, ok := s.(BatchPutter); ok {
		return b.PutBatch(keys, bodies)
	}
	if len(keys) == 1 {
		return s.Put(keys[0], bodies[0])
	}
	errs := make([]error, len(keys))
	sem := make(chan struct{}, batchFallbackParallelism)
	var wg sync.WaitGroup
	for i := range keys {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(keys[i], bodies[i])
			<-sem
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DeleteBatch removes the keys through s's own DeleteBatch when it is a
// BatchPutter, else one Delete at a time, skipping absent keys alike.
func DeleteBatch(s Store, keys []Key) error {
	if b, ok := s.(BatchPutter); ok {
		return b.DeleteBatch(keys)
	}
	var errs []error
	for _, k := range keys {
		if err := s.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ForEachParallel runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, the caller's among them. It serves the CPU-bound per-item work
// of a batch — verifying or compressing each body of a put frame — so more
// goroutines would only queue, and a single item starts none.
func ForEachParallel(n int, fn func(i int)) {
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i += workers {
		fn(i)
	}
	wg.Wait()
}

// IsZero reports whether every byte of p is zero, eight bytes at a time. A
// body with a non-zero first word — nearly every non-zero body — costs one
// comparison. All-zero chunks dominate sparse VM images: the segment log
// stores them as a flag and cas.Sum answers them from a memo.
func IsZero(p []byte) bool {
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
		p = p[8:]
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
