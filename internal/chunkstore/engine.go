package chunkstore

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
