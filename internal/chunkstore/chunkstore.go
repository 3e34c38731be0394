// Package chunkstore implements the chunk storage engine used by BlobSeer
// data providers.
//
// Chunks are immutable, fixed-size pieces of striped BLOB data, identified by
// a (blob, id) key. This package holds the Store contract, its optional
// engine extensions and the in-memory engine (tests, examples, simulation);
// the durable engine is the segment log in internal/seglog. Both are safe
// for concurrent use.
package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// Key identifies a chunk. Blob is the BLOB identifier; ID is unique within
// the blob (assigned by the writer from a version-manager ticket), so a chunk
// written by one writer is never overwritten by another.
type Key struct {
	Blob uint64
	ID   uint64
}

// String renders the key as blob-id in fixed-width hex.
func (k Key) String() string { return fmt.Sprintf("%016x-%016x", k.Blob, k.ID) }

// ErrNotFound is returned by Get and Delete for missing chunks.
var ErrNotFound = errors.New("chunkstore: chunk not found")

// ErrExists is returned by Put when the key is already stored with different
// content; chunks are immutable.
var ErrExists = errors.New("chunkstore: chunk already exists")

// Store is the chunk storage engine interface.
type Store interface {
	// Put stores an immutable chunk. Re-putting the same key is an error
	// (chunks are never overwritten); replicated re-delivery of identical
	// bytes is tolerated and returns nil. Put keeps no reference to data
	// once it returns: the data provider stores bodies that are windows of
	// a request frame it reuses for the next request.
	Put(k Key, data []byte) error
	// Get returns the chunk contents. The caller must not modify the
	// returned slice.
	Get(k Key) ([]byte, error)
	// Has reports whether the chunk is stored.
	Has(k Key) bool
	// Delete removes the chunk (used by garbage collection).
	Delete(k Key) error
	// Len returns the number of stored chunks.
	Len() int
	// UsedBytes returns the total payload bytes stored.
	UsedBytes() int64
}

// --- In-memory store ---

// Mem is an in-memory Store.
type Mem struct {
	mu    sync.RWMutex
	m     map[Key][]byte
	bytes int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[Key][]byte)} }

// Put implements Store. The data is copied.
func (s *Mem) Put(k Key, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		if bytes.Equal(old, data) {
			return nil // idempotent replica re-delivery
		}
		return fmt.Errorf("%w: %v", ErrExists, k)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[k] = cp
	s.bytes += int64(len(cp))
	return nil
}

// Get implements Store.
func (s *Mem) Get(k Key) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[k]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, k)
	}
	return data, nil
}

// Has implements Store.
func (s *Mem) Has(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[k]
	return ok
}

// Delete implements Store.
func (s *Mem) Delete(k Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[k]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, k)
	}
	s.bytes -= int64(len(data))
	delete(s.m, k)
	return nil
}

// Len implements Store.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// UsedBytes implements Store.
func (s *Mem) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns all stored chunk keys (used by garbage collection sweeps).
func (s *Mem) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Key, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}

// EngineStats implements EngineStatser.
func (s *Mem) EngineStats() EngineStats {
	s.mu.RLock()
	chunks := len(s.m)
	bytes := s.bytes
	s.mu.RUnlock()
	return EngineStats{Backend: "mem", Fields: []EngineField{
		{Name: "chunks", Value: uint64(chunks)},
		{Name: "logical_bytes", Value: uint64(bytes)},
	}}
}

// Interface conformance checks.
var (
	_ Store         = (*Mem)(nil)
	_ EngineStatser = (*Mem)(nil)
)
