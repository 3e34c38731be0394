// Package vdisk defines the virtual block device abstraction shared by the
// hypervisor model, the guest file system, the mirroring module and the
// image formats, plus simple in-memory and instrumented implementations.
package vdisk

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Device is a random-access block device as the hypervisor sees it: the
// exact interface KVM has against the raw file exposed by the paper's
// FUSE-based mirroring module.
type Device interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the device size in bytes.
	Size() int64
	// Flush forces buffered state down (the guest's sync(2) path).
	Flush() error
}

// ErrOutOfRange is returned for accesses beyond the device size.
var ErrOutOfRange = errors.New("vdisk: access out of range")

// Mem is an in-memory fixed-size Device.
type Mem struct {
	mu   sync.RWMutex
	data []byte
}

// NewMem returns a zero-filled in-memory device of the given size.
func NewMem(size int64) *Mem {
	return &Mem{data: make([]byte, size)}
}

// ReadAt implements io.ReaderAt.
func (d *Mem) ReadAt(p []byte, off int64) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off < 0 || off > int64(len(d.data)) {
		return 0, fmt.Errorf("%w: read at %d, size %d", ErrOutOfRange, off, len(d.data))
	}
	n := copy(p, d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (d *Mem) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(d.data)) {
		return 0, fmt.Errorf("%w: write [%d,%d), size %d", ErrOutOfRange, off, off+int64(len(p)), len(d.data))
	}
	copy(d.data[off:], p)
	return len(p), nil
}

// Size implements Device.
func (d *Mem) Size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data))
}

// Flush implements Device (no-op for memory).
func (d *Mem) Flush() error { return nil }

// Buffer is a growable in-memory byte store implementing the file-like
// Backend interface used by image formats (an in-memory "qcow2 file").
type Buffer struct {
	mu   sync.RWMutex
	data []byte
}

// NewBuffer returns an empty Buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// ReadAt implements io.ReaderAt. Reads beyond the end return io.EOF.
func (b *Buffer) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if off < 0 {
		return 0, ErrOutOfRange
	}
	if off >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the buffer as needed.
func (b *Buffer) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, ErrOutOfRange
	}
	if grow := off + int64(len(p)) - int64(len(b.data)); grow > 0 {
		b.grow(grow)
	}
	copy(b.data[off:], p)
	return len(p), nil
}

// grow appends n zero bytes. append's amortized capacity keeps a file that
// grows a cluster at a time from being copied whole at every step.
func (b *Buffer) grow(n int64) {
	b.data = append(b.data, make([]byte, n)...)
}

// Truncate resizes the buffer.
func (b *Buffer) Truncate(size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if size < 0 {
		return ErrOutOfRange
	}
	if size <= int64(len(b.data)) {
		b.data = b.data[:size]
		return nil
	}
	b.grow(size - int64(len(b.data)))
	return nil
}

// Size returns the buffer length.
func (b *Buffer) Size() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int64(len(b.data))
}

// Sync is a no-op for memory.
func (b *Buffer) Sync() error { return nil }

// Stats counts I/O through a wrapped device; the experiments use it to
// measure how many bytes each layer actually moves.
type Stats struct {
	inner                 Device
	readOps, writeOps     atomic.Int64
	readBytes, writeBytes atomic.Int64
	flushes               atomic.Int64
}

// NewStats wraps inner with I/O counters.
func NewStats(inner Device) *Stats { return &Stats{inner: inner} }

// ReadAt implements Device.
func (s *Stats) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.inner.ReadAt(p, off)
	s.readOps.Add(1)
	s.readBytes.Add(int64(n))
	return n, err
}

// WriteAt implements Device.
func (s *Stats) WriteAt(p []byte, off int64) (int, error) {
	n, err := s.inner.WriteAt(p, off)
	s.writeOps.Add(1)
	s.writeBytes.Add(int64(n))
	return n, err
}

// Size implements Device.
func (s *Stats) Size() int64 { return s.inner.Size() }

// Flush implements Device.
func (s *Stats) Flush() error {
	s.flushes.Add(1)
	return s.inner.Flush()
}

// Counters returns (readOps, readBytes, writeOps, writeBytes, flushes).
func (s *Stats) Counters() (rOps, rBytes, wOps, wBytes, flushes int64) {
	return s.readOps.Load(), s.readBytes.Load(), s.writeOps.Load(), s.writeBytes.Load(), s.flushes.Load()
}

// ReadFull reads exactly len(p) bytes at off from d.
func ReadFull(d io.ReaderAt, p []byte, off int64) error {
	n, err := d.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

var _ Device = (*Mem)(nil)
var _ Device = (*Stats)(nil)
