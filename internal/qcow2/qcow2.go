// Package qcow2 implements a qcow2-style copy-on-write virtual disk image,
// the baseline snapshotting mechanism the paper compares against.
//
// The format follows qcow2's structure: the image is divided into clusters;
// a two-level table (L1 -> L2 -> data cluster) maps virtual clusters to
// physical clusters inside the image file; unallocated clusters read through
// to an optional read-only backing image (or as zeros). Writes allocate
// clusters on demand, growing the file — which is exactly why the
// qcow2-disk baseline's snapshot cost grows over time: the whole (growing)
// image file must be copied to the parallel file system at every checkpoint.
//
// Internal snapshots (the savevm path of the qcow2-full baseline) copy the
// L1 table and bump per-cluster reference counts, making subsequent writes
// copy-on-write; the VM device state is stored inside the image next to the
// snapshot record.
//
// The on-file layout is our own (little-endian, rebuilt refcounts), but the
// mechanisms — cluster granularity, two-level lookup, backing files, COW
// after snapshot, file growth — match qcow2, so the baseline's performance
// shape is preserved.
package qcow2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"blobcr/internal/vdisk"
)

// Backend is the file-like storage under an image: an *os.File or a
// vdisk.Buffer.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Size() int64
	Sync() error
}

const (
	magic         = 0x51474f32 // "QGO2"
	formatVersion = 1
	headerSize    = 512
	// DefaultClusterSize matches qcow2's default of 64 KiB.
	DefaultClusterSize = 64 * 1024
	maxNameLen         = 255
)

// Common errors.
var (
	ErrBadImage         = errors.New("qcow2: not a valid image")
	ErrSnapshotNotFound = errors.New("qcow2: snapshot not found")
	ErrSnapshotExists   = errors.New("qcow2: snapshot name already exists")
)

// snapshot is one internal snapshot record.
type snapshot struct {
	name       string
	l1Offset   uint64 // physical offset of this snapshot's L1 copy
	vmstateOff uint64 // physical offset of the saved VM state (0 = none)
	vmstateLen uint64
	recOffset  uint64 // physical offset of the record itself
	next       uint64 // offset of the next record (0 = end of chain)
}

// Image is an open copy-on-write image.
type Image struct {
	mu          sync.Mutex
	b           Backend
	backing     vdisk.Device // read-only base image; may be nil
	backingName string

	clusterSize uint64
	virtualSize uint64
	l1Offset    uint64
	l1          []uint64 // active mapping; entry 0 = unallocated
	snapHead    uint64
	snaps       []snapshot

	refcnt   map[uint64]int // physical cluster offset -> references
	freeList []uint64
	nextFree uint64 // physical end of file
}

// Create initializes a new image on b with the given cluster size (0 means
// DefaultClusterSize), virtual disk size, and optional backing device. The
// backingName is recorded in the header for bookkeeping.
func Create(b Backend, clusterSize int, virtualSize int64, backing vdisk.Device, backingName string) (*Image, error) {
	if clusterSize == 0 {
		clusterSize = DefaultClusterSize
	}
	if clusterSize < headerSize || clusterSize&(clusterSize-1) != 0 {
		return nil, fmt.Errorf("qcow2: cluster size %d must be a power of two >= %d", clusterSize, headerSize)
	}
	if virtualSize < 0 {
		return nil, errors.New("qcow2: negative virtual size")
	}
	if len(backingName) > maxNameLen {
		return nil, errors.New("qcow2: backing name too long")
	}
	if backing != nil && backing.Size() > virtualSize {
		return nil, fmt.Errorf("qcow2: backing (%d bytes) larger than virtual size (%d)", backing.Size(), virtualSize)
	}
	cs := uint64(clusterSize)
	img := &Image{
		b:           b,
		backing:     backing,
		backingName: backingName,
		clusterSize: cs,
		virtualSize: uint64(virtualSize),
		refcnt:      make(map[uint64]int),
	}
	nVirtual := ceilDiv(img.virtualSize, cs)
	l1Entries := ceilDiv(nVirtual, img.entriesPerL2()) // one L1 entry per L2 table
	img.l1 = make([]uint64, l1Entries)
	l1Clusters := ceilDiv(l1Entries*8, cs)
	if l1Clusters == 0 {
		l1Clusters = 1
	}
	img.l1Offset = cs // cluster 0 is the header
	img.nextFree = cs * (1 + l1Clusters)
	if err := b.Truncate(int64(img.nextFree)); err != nil {
		return nil, fmt.Errorf("qcow2: allocate header+L1: %w", err)
	}
	if err := img.writeHeader(); err != nil {
		return nil, err
	}
	if err := img.writeL1(); err != nil {
		return nil, err
	}
	return img, nil
}

// Open loads an existing image from b. The backing device must be supplied
// by the caller if the image was created with one (the header records the
// name so callers can locate it).
func Open(b Backend, backing vdisk.Device) (*Image, error) {
	hdr := make([]byte, headerSize)
	if err := vdisk.ReadFull(b, hdr, 0); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadImage, err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if v := le.Uint32(hdr[4:]); v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadImage, v)
	}
	img := &Image{
		b:           b,
		backing:     backing,
		clusterSize: le.Uint64(hdr[8:]),
		virtualSize: le.Uint64(hdr[16:]),
		l1Offset:    le.Uint64(hdr[24:]),
		snapHead:    le.Uint64(hdr[40:]),
		nextFree:    le.Uint64(hdr[48:]),
		refcnt:      make(map[uint64]int),
	}
	l1Entries := le.Uint64(hdr[32:])
	nameLen := int(le.Uint16(hdr[56:]))
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("%w: backing name length %d", ErrBadImage, nameLen)
	}
	img.backingName = string(hdr[58 : 58+nameLen])
	// Every table, record and extent the header names must lie inside the
	// file: an image read back from elsewhere may be damaged, and nothing is
	// allocated on the strength of a size the file cannot back.
	size := uint64(b.Size())
	if img.clusterSize < headerSize || img.clusterSize&(img.clusterSize-1) != 0 || img.clusterSize > size {
		return nil, fmt.Errorf("%w: cluster size %d", ErrBadImage, img.clusterSize)
	}
	if !fits(img.l1Offset, l1Entries, 8, size) {
		return nil, fmt.Errorf("%w: L1 table of %d entries at %d does not fit in %d bytes", ErrBadImage, l1Entries, img.l1Offset, size)
	}
	if img.nextFree > size {
		return nil, fmt.Errorf("%w: allocation end %d past the %d-byte file", ErrBadImage, img.nextFree, size)
	}
	img.l1 = make([]uint64, l1Entries)
	l1Bytes := make([]byte, l1Entries*8)
	if err := vdisk.ReadFull(b, l1Bytes, int64(img.l1Offset)); err != nil {
		return nil, fmt.Errorf("%w: read L1: %v", ErrBadImage, err)
	}
	for i := range img.l1 {
		img.l1[i] = le.Uint64(l1Bytes[i*8:])
	}
	if err := img.loadSnapshots(); err != nil {
		return nil, err
	}
	if err := img.rebuildRefcounts(); err != nil {
		return nil, err
	}
	return img, nil
}

func (img *Image) entriesPerL2() uint64 { return img.clusterSize / 8 }

// fits reports whether n items of width bytes starting at off end within
// size bytes, without overflow.
func fits(off, n, width, size uint64) bool {
	return off <= size && n <= (size-off)/width
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// --- header / L1 / snapshot-record persistence ---

func (img *Image) writeHeader() error {
	hdr := make([]byte, headerSize)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magic)
	le.PutUint32(hdr[4:], formatVersion)
	le.PutUint64(hdr[8:], img.clusterSize)
	le.PutUint64(hdr[16:], img.virtualSize)
	le.PutUint64(hdr[24:], img.l1Offset)
	le.PutUint64(hdr[32:], uint64(len(img.l1)))
	le.PutUint64(hdr[40:], img.snapHead)
	le.PutUint64(hdr[48:], img.nextFree)
	le.PutUint16(hdr[56:], uint16(len(img.backingName)))
	copy(hdr[58:], img.backingName)
	if _, err := img.b.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("qcow2: write header: %w", err)
	}
	return nil
}

func (img *Image) writeL1() error {
	return img.writeL1At(img.l1, img.l1Offset)
}

func (img *Image) writeL1At(table []uint64, off uint64) error {
	buf := make([]byte, len(table)*8)
	for i, e := range table {
		binary.LittleEndian.PutUint64(buf[i*8:], e)
	}
	if _, err := img.b.WriteAt(buf, int64(off)); err != nil {
		return fmt.Errorf("qcow2: write L1 table: %w", err)
	}
	return nil
}

// snapshot record layout: magic-free, length-checked:
//
//	nameLen u16, name, l1Offset u64, vmstateOff u64, vmstateLen u64, next u64
func (img *Image) writeSnapshotRecord(s *snapshot) error {
	buf := make([]byte, 2+len(s.name)+32)
	le := binary.LittleEndian
	le.PutUint16(buf[0:], uint16(len(s.name)))
	copy(buf[2:], s.name)
	p := 2 + len(s.name)
	le.PutUint64(buf[p:], s.l1Offset)
	le.PutUint64(buf[p+8:], s.vmstateOff)
	le.PutUint64(buf[p+16:], s.vmstateLen)
	le.PutUint64(buf[p+24:], s.next)
	if _, err := img.b.WriteAt(buf, int64(s.recOffset)); err != nil {
		return fmt.Errorf("qcow2: write snapshot record: %w", err)
	}
	return nil
}

func (img *Image) loadSnapshots() error {
	img.snaps = nil
	size := uint64(img.b.Size())
	seen := make(map[uint64]bool)
	off := img.snapHead
	for off != 0 {
		if seen[off] {
			return fmt.Errorf("%w: snapshot chain revisits offset %d", ErrBadImage, off)
		}
		seen[off] = true
		if !fits(off, 2+32, 1, size) {
			return fmt.Errorf("%w: snapshot record at %d past the %d-byte file", ErrBadImage, off, size)
		}
		head := make([]byte, 2)
		if err := vdisk.ReadFull(img.b, head, int64(off)); err != nil {
			return fmt.Errorf("%w: snapshot record: %v", ErrBadImage, err)
		}
		nameLen := int(binary.LittleEndian.Uint16(head))
		if nameLen > maxNameLen {
			return fmt.Errorf("%w: snapshot name length %d", ErrBadImage, nameLen)
		}
		rest := make([]byte, nameLen+32)
		if err := vdisk.ReadFull(img.b, rest, int64(off)+2); err != nil {
			return fmt.Errorf("%w: snapshot record body: %v", ErrBadImage, err)
		}
		le := binary.LittleEndian
		s := snapshot{
			name:       string(rest[:nameLen]),
			l1Offset:   le.Uint64(rest[nameLen:]),
			vmstateOff: le.Uint64(rest[nameLen+8:]),
			vmstateLen: le.Uint64(rest[nameLen+16:]),
			next:       le.Uint64(rest[nameLen+24:]),
			recOffset:  off,
		}
		if !fits(s.l1Offset, uint64(len(img.l1)), 8, size) || !fits(s.vmstateOff, s.vmstateLen, 1, size) {
			return fmt.Errorf("%w: snapshot %q names an extent past the %d-byte file", ErrBadImage, s.name, size)
		}
		img.snaps = append(img.snaps, s)
		off = s.next
	}
	return nil
}

// readL1Copy loads a snapshot's L1 table.
func (img *Image) readL1Copy(off uint64) ([]uint64, error) {
	table := make([]uint64, len(img.l1))
	buf := make([]byte, len(table)*8)
	if err := vdisk.ReadFull(img.b, buf, int64(off)); err != nil {
		return nil, fmt.Errorf("qcow2: read snapshot L1: %w", err)
	}
	for i := range table {
		table[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return table, nil
}

// --- refcount management ---
//
// Invariant: refcnt[L2 cluster] = number of L1 tables (active + snapshot
// copies) referencing it; refcnt[data cluster] = number of existing L2
// tables referencing it. Snapshot/restore operations therefore touch only
// L2 refcounts; data refcounts change only when an L2 table is copied or
// dies.

// addTableRefs adds delta to the refcount of every L2 table an L1 table
// references.
func (img *Image) addTableRefs(l1 []uint64, delta int) {
	for _, l2off := range l1 {
		if l2off != 0 {
			img.refcnt[l2off] += delta
		}
	}
}

func (img *Image) rebuildRefcounts() error {
	img.refcnt = make(map[uint64]int)
	tables := [][]uint64{img.l1}
	for _, s := range img.snaps {
		img.refClusterRange(s.recOffset, uint64(2+len(s.name)+32), 1)
		img.refClusterRange(s.l1Offset, uint64(len(img.l1)*8), 1)
		if s.vmstateLen > 0 {
			img.refClusterRange(s.vmstateOff, s.vmstateLen, 1)
		}
		l1c, err := img.readL1Copy(s.l1Offset)
		if err != nil {
			return err
		}
		tables = append(tables, l1c)
	}
	// L2 refcounts: one per referencing L1 table.
	uniqueL2 := make(map[uint64]struct{})
	for _, table := range tables {
		img.addTableRefs(table, 1)
		for _, l2off := range table {
			if l2off != 0 {
				uniqueL2[l2off] = struct{}{}
			}
		}
	}
	// Data refcounts: one per referencing L2 table (each distinct table
	// counted once, regardless of how many L1 tables share it).
	for l2off := range uniqueL2 {
		l2, err := img.readL2(l2off)
		if err != nil {
			return err
		}
		for _, dataOff := range l2 {
			if dataOff != 0 {
				img.refcnt[dataOff]++
			}
		}
	}
	// Reconstruct the free list: clusters between the metadata area and
	// nextFree with zero references are free.
	firstAlloc := img.l1Offset + ceilDiv(uint64(len(img.l1)*8), img.clusterSize)*img.clusterSize
	for off := firstAlloc; off < img.nextFree; off += img.clusterSize {
		if img.refcnt[off] == 0 {
			img.freeList = append(img.freeList, off)
		}
	}
	return nil
}

// refClusterRange adds delta references to every cluster overlapping
// [off, off+length).
func (img *Image) refClusterRange(off, length uint64, delta int) {
	if length == 0 {
		return
	}
	start := off / img.clusterSize * img.clusterSize
	end := off + length
	for c := start; c < end; c += img.clusterSize {
		img.refcnt[c] += delta
	}
}

// release drops one reference; clusters reaching zero go to the free list.
func (img *Image) release(off uint64) {
	img.refcnt[off]--
	if img.refcnt[off] <= 0 {
		delete(img.refcnt, off)
		img.freeList = append(img.freeList, off)
	}
}

// allocCluster returns a zeroed physical cluster with refcount 1.
func (img *Image) allocCluster() (uint64, error) {
	var off uint64
	if n := len(img.freeList); n > 0 {
		off = img.freeList[n-1]
		img.freeList = img.freeList[:n-1]
		// Reused clusters must read as zeros.
		zero := make([]byte, img.clusterSize)
		if _, err := img.b.WriteAt(zero, int64(off)); err != nil {
			return 0, fmt.Errorf("qcow2: zero reused cluster: %w", err)
		}
	} else {
		off = img.nextFree
		img.nextFree += img.clusterSize
		if err := img.b.Truncate(int64(img.nextFree)); err != nil {
			return 0, fmt.Errorf("qcow2: grow file: %w", err)
		}
	}
	img.refcnt[off] = 1
	return off, nil
}

// allocExtent allocates n contiguous clusters at the end of the file
// (vmstate storage), each with refcount 1.
func (img *Image) allocExtent(n uint64) (uint64, error) {
	off := img.nextFree
	img.nextFree += n * img.clusterSize
	if err := img.b.Truncate(int64(img.nextFree)); err != nil {
		return 0, fmt.Errorf("qcow2: grow file: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		img.refcnt[off+i*img.clusterSize] = 1
	}
	return off, nil
}

// --- L2 access ---

func (img *Image) readL2(off uint64) ([]uint64, error) {
	buf := make([]byte, img.clusterSize)
	if err := vdisk.ReadFull(img.b, buf, int64(off)); err != nil {
		return nil, fmt.Errorf("qcow2: read L2 at %d: %w", off, err)
	}
	table := make([]uint64, img.entriesPerL2())
	for i := range table {
		table[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return table, nil
}

// readL2Entry reads one entry of an L2 table: a guest access needs one
// mapping, not the whole table.
func (img *Image) readL2Entry(l2off uint64, idx uint64) (uint64, error) {
	var buf [8]byte
	if err := vdisk.ReadFull(img.b, buf[:], int64(l2off+idx*8)); err != nil {
		return 0, fmt.Errorf("qcow2: read L2 entry: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (img *Image) writeL2Entry(l2off uint64, idx uint64, val uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	if _, err := img.b.WriteAt(buf[:], int64(l2off+idx*8)); err != nil {
		return fmt.Errorf("qcow2: write L2 entry: %w", err)
	}
	return nil
}

// l2ForWrite returns a writable L2 table cluster for the given L1 index,
// allocating or copy-on-writing as needed.
func (img *Image) l2ForWrite(l1Idx uint64) (uint64, error) {
	l2off := img.l1[l1Idx]
	if l2off == 0 {
		off, err := img.allocCluster()
		if err != nil {
			return 0, err
		}
		img.l1[l1Idx] = off
		return off, img.writeL1()
	}
	if img.refcnt[l2off] > 1 {
		// Shared with a snapshot: copy before write.
		newOff, err := img.allocCluster()
		if err != nil {
			return 0, err
		}
		buf := make([]byte, img.clusterSize)
		if err := vdisk.ReadFull(img.b, buf, int64(l2off)); err != nil {
			return 0, err
		}
		if _, err := img.b.WriteAt(buf, int64(newOff)); err != nil {
			return 0, err
		}
		// The copied L2 references the same data clusters: bump them.
		l2, err := img.readL2(newOff)
		if err != nil {
			return 0, err
		}
		for _, d := range l2 {
			if d != 0 {
				img.refcnt[d]++
			}
		}
		img.releaseL2(l2off)
		img.l1[l1Idx] = newOff
		return newOff, img.writeL1()
	}
	return l2off, nil
}

// releaseL2 drops one reference on an L2 cluster; if it dies, its data
// cluster references die with it.
func (img *Image) releaseL2(l2off uint64) {
	if img.refcnt[l2off] > 1 {
		img.refcnt[l2off]--
		return
	}
	l2, err := img.readL2(l2off)
	if err == nil {
		for _, d := range l2 {
			if d != 0 {
				img.release(d)
			}
		}
	}
	img.release(l2off)
}

// --- Device interface ---

// Size implements vdisk.Device.
func (img *Image) Size() int64 {
	img.mu.Lock()
	defer img.mu.Unlock()
	return int64(img.virtualSize)
}

// FileSize returns the physical size of the image file — the quantity the
// qcow2-disk baseline must copy to the parallel file system per checkpoint.
func (img *Image) FileSize() int64 {
	img.mu.Lock()
	defer img.mu.Unlock()
	return img.b.Size()
}

// BackingName returns the backing image name recorded in the header.
func (img *Image) BackingName() string { return img.backingName }

// ReadAt implements vdisk.Device.
func (img *Image) ReadAt(p []byte, off int64) (int, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if off < 0 || off > int64(img.virtualSize) {
		return 0, vdisk.ErrOutOfRange
	}
	total := len(p)
	if off+int64(total) > int64(img.virtualSize) {
		total = int(int64(img.virtualSize) - off)
	}
	read := 0
	for read < total {
		vOff := uint64(off) + uint64(read)
		vc := vOff / img.clusterSize
		inOff := vOff % img.clusterSize
		n := img.clusterSize - inOff
		if rem := uint64(total - read); n > rem {
			n = rem
		}
		if err := img.readCluster(vc, inOff, p[read:read+int(n)]); err != nil {
			return read, err
		}
		read += int(n)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

func (img *Image) readCluster(vc, inOff uint64, p []byte) error {
	l1Idx := vc / img.entriesPerL2()
	l2Idx := vc % img.entriesPerL2()
	if l1Idx >= uint64(len(img.l1)) {
		zero(p)
		return nil
	}
	l2off := img.l1[l1Idx]
	if l2off == 0 {
		return img.readBacking(vc, inOff, p)
	}
	dataOff, err := img.readL2Entry(l2off, l2Idx)
	if err != nil {
		return err
	}
	if dataOff == 0 {
		return img.readBacking(vc, inOff, p)
	}
	return vdisk.ReadFull(img.b, p, int64(dataOff+inOff))
}

func (img *Image) readBacking(vc, inOff uint64, p []byte) error {
	if img.backing == nil {
		zero(p)
		return nil
	}
	bOff := int64(vc*img.clusterSize + inOff)
	if bOff >= img.backing.Size() {
		zero(p)
		return nil
	}
	n := len(p)
	if bOff+int64(n) > img.backing.Size() {
		n = int(img.backing.Size() - bOff)
	}
	if err := vdisk.ReadFull(img.backing, p[:n], bOff); err != nil {
		return fmt.Errorf("qcow2: backing read: %w", err)
	}
	zero(p[n:])
	return nil
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// WriteAt implements vdisk.Device.
func (img *Image) WriteAt(p []byte, off int64) (int, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(img.virtualSize) {
		return 0, vdisk.ErrOutOfRange
	}
	written := 0
	for written < len(p) {
		vOff := uint64(off) + uint64(written)
		vc := vOff / img.clusterSize
		inOff := vOff % img.clusterSize
		n := img.clusterSize - inOff
		if rem := uint64(len(p) - written); n > rem {
			n = rem
		}
		if err := img.writeCluster(vc, inOff, p[written:written+int(n)]); err != nil {
			return written, err
		}
		written += int(n)
	}
	return written, nil
}

func (img *Image) writeCluster(vc, inOff uint64, p []byte) error {
	l1Idx := vc / img.entriesPerL2()
	l2Idx := vc % img.entriesPerL2()
	if l1Idx >= uint64(len(img.l1)) {
		return vdisk.ErrOutOfRange
	}
	l2off, err := img.l2ForWrite(l1Idx)
	if err != nil {
		return err
	}
	dataOff, err := img.readL2Entry(l2off, l2Idx)
	if err != nil {
		return err
	}
	switch {
	case dataOff == 0:
		// Fresh allocation: fill with backing content, then overlay.
		newOff, err := img.allocCluster()
		if err != nil {
			return err
		}
		buf := make([]byte, img.clusterSize)
		if err := img.readBacking(vc, 0, buf); err != nil {
			return err
		}
		copy(buf[inOff:], p)
		if _, err := img.b.WriteAt(buf, int64(newOff)); err != nil {
			return err
		}
		return img.writeL2Entry(l2off, l2Idx, newOff)
	case img.refcnt[dataOff] > 1:
		// Shared with a snapshot: copy-on-write.
		newOff, err := img.allocCluster()
		if err != nil {
			return err
		}
		buf := make([]byte, img.clusterSize)
		if err := vdisk.ReadFull(img.b, buf, int64(dataOff)); err != nil {
			return err
		}
		copy(buf[inOff:], p)
		if _, err := img.b.WriteAt(buf, int64(newOff)); err != nil {
			return err
		}
		img.release(dataOff)
		return img.writeL2Entry(l2off, l2Idx, newOff)
	default:
		_, err := img.b.WriteAt(p, int64(dataOff+inOff))
		return err
	}
}

// Flush implements vdisk.Device: persists header and L1 and syncs the
// backend.
func (img *Image) Flush() error {
	img.mu.Lock()
	defer img.mu.Unlock()
	if err := img.writeHeader(); err != nil {
		return err
	}
	if err := img.writeL1(); err != nil {
		return err
	}
	return img.b.Sync()
}

var _ vdisk.Device = (*Image)(nil)
