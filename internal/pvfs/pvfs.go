// Package pvfs implements a PVFS-style user-level parallel file system: one
// metadata server plus N data servers, with file contents striped
// round-robin across the data servers in fixed-size units.
//
// This is the storage substrate of the paper's qcow2-over-PVFS baselines:
// local qcow2 images are copied into PVFS at every checkpoint, and full-VM
// snapshots are stored there. As in PVFS, all metadata operations go through
// the single metadata server, and concurrent writers share the same fixed
// set of data servers — the contention behaviour that shapes Figures 2-3.
package pvfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// DefaultStripeSize matches the paper's configuration (256 KB).
const DefaultStripeSize = 256 * 1024

// Errors returned by the client. ErrNotFound satisfies
// errors.Is(err, transport.ErrNotFound), so the condition survives the wire.
var (
	ErrNotFound error = transport.NotFoundError("pvfs: file not found")
	ErrExists         = errors.New("pvfs: file already exists")
)

// Op codes: metadata server.
const (
	opCreate = iota + 1
	opStat
	opUnlink
	opReaddir
	opSetSize
)

// Op codes: data server.
const (
	opStripePut = iota + 32
	opStripeGet
	opStripeDel
	opUsage
)

// fileMeta is the metadata server's record of one file.
type fileMeta struct {
	id         uint64
	size       uint64
	stripeSize uint64
	firstSrv   uint32 // index of the data server holding stripe 0
}

// MetadataServer manages the PVFS namespace. All lookups and size updates
// serialize here — the central coordination point the paper contrasts with
// BlobSeer's decentralized metadata.
type MetadataServer struct {
	mu      sync.Mutex
	files   map[string]*fileMeta
	nextID  uint64
	nextSrv uint32
	nSrv    uint32
}

// NewMetadataServer returns a metadata server for a deployment with nData
// data servers.
func NewMetadataServer(nData int) *MetadataServer {
	return &MetadataServer{files: make(map[string]*fileMeta), nextID: 1, nSrv: uint32(nData)}
}

// Serve binds the metadata server to addr on n.
func (ms *MetadataServer) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, ms.handle)
}

func (ms *MetadataServer) handle(_ context.Context, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := int(r.U8())
	if err := r.Err(); err != nil {
		return nil, err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	w := wire.NewBuffer(64)
	switch op {
	case opCreate:
		path := r.String()
		stripeSize := r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if stripeSize == 0 {
			stripeSize = DefaultStripeSize
		}
		if _, exists := ms.files[path]; exists {
			return nil, fmt.Errorf("%w: %s", ErrExists, path)
		}
		f := &fileMeta{id: ms.nextID, stripeSize: stripeSize, firstSrv: ms.nextSrv % ms.nSrv}
		ms.nextID++
		ms.nextSrv++
		ms.files[path] = f
		putMeta(w, f)

	case opStat:
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := ms.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		putMeta(w, f)

	case opUnlink:
		path := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := ms.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		delete(ms.files, path)
		putMeta(w, f) // caller deletes the stripes

	case opReaddir:
		if err := r.Err(); err != nil {
			return nil, err
		}
		paths := make([]string, 0, len(ms.files))
		for p := range ms.files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		w.PutUvarint(uint64(len(paths)))
		for _, p := range paths {
			w.PutString(p)
			w.PutU64(ms.files[p].size)
		}

	case opSetSize:
		path := r.String()
		size := r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		f, ok := ms.files[path]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		if size > f.size {
			f.size = size
		}
		w.PutU64(f.size)

	default:
		return nil, fmt.Errorf("pvfs: metadata server: unknown op %d", op)
	}
	return w.Bytes(), nil
}

func putMeta(w *wire.Buffer, f *fileMeta) {
	w.PutU64(f.id)
	w.PutU64(f.size)
	w.PutU64(f.stripeSize)
	w.PutU32(f.firstSrv)
}

func getMeta(r *wire.Reader) fileMeta {
	var f fileMeta
	f.id = r.U64()
	f.size = r.U64()
	f.stripeSize = r.U64()
	f.firstSrv = r.U32()
	return f
}

// stripeKey identifies one stripe unit on a data server.
type stripeKey struct {
	file  uint64
	index uint64
}

// DataServer stores stripe units in memory.
type DataServer struct {
	mu      sync.RWMutex
	stripes map[stripeKey][]byte
	bytes   int64
}

// NewDataServer returns an empty data server.
func NewDataServer() *DataServer {
	return &DataServer{stripes: make(map[stripeKey][]byte)}
}

// Serve binds the data server to addr on n.
func (ds *DataServer) Serve(n transport.Network, addr string) (transport.Server, error) {
	return n.Listen(addr, ds.handle)
}

// UsedBytes returns the stored payload bytes (space accounting).
func (ds *DataServer) UsedBytes() int64 {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.bytes
}

func (ds *DataServer) handle(_ context.Context, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	op := int(r.U8())
	if err := r.Err(); err != nil {
		return nil, err
	}
	w := wire.NewBuffer(32)
	switch op {
	case opStripePut:
		key := stripeKey{file: r.U64(), index: r.U64()}
		inner := r.U64() // offset inside the stripe
		data := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		ds.mu.Lock()
		s := ds.stripes[key]
		end := inner + uint64(len(data))
		if end > uint64(len(s)) {
			grown := make([]byte, end)
			copy(grown, s)
			ds.bytes += int64(end) - int64(len(s))
			s = grown
		}
		copy(s[inner:], data)
		ds.stripes[key] = s
		ds.mu.Unlock()

	case opStripeGet:
		key := stripeKey{file: r.U64(), index: r.U64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		ds.mu.RLock()
		s := ds.stripes[key]
		ds.mu.RUnlock()
		w.PutBytes(s) // absent stripe reads as empty

	case opStripeDel:
		fileID := r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		ds.mu.Lock()
		for k, s := range ds.stripes {
			if k.file == fileID {
				ds.bytes -= int64(len(s))
				delete(ds.stripes, k)
			}
		}
		ds.mu.Unlock()

	case opUsage:
		if err := r.Err(); err != nil {
			return nil, err
		}
		ds.mu.RLock()
		w.PutU64(uint64(ds.bytes))
		w.PutU64(uint64(len(ds.stripes)))
		ds.mu.RUnlock()

	default:
		return nil, fmt.Errorf("pvfs: data server: unknown op %d", op)
	}
	return w.Bytes(), nil
}

// Client accesses a PVFS deployment.
type Client struct {
	Net       transport.Network
	MetaAddr  string
	DataAddrs []string
}

// File is an open PVFS file handle.
type File struct {
	c    *Client
	path string
	meta fileMeta
}

func (c *Client) callMeta(ctx context.Context, w *wire.Buffer) (*wire.Reader, error) {
	resp, err := c.Net.Call(ctx, c.MetaAddr, w.Bytes())
	if err != nil {
		return nil, err
	}
	return wire.NewReader(resp), nil
}

// Create creates a new file (stripeSize 0 selects the default).
func (c *Client) Create(ctx context.Context, path string, stripeSize uint64) (*File, error) {
	w := wire.NewBuffer(64)
	w.PutU8(opCreate)
	w.PutString(path)
	w.PutU64(stripeSize)
	r, err := c.callMeta(ctx, w)
	if err != nil {
		return nil, err
	}
	m := getMeta(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &File{c: c, path: path, meta: m}, nil
}

// Open opens an existing file.
func (c *Client) Open(ctx context.Context, path string) (*File, error) {
	w := wire.NewBuffer(64)
	w.PutU8(opStat)
	w.PutString(path)
	r, err := c.callMeta(ctx, w)
	if err != nil {
		return nil, err
	}
	m := getMeta(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &File{c: c, path: path, meta: m}, nil
}

// Unlink removes a file and its stripes.
func (c *Client) Unlink(ctx context.Context, path string) error {
	w := wire.NewBuffer(64)
	w.PutU8(opUnlink)
	w.PutString(path)
	r, err := c.callMeta(ctx, w)
	if err != nil {
		return err
	}
	m := getMeta(r)
	if err := r.Err(); err != nil {
		return err
	}
	for _, addr := range c.DataAddrs {
		dw := wire.NewBuffer(16)
		dw.PutU8(opStripeDel)
		dw.PutU64(m.id)
		if _, err := c.Net.Call(ctx, addr, dw.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// DirEntry is one Readdir result.
type DirEntry struct {
	Path string
	Size uint64
}

// Readdir lists all files.
func (c *Client) Readdir(ctx context.Context) ([]DirEntry, error) {
	w := wire.NewBuffer(8)
	w.PutU8(opReaddir)
	r, err := c.callMeta(ctx, w)
	if err != nil {
		return nil, err
	}
	// Each entry takes at least one byte, so a count the rest of the frame
	// cannot hold is corrupt: fail before allocating from it.
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("pvfs: implausible readdir count %d with %d bytes left in the frame", n, r.Remaining())
	}
	out := make([]DirEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, DirEntry{Path: r.String(), Size: r.U64()})
	}
	return out, r.Err()
}

// Usage sums stored bytes across all data servers.
func (c *Client) Usage(ctx context.Context) (uint64, error) {
	var total uint64
	for _, addr := range c.DataAddrs {
		w := wire.NewBuffer(8)
		w.PutU8(opUsage)
		resp, err := c.Net.Call(ctx, addr, w.Bytes())
		if err != nil {
			return 0, err
		}
		r := wire.NewReader(resp)
		total += r.U64()
		if err := r.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// server returns the data server address for a stripe index.
func (f *File) server(stripe uint64) string {
	n := uint64(len(f.c.DataAddrs))
	return f.c.DataAddrs[(uint64(f.meta.firstSrv)+stripe)%n]
}

// WriteAt implements io.WriterAt with round-robin striping.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pvfs: negative offset")
	}
	ss := f.meta.stripeSize
	written := 0
	for written < len(p) {
		o := uint64(off) + uint64(written)
		stripe := o / ss
		inner := o % ss
		n := ss - inner
		if rem := uint64(len(p) - written); n > rem {
			n = rem
		}
		w := wire.NewBuffer(int(n) + 40)
		w.PutU8(opStripePut)
		w.PutU64(f.meta.id)
		w.PutU64(stripe)
		w.PutU64(inner)
		w.PutBytes(p[written : written+int(n)])
		if _, err := f.c.Net.Call(context.Background(), f.server(stripe), w.Bytes()); err != nil {
			return written, err
		}
		written += int(n)
	}
	end := uint64(off) + uint64(len(p))
	if end > f.meta.size {
		w := wire.NewBuffer(64)
		w.PutU8(opSetSize)
		w.PutString(f.path)
		w.PutU64(end)
		r, err := f.c.callMeta(context.Background(), w)
		if err != nil {
			return written, err
		}
		f.meta.size = r.U64()
		if err := r.Err(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadAt implements io.ReaderAt. Reads past the end return io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pvfs: negative offset")
	}
	size := f.meta.size
	if uint64(off) >= size {
		return 0, io.EOF
	}
	total := len(p)
	if uint64(off)+uint64(total) > size {
		total = int(size - uint64(off))
	}
	ss := f.meta.stripeSize
	read := 0
	for read < total {
		o := uint64(off) + uint64(read)
		stripe := o / ss
		inner := o % ss
		n := ss - inner
		if rem := uint64(total - read); n > rem {
			n = rem
		}
		w := wire.NewBuffer(32)
		w.PutU8(opStripeGet)
		w.PutU64(f.meta.id)
		w.PutU64(stripe)
		resp, err := f.c.Net.Call(context.Background(), f.server(stripe), w.Bytes())
		if err != nil {
			return read, err
		}
		r := wire.NewReader(resp)
		data := r.Bytes()
		if err := r.Err(); err != nil {
			return read, err
		}
		dst := p[read : read+int(n)]
		var copied int
		if inner < uint64(len(data)) {
			copied = copy(dst, data[inner:])
		}
		for i := copied; i < len(dst); i++ {
			dst[i] = 0 // sparse region inside the file
		}
		read += int(n)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// Size returns the file size as of the last metadata refresh.
func (f *File) Size() int64 { return int64(f.meta.size) }

// Refresh re-reads the file metadata (size may have grown via other
// handles).
func (f *File) Refresh() error {
	nf, err := f.c.Open(context.Background(), f.path)
	if err != nil {
		return err
	}
	f.meta = nf.meta
	return nil
}

// Deployment is a running PVFS instance.
type Deployment struct {
	MetaAddr  string
	DataAddrs []string
	servers   []transport.Server
	data      []*DataServer
	net       transport.Network
}

// Deploy starts a PVFS deployment with nData data servers.
func Deploy(n transport.Network, nData int) (*Deployment, error) {
	if nData < 1 {
		return nil, errors.New("pvfs: need at least one data server")
	}
	d := &Deployment{net: n}
	ms := NewMetadataServer(nData)
	srv, err := ms.Serve(n, "")
	if err != nil {
		return nil, err
	}
	d.servers = append(d.servers, srv)
	d.MetaAddr = srv.Addr()
	for i := 0; i < nData; i++ {
		ds := NewDataServer()
		srv, err := ds.Serve(n, "")
		if err != nil {
			d.Close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.data = append(d.data, ds)
		d.DataAddrs = append(d.DataAddrs, srv.Addr())
	}
	return d, nil
}

// Client returns a client bound to this deployment.
func (d *Deployment) Client() *Client {
	return &Client{Net: d.net, MetaAddr: d.MetaAddr, DataAddrs: append([]string(nil), d.DataAddrs...)}
}

// DataServers exposes the data servers for inspection.
func (d *Deployment) DataServers() []*DataServer { return d.data }

// Close stops all servers.
func (d *Deployment) Close() {
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
}
