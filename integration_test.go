package blobcr_test

// Full-stack integration tests over real TCP sockets: the same wiring the
// cmd/ daemons use — a BlobSeer deployment, the mirroring module, a booted
// VM with a guest file system, and the checkpointing proxy — exercised end
// to end, including failure rollback and snapshot garbage collection.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/guestfs"
	"blobcr/internal/mirror"
	"blobcr/internal/proxy"
	"blobcr/internal/transport"
	"blobcr/internal/vm"
)

const itChunk = 4096

var itCtx = context.Background()

// tcpStack deploys BlobSeer over TCP and uploads a formatted base image.
func tcpStack(t *testing.T) (*transport.TCP, *blobseer.Deployment, *blobseer.Client, blobseer.SnapshotRef) {
	t.Helper()
	net := transport.NewTCP()
	t.Cleanup(func() { net.Close() })
	d, err := blobseer.Deploy(net, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	base, err := c.CreateBlob(itCtx, itChunk)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteAt(itCtx, base, 0, make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return net, d, c, blobseer.SnapshotRef{Blob: base, Version: info.Version}
}

func TestTCPEndToEndCheckpointRestart(t *testing.T) {
	net, _, c, baseRef := tcpStack(t)

	// Node agent: attach mirror, boot VM, register with a TCP proxy.
	mod, err := mirror.Attach(itCtx, c, baseRef)
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("it-vm", mod, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}
	p := proxy.New()
	p.Register("it-vm", "tok", inst, mod)
	srv, err := p.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := &proxy.Client{Net: net, Addr: srv.Addr(), VMID: "it-vm", Token: "tok"}

	// Guest computes and checkpoints through the TCP proxy.
	if err := inst.FS().WriteFile("/result", []byte("computed over TCP")); err != nil {
		t.Fatal(err)
	}
	ref, err := pc.RequestCheckpoint(itCtx)
	if err != nil {
		t.Fatalf("checkpoint over TCP: %v", err)
	}

	// Post-checkpoint damage, then a "failure".
	inst.FS().WriteFile("/result", []byte("corrupted"))
	inst.Kill()

	// Restart on a "different node": new mirror over TCP from the snapshot.
	mod2, err := mirror.AttachCheckpoint(itCtx, c, ref)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := vm.New("it-vm", mod2, vm.Config{BlockSize: 512})
	if err := inst2.Boot(); err != nil {
		t.Fatal(err)
	}
	got, err := inst2.FS().ReadFile("/result")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "computed over TCP" {
		t.Errorf("rollback over TCP returned %q", got)
	}
	if err := inst2.FS().Fsck(); err != nil {
		t.Errorf("restored guest fs inconsistent: %v", err)
	}
}

func TestTCPSnapshotDownloadAndInspect(t *testing.T) {
	net, _, c, baseRef := tcpStack(t)
	_ = net

	mod, err := mirror.Attach(itCtx, c, baseRef)
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("dl-vm", mod, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}
	inst.FS().MkdirAll("/data")
	inst.FS().WriteFile("/data/answer", []byte("42"))
	if err := mod.Clone(itCtx); err != nil {
		t.Fatal(err)
	}
	info, err := mod.Commit(itCtx)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := mod.CheckpointImage()

	// Download the snapshot as a standalone raw image (blobcr-ctl download).
	raw, err := c.ReadVersion(itCtx, blobseer.SnapshotRef{Blob: ckpt, Version: info.Version}, 0, uint64(mod.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != mod.Size() {
		t.Fatalf("downloaded %d bytes, want %d", len(raw), mod.Size())
	}
	// The raw bytes are a mountable file system.
	dev := memDevice(raw)
	fs, err := guestfs.Mount(dev)
	if err != nil {
		t.Fatalf("downloaded image does not mount: %v", err)
	}
	got, err := fs.ReadFile("/data/answer")
	if err != nil || string(got) != "42" {
		t.Errorf("inspect downloaded image: %q, %v", got, err)
	}
}

// memDevice wraps raw bytes as a vdisk.Device.
func memDevice(raw []byte) *deviceBytes { return &deviceBytes{b: raw} }

type deviceBytes struct{ b []byte }

func (d *deviceBytes) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(d.b)) {
		return 0, fmt.Errorf("eof")
	}
	n := copy(p, d.b[off:])
	return n, nil
}
func (d *deviceBytes) WriteAt(p []byte, off int64) (int, error) {
	n := copy(d.b[off:], p)
	return n, nil
}
func (d *deviceBytes) Size() int64  { return int64(len(d.b)) }
func (d *deviceBytes) Flush() error { return nil }

func TestTCPMultiVMConcurrentCheckpoints(t *testing.T) {
	net, _, c, baseRef := tcpStack(t)

	const nVMs = 4
	type unit struct {
		inst *vm.Instance
		pc   *proxy.Client
	}
	var units []unit
	p := proxy.New()
	srv, err := p.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < nVMs; i++ {
		mod, err := mirror.Attach(itCtx, c, baseRef)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("vm-%d", i)
		inst := vm.New(id, mod, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
		if err := inst.Boot(); err != nil {
			t.Fatal(err)
		}
		inst.FS().WriteFile("/rank", []byte{byte(i)})
		p.Register(id, "tok", inst, mod)
		units = append(units, unit{inst, &proxy.Client{Net: net, Addr: srv.Addr(), VMID: id, Token: "tok"}})
	}

	// Concurrent checkpoint requests, as a global checkpoint issues them.
	type result struct {
		ref blobseer.SnapshotRef
		err error
	}
	results := make(chan result, nVMs)
	for _, u := range units {
		u := u
		go func() {
			ref, err := u.pc.RequestCheckpoint(itCtx)
			results <- result{ref, err}
		}()
	}
	seen := map[uint64]bool{}
	for i := 0; i < nVMs; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent checkpoint: %v", r.err)
		}
		if seen[r.ref.Blob] {
			t.Errorf("two VMs share checkpoint image %d", r.ref.Blob)
		}
		seen[r.ref.Blob] = true
		// Each snapshot holds its own VM's rank file.
		raw, err := c.ReadVersion(itCtx, r.ref, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			t.Error("empty snapshot")
		}
	}
}

func TestTCPGarbageCollectionAfterCheckpoints(t *testing.T) {
	net, d, c, baseRef := tcpStack(t)
	_ = net

	mod, err := mirror.Attach(itCtx, c, baseRef)
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("gc-vm", mod, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := mod.Clone(itCtx); err != nil {
		t.Fatal(err)
	}
	var last blobseer.VersionInfo
	for i := 0; i < 5; i++ {
		inst.FS().WriteFile("/state", bytes.Repeat([]byte{byte(i + 1)}, 64*1024))
		inst.FS().Sync()
		last, err = mod.Commit(itCtx)
		if err != nil {
			t.Fatal(err)
		}
	}
	ckpt, _ := mod.CheckpointImage()
	_, chunksBefore, err := c.Usage(itCtx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := c.RetireStats(itCtx, ckpt, last.Version)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.GC(itCtx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if retired.ReclaimedChunks+stats.DeletedChunks == 0 {
		t.Error("Retire + GC over TCP reclaimed nothing")
	}
	_, chunksAfter, err := c.Usage(itCtx, d.DataAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if chunksAfter >= chunksBefore {
		t.Errorf("chunks %d -> %d", chunksBefore, chunksAfter)
	}
	// The surviving snapshot still boots.
	mod2, err := mirror.AttachCheckpoint(itCtx, c, blobseer.SnapshotRef{Blob: ckpt, Version: last.Version})
	if err != nil {
		t.Fatal(err)
	}
	inst2 := vm.New("gc-vm2", mod2, vm.Config{BlockSize: 512})
	if err := inst2.Boot(); err != nil {
		t.Fatalf("boot after GC: %v", err)
	}
	got, err := inst2.FS().ReadFile("/state")
	if err != nil || got[0] != 5 {
		t.Errorf("state after GC: %v, %v", got[:min(4, len(got))], err)
	}
}
