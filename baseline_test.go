package blobcr_test

// Functional end-to-end tests of the paper's BASELINE configurations, the
// flows internal/bench measures for Figures 2-6:
//
//   - qcow2-disk: the VM's disk is a local qcow2 image backed by a base
//     image; a checkpoint copies the whole qcow2 file into PVFS as a new
//     file; restart re-creates the image from the PVFS copy.
//   - qcow2-full: savevm serializes the complete VM state into an internal
//     snapshot of the image before the copy; restart is loadvm — no reboot.
//
// These tests also demonstrate the baselines' cost structure functionally:
// the copied file grows with every checkpoint (Figure 5's mechanism), while
// BlobCR's commit stays proportional to the delta.

import (
	"bytes"
	"context"
	"testing"

	"blobcr/internal/bench"
	"blobcr/internal/blcr"
	"blobcr/internal/pvfs"
	"blobcr/internal/qcow2"
	"blobcr/internal/transport"
	"blobcr/internal/vdisk"
	"blobcr/internal/vm"
)

const (
	bCluster = 4096
	bImgSize = 1 << 20
)

// bctx is the default context for baseline test operations.
var bctx = context.Background()

// copyToPVFS is the qcow2-disk checkpoint operation (bench.CopyToPVFS).
func copyToPVFS(t *testing.T, c *pvfs.Client, backend *vdisk.Buffer, path string) int64 {
	t.Helper()
	n, err := bench.CopyToPVFS(bctx, c, backend, path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fetchFromPVFS loads a PVFS file back into a fresh image backend
// (bench.FetchFromPVFS).
func fetchFromPVFS(t *testing.T, c *pvfs.Client, path string) *vdisk.Buffer {
	t.Helper()
	out, err := bench.FetchFromPVFS(bctx, c, path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBaselineQcow2DiskCheckpointRestart(t *testing.T) {
	// PVFS deployment holding the base image and the snapshots.
	d, err := pvfs.Deploy(transport.NewInProc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pc := d.Client()

	// Base raw image shared through PVFS (here: an in-memory stand-in the
	// qcow2 image uses as its read-only backing).
	base := vdisk.NewMem(bImgSize)

	// Local qcow2 image on the compute node, backed by the base image.
	backend := vdisk.NewBuffer()
	img, err := qcow2.Create(backend, bCluster, bImgSize, base, "base.raw")
	if err != nil {
		t.Fatal(err)
	}

	inst := vm.New("q-vm", img, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}
	inst.FS().WriteFile("/state", []byte("baseline checkpoint content"))
	inst.FS().Sync()

	// Checkpoint: suspend, copy the qcow2 file to PVFS, resume.
	if err := inst.Suspend(); err != nil {
		t.Fatal(err)
	}
	img.Flush()
	copied := copyToPVFS(t, pc, backend, "/ckpt/q-vm-1.qcow2")
	if err := inst.Resume(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint damage, then failure.
	inst.FS().WriteFile("/state", []byte("damaged"))
	inst.Kill()

	// Restart on another node: fetch the snapshot file from PVFS, open it
	// over the shared base image, reboot.
	backend2 := fetchFromPVFS(t, pc, "/ckpt/q-vm-1.qcow2")
	if backend2.Size() != copied {
		t.Fatalf("fetched %d bytes, copied %d", backend2.Size(), copied)
	}
	img2, err := qcow2.Open(backend2, base)
	if err != nil {
		t.Fatalf("open snapshot from PVFS: %v", err)
	}
	inst2 := vm.New("q-vm", img2, vm.Config{BlockSize: 512})
	if err := inst2.Boot(); err != nil {
		t.Fatal(err)
	}
	got, err := inst2.FS().ReadFile("/state")
	if err != nil || string(got) != "baseline checkpoint content" {
		t.Errorf("baseline rollback: %q, %v", got, err)
	}
}

func TestBaselineQcow2DiskFileGrowsAcrossCheckpoints(t *testing.T) {
	// The Figure 5 mechanism, functionally: each checkpoint copies the
	// whole local image, which only grows; PVFS accumulates full copies.
	d, err := pvfs.Deploy(transport.NewInProc(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pc := d.Client()

	backend := vdisk.NewBuffer()
	img, err := qcow2.Create(backend, bCluster, bImgSize, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("g-vm", img, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}

	var sizes []int64
	var cumulative uint64
	for ck := 1; ck <= 3; ck++ {
		// Fresh data each round, in a new file (the guest workload dirties
		// new blocks, as the paper observes).
		inst.FS().WriteFile("/dump-"+string(rune('0'+ck)), bytes.Repeat([]byte{byte(ck)}, 64*1024))
		inst.FS().Sync()
		img.Flush()
		sizes = append(sizes, backend.Size())
		copyToPVFS(t, pc, backend, "/ckpt/g-"+string(rune('0'+ck))+".qcow2")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("qcow2 file did not grow: checkpoint %d is %d bytes, previous %d", i+1, sizes[i], sizes[i-1])
		}
	}
	cumulative, err = pc.Usage(bctx)
	if err != nil {
		t.Fatal(err)
	}
	// PVFS holds all three full copies: more than 3x the first copy.
	if cumulative < uint64(3*sizes[0]) {
		t.Errorf("PVFS holds %d bytes, want >= %d (duplicate accumulation)", cumulative, 3*sizes[0])
	}
}

func TestBaselineQcow2FullSavevmRestore(t *testing.T) {
	// qcow2-full: the whole VM (processes included) is serialized with
	// savevm into the image, the image goes to PVFS, and restart is loadvm
	// — no reboot, process state intact WITHOUT any dump files.
	d, err := pvfs.Deploy(transport.NewInProc(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pc := d.Client()

	backend := vdisk.NewBuffer()
	img, err := qcow2.Create(backend, bCluster, bImgSize, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	inst := vm.New("f-vm", img, vm.Config{BlockSize: 512, BootNoiseBytes: 4096, OSOverheadBytes: 64 * 1024})
	if err := inst.Boot(); err != nil {
		t.Fatal(err)
	}
	proc := blcr.NewProcess(1)
	heap := proc.Alloc("solver", 32*1024)
	for i := range heap {
		heap[i] = byte(i % 7)
	}
	proc.SetRegisters(blcr.Registers{PC: 5555})
	inst.AddProcess(proc)

	// savevm into the image, then copy the image to PVFS.
	if err := inst.Suspend(); err != nil {
		t.Fatal(err)
	}
	state, err := inst.SaveVM()
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Snapshot("ckpt-1", state); err != nil {
		t.Fatal(err)
	}
	img.Flush()
	diskOnly := int64(len(state))
	copyToPVFS(t, pc, backend, "/ckpt/f-vm.qcow2")
	if backend.Size() < diskOnly {
		t.Fatalf("image (%d) smaller than vmstate (%d)?", backend.Size(), diskOnly)
	}
	inst.Kill()

	// Restart: fetch image, restore the internal snapshot, loadvm, resume.
	backend2 := fetchFromPVFS(t, pc, "/ckpt/f-vm.qcow2")
	img2, err := qcow2.Open(backend2, nil)
	if err != nil {
		t.Fatal(err)
	}
	vmstate, err := img2.RestoreSnapshot("ckpt-1")
	if err != nil {
		t.Fatal(err)
	}
	inst2 := vm.New("f-vm", img2, vm.Config{})
	if err := inst2.LoadVM(vmstate); err != nil {
		t.Fatalf("loadvm: %v", err)
	}
	if err := inst2.Resume(); err != nil {
		t.Fatal(err)
	}
	// No reboot happened, and the process memory is back without any
	// checkpoint files in the guest.
	if inst2.BootCount() != 1 {
		t.Errorf("BootCount = %d; qcow2-full must resume without rebooting", inst2.BootCount())
	}
	p2, ok := inst2.Process(1)
	if !ok {
		t.Fatal("process lost through savevm/loadvm + PVFS round trip")
	}
	got, _ := p2.Arena("solver")
	if !bytes.Equal(got, heap) {
		t.Error("process memory corrupted")
	}
	if p2.Registers().PC != 5555 {
		t.Error("registers lost")
	}
	if _, err := inst2.FS().ReadDir("/ckpt"); err == nil {
		entries, _ := inst2.FS().ReadDir("/ckpt")
		if len(entries) > 0 {
			t.Error("qcow2-full should not leave dump files in the guest")
		}
	}
}
