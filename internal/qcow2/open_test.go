package qcow2

import (
	"encoding/binary"
	"testing"
	"time"

	"blobcr/internal/vdisk"
)

// snapshotImage returns the bytes of a small image with written data and one
// internal snapshot carrying a vmstate.
func snapshotImage(t testing.TB) []byte {
	b := vdisk.NewBuffer()
	img, err := Create(b, 512, 64*1024, nil, "base.raw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.WriteAt([]byte("qcow2 image read back"), 1000); err != nil {
		t.Fatal(err)
	}
	if err := img.Snapshot("ckpt-1", []byte("vmstate")); err != nil {
		t.Fatal(err)
	}
	if _, err := img.WriteAt([]byte("after the snapshot"), 5000); err != nil {
		t.Fatal(err)
	}
	if err := img.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, b.Size())
	if err := vdisk.ReadFull(b, out, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

func bufferOf(raw []byte) *vdisk.Buffer {
	b := vdisk.NewBuffer()
	b.WriteAt(raw, 0) //nolint:errcheck // a memory buffer grows to fit
	return b
}

// snapshotField returns the offset of a field of the image's first snapshot
// record: 0 for next, 8 for vmstateLen (see writeSnapshotRecord).
func snapshotField(raw []byte, fromEnd uint64) uint64 {
	le := binary.LittleEndian
	head := le.Uint64(raw[40:])
	nameLen := uint64(le.Uint16(raw[head:]))
	return head + 2 + nameLen + 24 - fromEnd
}

// loopSnapshotChain points the first snapshot record's next field back at
// itself.
func loopSnapshotChain(raw []byte) {
	le := binary.LittleEndian
	le.PutUint64(raw[snapshotField(raw, 0):], le.Uint64(raw[40:]))
}

// TestOpenRejectsSnapshotCycle: a snapshot record whose next field points
// back at itself is a damaged image, not an endless chain.
func TestOpenRejectsSnapshotCycle(t *testing.T) {
	raw := snapshotImage(t)
	loopSnapshotChain(raw)
	done := make(chan error, 1)
	go func() {
		_, err := Open(bufferOf(raw), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Open accepted a snapshot chain that loops back on itself")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Open did not return on a snapshot chain that loops back on itself")
	}
}

// TestOpenRejectsExtentsPastTheFile: header and snapshot fields that name
// more than the file holds are rejected before anything is sized by them.
// Each value is only just past the end, so an Open that trusts it stays cheap.
func TestOpenRejectsExtentsPastTheFile(t *testing.T) {
	le := binary.LittleEndian
	for name, corrupt := range map[string]func(raw []byte){
		"L1 entries": func(raw []byte) { le.PutUint64(raw[32:], uint64(len(raw))) },
		"L1 offset":  func(raw []byte) { le.PutUint64(raw[24:], uint64(len(raw))) },
		"cluster":    func(raw []byte) { le.PutUint64(raw[8:], 1<<20) },
		"alloc end":  func(raw []byte) { le.PutUint64(raw[48:], uint64(len(raw))+512) },
		"vmstate":    func(raw []byte) { le.PutUint64(raw[snapshotField(raw, 8):], uint64(len(raw))+1) },
	} {
		raw := snapshotImage(t)
		corrupt(raw)
		if _, err := Open(bufferOf(raw), nil); err == nil {
			t.Errorf("%s: Open accepted a field past the end of the file", name)
		}
	}
}

// FuzzQcow2Open: Open never panics, hangs or sizes an allocation by a field
// the file cannot back, and an image it accepts can be read and restored.
// The seeds are a valid image with one snapshot and the same image with its
// snapshot chain looped.
func FuzzQcow2Open(f *testing.F) {
	valid := snapshotImage(f)
	looped := append([]byte(nil), valid...)
	loopSnapshotChain(looped)
	f.Add(valid)
	f.Add(looped)
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := Open(bufferOf(raw), nil)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		img.ReadAt(buf, 0) //nolint:errcheck // damaged tables may fail reads; they must not panic
		for _, s := range img.Snapshots() {
			img.RestoreSnapshot(s.Name) //nolint:errcheck // as above
		}
	})
}
