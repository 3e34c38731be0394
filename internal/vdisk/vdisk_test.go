package vdisk

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestMemReadWrite(t *testing.T) {
	d := NewMem(1024)
	if d.Size() != 1024 {
		t.Fatalf("Size = %d", d.Size())
	}
	data := []byte("hello device")
	if _, err := d.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
	if err := d.Flush(); err != nil {
		t.Errorf("Flush: %v", err)
	}
}

func TestMemBounds(t *testing.T) {
	d := NewMem(100)
	if _, err := d.WriteAt([]byte{1}, 100); err == nil {
		t.Error("write past end accepted")
	}
	if _, err := d.WriteAt([]byte{1}, -1); err == nil {
		t.Error("negative write accepted")
	}
	if _, err := d.ReadAt(make([]byte, 1), 101); err == nil {
		t.Error("read past end accepted")
	}
	// Short read at the boundary returns io.EOF.
	n, err := d.ReadAt(make([]byte, 10), 95)
	if n != 5 || err != io.EOF {
		t.Errorf("boundary read = (%d, %v), want (5, EOF)", n, err)
	}
}

func TestBufferGrowsOnWrite(t *testing.T) {
	b := NewBuffer()
	if b.Size() != 0 {
		t.Fatal("new buffer not empty")
	}
	if _, err := b.WriteAt([]byte{7}, 1000); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 1001 {
		t.Errorf("Size = %d, want 1001", b.Size())
	}
	got := make([]byte, 1)
	if _, err := b.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("content lost")
	}
	// Gap reads as zero.
	if _, err := b.ReadAt(got, 500); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("gap not zero")
	}
}

func TestBufferTruncate(t *testing.T) {
	b := NewBuffer()
	b.WriteAt(bytes.Repeat([]byte{9}, 100), 0)
	if err := b.Truncate(50); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 50 {
		t.Errorf("Size = %d", b.Size())
	}
	if err := b.Truncate(80); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := b.ReadAt(got, 70); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("re-grown region not zeroed")
	}
	if err := b.Truncate(-1); err == nil {
		t.Error("negative truncate accepted")
	}
}

func TestBufferReadPastEnd(t *testing.T) {
	b := NewBuffer()
	b.WriteAt([]byte{1, 2, 3}, 0)
	if _, err := b.ReadAt(make([]byte, 1), 3); err != io.EOF {
		t.Errorf("read at end = %v, want EOF", err)
	}
	n, err := b.ReadAt(make([]byte, 10), 1)
	if n != 2 || err != io.EOF {
		t.Errorf("short read = (%d, %v)", n, err)
	}
}

func TestStatsCounters(t *testing.T) {
	d := NewStats(NewMem(1024))
	d.WriteAt(make([]byte, 100), 0)
	d.WriteAt(make([]byte, 50), 100)
	d.ReadAt(make([]byte, 30), 0)
	d.Flush()
	rOps, rBytes, wOps, wBytes, flushes := d.Counters()
	if rOps != 1 || rBytes != 30 || wOps != 2 || wBytes != 150 || flushes != 1 {
		t.Errorf("counters = %d %d %d %d %d", rOps, rBytes, wOps, wBytes, flushes)
	}
	if d.Size() != 1024 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestReadFull(t *testing.T) {
	d := NewMem(100)
	d.WriteAt(bytes.Repeat([]byte{5}, 100), 0)
	buf := make([]byte, 50)
	if err := ReadFull(d, buf, 25); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Error("content wrong")
	}
	if err := ReadFull(d, make([]byte, 50), 80); err == nil {
		t.Error("short ReadFull did not error")
	}
}

func TestQuickBufferMatchesMap(t *testing.T) {
	// Property: Buffer behaves like a sparse byte map.
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		b := NewBuffer()
		shadow := make(map[int64]byte)
		var max int64
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			if _, err := b.WriteAt(o.Data, int64(o.Off)); err != nil {
				return false
			}
			for i, v := range o.Data {
				shadow[int64(o.Off)+int64(i)] = v
			}
			if end := int64(o.Off) + int64(len(o.Data)); end > max {
				max = end
			}
		}
		if b.Size() != max {
			return false
		}
		if max == 0 {
			return true
		}
		got := make([]byte, max)
		if err := ReadFull(b, got, 0); err != nil {
			return false
		}
		for i := int64(0); i < max; i++ {
			if got[i] != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBufferRegrowReadsZeros: bytes a Truncate cut off do not come back when
// the buffer grows over them again.
func TestBufferRegrowReadsZeros(t *testing.T) {
	b := NewBuffer()
	b.WriteAt([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0) //nolint:errcheck // memory
	if err := b.Truncate(2); err != nil {
		t.Fatal(err)
	}
	b.WriteAt([]byte{9}, 5) //nolint:errcheck // memory
	if err := b.Truncate(8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := ReadFull(b, got, 0); err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 0, 0, 0, 9, 0, 0}; string(got) != string(want) {
		t.Errorf("buffer reads %v, want %v", got, want)
	}
}
