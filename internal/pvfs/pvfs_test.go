package pvfs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"

	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// ctx is the default context for test operations.
var ctx = context.Background()

const ss = 1024 // small stripe size for tests

func deploy(t *testing.T, nData int) (*Deployment, *Client) {
	t.Helper()
	d, err := Deploy(transport.NewInProc(), nData)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, d.Client()
}

func TestCreateWriteRead(t *testing.T) {
	_, c := deploy(t, 4)
	f, err := c.Create(ctx, "/ckpt/rank0.dat", ss)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xE7}, 5*ss+123)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(data)) {
		t.Errorf("Size = %d, want %d", f.Size(), len(data))
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round-trip mismatch")
	}
}

func TestStripingDistributesData(t *testing.T) {
	d, c := deploy(t, 4)
	f, err := c.Create(ctx, "/big", ss)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 8*ss), 0); err != nil {
		t.Fatal(err)
	}
	// 8 stripes over 4 servers: each server holds exactly 2.
	for i, dsrv := range d.DataServers() {
		if got := dsrv.UsedBytes(); got != 2*ss {
			t.Errorf("server %d holds %d bytes, want %d", i, got, 2*ss)
		}
	}
}

func TestUnalignedWriteAcrossStripes(t *testing.T) {
	_, c := deploy(t, 3)
	f, err := c.Create(ctx, "/u", ss)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xAA}, 3*ss)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xBB}, ss)
	if _, err := f.WriteAt(patch, ss/2); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	copy(want[ss/2:], patch)
	got := make([]byte, len(base))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("unaligned write across stripes corrupted data")
	}
}

func TestOpenExistingAndMissing(t *testing.T) {
	_, c := deploy(t, 2)
	if _, err := c.Create(ctx, "/x", ss); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "/x")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if f.Size() != 0 {
		t.Errorf("new file size = %d", f.Size())
	}
	if _, err := c.Open(ctx, "/missing"); err == nil {
		t.Error("Open of missing file succeeded")
	}
	if _, err := c.Create(ctx, "/x", ss); err == nil {
		t.Error("duplicate Create succeeded")
	}
}

func TestReadPastEnd(t *testing.T) {
	_, c := deploy(t, 2)
	f, _ := c.Create(ctx, "/s", ss)
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Errorf("ReadAt = (%d, %v), want (3, EOF)", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("read past end err = %v", err)
	}
}

func TestSparseRegionsReadZero(t *testing.T) {
	_, c := deploy(t, 3)
	f, _ := c.Create(ctx, "/sparse", ss)
	// Write at stripe 5 only; stripes 0-4 are holes.
	if _, err := f.WriteAt([]byte{0x9C}, int64(5*ss)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5*ss+1)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5*ss; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
	if got[5*ss] != 0x9C {
		t.Error("written byte lost")
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	_, c := deploy(t, 2)
	f, _ := c.Create(ctx, "/del", ss)
	f.WriteAt(bytes.Repeat([]byte{1}, 4*ss), 0)
	used, err := c.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if used != 4*ss {
		t.Fatalf("usage = %d", used)
	}
	if err := c.Unlink(ctx, "/del"); err != nil {
		t.Fatal(err)
	}
	used, err = c.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if used != 0 {
		t.Errorf("usage after unlink = %d", used)
	}
	if err := c.Unlink(ctx, "/del"); !errors.Is(err, ErrNotFound) && err == nil {
		t.Error("double unlink succeeded")
	}
}

func TestReaddir(t *testing.T) {
	_, c := deploy(t, 2)
	c.Create(ctx, "/b", ss)
	fa, _ := c.Create(ctx, "/a", ss)
	fa.WriteAt([]byte("12345"), 0)
	entries, err := c.Readdir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Path != "/a" || entries[0].Size != 5 || entries[1].Path != "/b" {
		t.Errorf("Readdir = %+v", entries)
	}
}

// TestReaddirRejectsCorruptCount: a Readdir reply whose entry count the
// frame cannot hold is an error, not a panic in make.
func TestReaddirRejectsCorruptCount(t *testing.T) {
	net := transport.NewInProc()
	srv, err := net.Listen("", func(context.Context, []byte) ([]byte, error) {
		w := wire.NewBuffer(16)
		w.PutUvarint(1 << 62)
		return w.Bytes(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Net: net, MetaAddr: srv.Addr()}
	if _, err := c.Readdir(ctx); err == nil {
		t.Fatal("oversized readdir reply accepted")
	}
}

func TestRefreshSeesOtherHandleGrowth(t *testing.T) {
	_, c := deploy(t, 2)
	f1, _ := c.Create(ctx, "/g", ss)
	f2, _ := c.Open(ctx, "/g")
	f1.WriteAt(bytes.Repeat([]byte{1}, 2*ss), 0)
	if f2.Size() != 0 {
		t.Error("stale handle saw growth without Refresh")
	}
	if err := f2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 2*ss {
		t.Errorf("after Refresh size = %d", f2.Size())
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	_, c := deploy(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := string(rune('a'+i)) + "-file"
			f, err := c.Create(ctx, path, ss)
			if err != nil {
				t.Errorf("create %s: %v", path, err)
				return
			}
			data := bytes.Repeat([]byte{byte(i + 1)}, 3*ss)
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Errorf("write %s: %v", path, err)
				return
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Errorf("read %s: %v", path, err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("%s: mismatch", path)
			}
		}(i)
	}
	wg.Wait()
}

func TestRandomizedShadowModel(t *testing.T) {
	_, c := deploy(t, 5)
	f, err := c.Create(ctx, "/rand", ss)
	if err != nil {
		t.Fatal(err)
	}
	const size = 20 * ss
	shadow := make([]byte, size)
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		off := rng.Intn(size - 1)
		n := rng.Intn(min(size-off, 4*ss)) + 1
		patch := make([]byte, n)
		rng.Read(patch)
		if _, err := f.WriteAt(patch, int64(off)); err != nil {
			t.Fatal(err)
		}
		copy(shadow[off:], patch)
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// The shadow may exceed the actual written extent; compare prefix up to
	// the file size.
	if !bytes.Equal(got[:f.Size()], shadow[:f.Size()]) {
		t.Error("content diverged from shadow model")
	}
}

func TestDefaultStripeSize(t *testing.T) {
	_, c := deploy(t, 2)
	f, err := c.Create(ctx, "/def", 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.meta.stripeSize != DefaultStripeSize {
		t.Errorf("stripeSize = %d, want %d", f.meta.stripeSize, DefaultStripeSize)
	}
}
