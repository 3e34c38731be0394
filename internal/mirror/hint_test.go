package mirror

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// waitHint waits until the version manager holds want as the blob's hint. The
// publisher runs off the guest's I/O path, so a test that needs the published
// record waits for it to land.
func waitHint(t *testing.T, c *blobseer.Client, blob uint64, want []uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := c.GetHint(ctx, blob)
		if err == nil && slices.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hint of blob %d = %v (%v), want %v", blob, got, err, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPublisherGone waits until m's publisher goroutine has exited.
func waitPublisherGone(t testing.TB, m *Module) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		running := m.publishing
		m.mu.Unlock()
		if !running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the hint publisher never exited")
		}
		time.Sleep(time.Millisecond)
	}
}

// readChunks reads the given chunks through m and checks them against want.
func readChunks(t *testing.T, m *Module, want []byte, chunk int, indices ...int) {
	t.Helper()
	buf := make([]byte, chunk)
	for _, idx := range indices {
		n, err := m.ReadAt(buf, int64(idx*chunk))
		if err != nil && n == 0 {
			t.Fatalf("read chunk %d: %v", idx, err)
		}
		if !bytes.Equal(buf[:n], want[idx*chunk:idx*chunk+n]) {
			t.Fatalf("chunk %d read back wrong", idx)
		}
	}
}

// counting returns a cold client on d recording into a registry of its own.
func counting(d *blobseer.Deployment) (*blobseer.Client, *obs.Registry) {
	c := d.Client()
	c.Obs = obs.NewRegistry()
	return c, c.Obs
}

// TestDemandRecordAndHintReplay: what the guest needed from the repository —
// reads and the fill of a partial write, in first-need order — becomes the
// image's published hint, while a whole-chunk overwrite and an explicit
// Prefetch (and the reads it satisfies) stay out. The next Attach of the image
// replays the hint before it returns, so the guest's first reads of those
// chunks fault nothing and read the snapshot's bytes.
func TestDemandRecordAndHintReplay(t *testing.T) {
	d, c, m, content := setup(t, 16*cs)
	src := m.Source()
	readChunks(t, m, content, cs, 7, 2, 11)
	if _, err := m.WriteAt([]byte{0xEE}, 5*cs+3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(bytes.Repeat([]byte{1}, cs), 9*cs); err != nil {
		t.Fatal(err)
	}
	if err := m.Prefetch(ctx, []uint64{13, 14}); err != nil {
		t.Fatal(err)
	}
	readChunks(t, m, content, cs, 13, 15)
	waitHint(t, c, src.Blob, []uint64{7, 2, 11, 5, 15})

	c2, reg := counting(d)
	m2, err := Attach(ctx, c2, src)
	if err != nil {
		t.Fatal(err)
	}
	readChunks(t, m2, content, cs, 7, 2, 11, 5, 15)
	for name, want := range map[string]uint64{
		"mirror_demand_faults_total":        0,
		"mirror_hint_replayed_chunks_total": 5,
		"mirror_hint_hits_total":            5,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if remote, _, _ := m2.Stats(); remote != 5 {
		t.Errorf("hinted attach fetched %d chunks, want the 5 it replayed", remote)
	}
	if n := reg.Histogram("span_ns", obs.L("span", obs.SpanRestartHint)).Count(); n != 1 {
		t.Errorf("restart/hint recorded %d times, want once", n)
	}
}

// TestHintKeepsOnlyWhatTheGuestUsed: a hinted incarnation's hits enter its
// record in first-use order, a hinted chunk the guest overwrites whole or
// never touches drops out, and hits alone publish nothing — only a demand
// fault, a chunk the hint lacked, does.
func TestHintKeepsOnlyWhatTheGuestUsed(t *testing.T) {
	d, c, m, content := setup(t, 16*cs)
	src := m.Source()
	readChunks(t, m, content, cs, 7, 2, 11, 5)
	waitHint(t, c, src.Blob, []uint64{7, 2, 11, 5})

	c2, reg := counting(d)
	m2, err := Attach(ctx, c2, src)
	if err != nil {
		t.Fatal(err)
	}
	readChunks(t, m2, content, cs, 2, 7, 2)
	if _, err := m2.WriteAt(bytes.Repeat([]byte{3}, cs), 11*cs); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("mirror_hint_publishes_total").Value(); n != 0 {
		t.Fatalf("hint hits alone published %d times", n)
	}
	readChunks(t, m2, content, cs, 12)
	waitHint(t, c, src.Blob, []uint64{2, 7, 12})
	if hits := reg.Counter("mirror_hint_hits_total").Value(); hits != 2 {
		t.Errorf("mirror_hint_hits_total = %d, want 2", hits)
	}
}

// TestDemandRecordStopsAtCap: the record holds at most demandRecordBytes of
// chunks; faults past the cap are served but not recorded.
func TestDemandRecordStopsAtCap(t *testing.T) {
	const chunk = 8 << 20 // four chunks fill the record
	d, err := blobseer.Deploy(transport.NewInProc(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	// Seven holes and a one-byte tail chunk: the faults move no bodies.
	const size = 7*chunk + 1
	info, err := c.WriteVersion(ctx, blob, map[uint64][]byte{7: {0x42}}, size)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Attach(ctx, d.Client(), blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 8; idx++ {
		want := byte(0)
		if idx == 7 {
			want = 0x42
		}
		b := []byte{0xEE}
		if _, err := m.ReadAt(b, int64(idx*chunk)); err != nil || b[0] != want {
			t.Fatalf("chunk %d reads %#x (%v), want %#x", idx, b[0], err, want)
		}
	}
	waitHint(t, c, blob, []uint64{0, 1, 2, 3})
	m.mu.Lock()
	held := len(m.record)
	m.mu.Unlock()
	if held != demandRecordBytes/chunk {
		t.Errorf("record holds %d chunks, want the cap of %d", held, demandRecordBytes/chunk)
	}
}

// TestStaleAndHostileHintsReadExact: a hint naming chunks past the device's
// end (including indices whose byte offset overflows), duplicates and chunks
// that are holes in the attached snapshot is replayed for what it is worth,
// and every byte the guest reads is the snapshot's.
func TestStaleAndHostileHintsReadExact(t *testing.T) {
	d, err := blobseer.Deploy(transport.NewInProc(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	blob, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 16
	shadow := make([]byte, chunks*cs-cs/2)
	rng := rand.New(rand.NewSource(27))
	writes := make(map[uint64][]byte)
	for _, idx := range []int{1, 3, chunks - 1} {
		body := shadow[idx*cs : min((idx+1)*cs, len(shadow))]
		rng.Read(body)
		writes[uint64(idx)] = bytes.Clone(body)
	}
	info, err := c.WriteVersion(ctx, blob, writes, uint64(len(shadow)))
	if err != nil {
		t.Fatal(err)
	}
	hostile := []uint64{0, 1, 2, 3, 3, chunks, chunks + 1, 1 << 62, 1<<63 + 5, ^uint64(0), chunks - 1}
	if err := c.PutHint(ctx, blob, hostile); err != nil {
		t.Fatal(err)
	}
	c2, reg := counting(d)
	m, err := Attach(ctx, c2, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mirror_hint_replayed_chunks_total").Value(); got != 5 {
		t.Errorf("replayed %d chunks, want the 5 inside the device", got)
	}
	got := bytes.Repeat([]byte{0xEE}, len(shadow)) // stale bytes the holes must overwrite
	if n, err := m.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt: %d, %v", n, err)
	}
	if !bytes.Equal(got, shadow) {
		t.Error("the device differs from the snapshot after a hostile hint")
	}
	if faults := reg.Counter("mirror_demand_faults_total").Value(); faults != chunks-5 {
		t.Errorf("%d demand faults, want %d", faults, chunks-5)
	}
}

// TestHaltAndRollbackCloseTheRecord: after Halt or RollbackTo the module
// records and publishes nothing more, and its reads stay exact.
func TestHaltAndRollbackCloseTheRecord(t *testing.T) {
	for _, stop := range []string{"halt", "rollback"} {
		t.Run(stop, func(t *testing.T) {
			_, c, m, content := setup(t, 16*cs)
			src := m.Source()
			readChunks(t, m, content, cs, 1)
			waitHint(t, c, src.Blob, []uint64{1})
			if stop == "halt" {
				m.Halt()
			} else if err := m.RollbackTo(ctx, src); err != nil {
				t.Fatal(err)
			}
			readChunks(t, m, content, cs, 2, 3, 1)
			waitPublisherGone(t, m)
			if got, err := c.GetHint(ctx, src.Blob); err != nil || !slices.Equal(got, []uint64{1}) {
				t.Errorf("hint after %s = %v, %v; want [1]", stop, got, err)
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			if len(m.record) != 0 || m.publishing {
				t.Errorf("after %s: record %v, publisher running %v", stop, m.record, m.publishing)
			}
		})
	}
}

// TestHintRace races a guest's reads, the publisher they wake, Halt, and
// other instances attaching the same image — replaying whatever hint is
// current — and reading it whole. Run it with -race: every byte must be the
// image's.
func TestHintRace(t *testing.T) {
	const chunks = 64
	d, _, m, content := setup(t, chunks*cs)
	src := m.Source()
	rng := rand.New(rand.NewSource(8))
	order := rng.Perm(chunks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, cs)
		for i, idx := range order {
			if i == chunks/2 {
				m.Halt()
			}
			if _, err := m.ReadAt(buf, int64(idx*cs)); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, content[idx*cs:(idx+1)*cs]) {
				t.Errorf("chunk %d read back wrong beside the publisher", idx)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mi, err := Attach(ctx, d.Client(), src)
			if err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, len(content))
			if _, err := mi.ReadAt(got, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, content) {
				t.Error("an instance attached beside the publisher read the image wrong")
			}
		}()
	}
	wg.Wait()
	waitPublisherGone(t, m)
}
