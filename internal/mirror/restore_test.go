package mirror

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

// restoreImageBytes is the image every restore below brings back.
const restoreImageBytes = 64 << 20

// restoreBed is a repository on real sockets and a real directory — four
// data providers on seglog, two metadata providers, loopback TCP — holding
// one dense image: incompressible bytes, or a dedup image's mix.
type restoreBed struct {
	d   *blobseer.Deployment
	ref blobseer.SnapshotRef
	all []uint64 // every chunk index of the image
}

// newRestoreBed holds an image whose every chunk is a unique body.
func newRestoreBed(tb testing.TB, chunk int) *restoreBed {
	return newRestoreBedOf(tb, chunk, func(rng *rand.Rand) []byte { return uniqueBody(rng, chunk) })
}

// dedupPoolBodies is the number of distinct recurring bodies in a dedup
// image.
const dedupPoolBodies = 64

// newDedupRestoreBed holds an image shaped like a rewritten application
// state: 75 % of its chunks drawn from a pool of dedupPoolBodies recurring
// bodies, 15 % all zeros and 10 % unique.
func newDedupRestoreBed(tb testing.TB, chunk int) *restoreBed {
	var pool [][]byte
	zero := make([]byte, chunk)
	return newRestoreBedOf(tb, chunk, func(rng *rand.Rand) []byte {
		for len(pool) < dedupPoolBodies {
			pool = append(pool, uniqueBody(rng, chunk))
		}
		switch p := rng.Intn(100); {
		case p < 15:
			return zero
		case p < 25:
			return uniqueBody(rng, chunk)
		default:
			return pool[rng.Intn(len(pool))]
		}
	})
}

func uniqueBody(rng *rand.Rand, chunk int) []byte {
	body := make([]byte, chunk)
	rng.Read(body)
	return body
}

// newRestoreBedOf commits an image of restoreImageBytes whose chunks body
// draws in index order.
func newRestoreBedOf(tb testing.TB, chunk int, body func(*rand.Rand) []byte) *restoreBed {
	tb.Helper()
	tcp := transport.NewTCP()
	tb.Cleanup(func() { tcp.Close() })
	stores := blobseer.SeglogStores(tb.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true})
	d, err := blobseer.DeployWith(tcp, 2, 4, stores)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	c := d.Client()
	c.Obs = obs.NewRegistry()
	blob, err := c.CreateBlob(ctx, uint64(chunk))
	if err != nil {
		tb.Fatal(err)
	}
	bed := &restoreBed{d: d}
	rng := rand.New(rand.NewSource(int64(chunk)))
	const batch = 8 << 20 // bytes per commit, so the writer's staging stays small
	for off := 0; off < restoreImageBytes; off += batch {
		writes := make(map[uint64][]byte)
		for o := off; o < off+batch; o += chunk {
			writes[uint64(o/chunk)] = body(rng)
			bed.all = append(bed.all, uint64(o/chunk))
		}
		info, err := c.WriteVersion(ctx, blob, writes, restoreImageBytes)
		if err != nil {
			tb.Fatal(err)
		}
		bed.ref = blobseer.SnapshotRef{Blob: blob, Version: info.Version}
	}
	return bed
}

// restore is what a restarted instance does to get its whole disk back: a
// cold repository client, Attach, Prefetch of every chunk. Every body is
// hashed against its leaf key on the way in.
func (bed *restoreBed) restore(tb testing.TB) *Module {
	c := bed.d.Client()
	c.Obs = obs.NewRegistry()
	m, err := Attach(ctx, c, bed.ref)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Prefetch(ctx, bed.all); err != nil {
		tb.Fatal(err)
	}
	if remote, _, _ := m.Stats(); remote != uint64(len(bed.all)) {
		tb.Fatalf("restore fetched %d of %d chunks", remote, len(bed.all))
	}
	return m
}

// BenchmarkRestoreTCP restores a 64 MiB image over loopback TCP from seglog
// on a real directory, at the paper's 256 KiB stripe and at the 16 KiB chunks
// of a metadata-heavy image, and a dedup image at 256 KiB: there the read
// engine moves each distinct body once and fetches no zero chunk, so about
// a third of the image crosses the wire.
func BenchmarkRestoreTCP(b *testing.B) {
	cases := []struct {
		name  string
		chunk int
		bed   func(testing.TB, int) *restoreBed
	}{
		{"chunk=256KiB", 256 << 10, newRestoreBed},
		{"chunk=16KiB", 16 << 10, newRestoreBed},
		{"chunk=256KiB/dedup", 256 << 10, newDedupRestoreBed},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			bed := tc.bed(b, tc.chunk)
			bed.restore(b) // connections dialled, page cache warm
			b.SetBytes(restoreImageBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.restore(b)
			}
		})
	}
}

// lazyBootChunks is BenchmarkLazyRestart's boot set: as many scattered
// chunks as the benchmark harness's lazy restart reads.
const lazyBootChunks = 64

// BenchmarkLazyRestart times what a lazy restart pays before its boot set is
// readable — Attach through a cold client, then one ReadAt per boot-set chunk
// — over loopback TCP and seglog, cold (the image has no hint, so every chunk
// is a demand fault) and hinted (Attach replays the boot set the previous
// restart published, in one prefetch).
func BenchmarkLazyRestart(b *testing.B) {
	for _, chunk := range []int{256 << 10, 16 << 10} {
		bed := newRestoreBed(b, chunk)
		var boot []uint64
		for _, p := range rand.New(rand.NewSource(0x626f6f74)).Perm(len(bed.all))[:lazyBootChunks] {
			boot = append(boot, bed.all[p])
		}
		buf := make([]byte, chunk)
		for _, mode := range []string{"cold", "hinted"} {
			b.Run(fmt.Sprintf("chunk=%dKiB/%s", chunk>>10, mode), func(b *testing.B) {
				hint := boot
				if mode == "cold" {
					hint = nil
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := bed.d.Client().PutHint(ctx, bed.ref.Blob, hint); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					m, err := Attach(ctx, bed.d.Client(), bed.ref)
					if err != nil {
						b.Fatal(err)
					}
					for _, idx := range boot {
						if _, err := m.ReadAt(buf, int64(idx)*int64(chunk)); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					// A cold restart publishes its record; let it land before the
					// next iteration resets the hint.
					waitPublisherGone(b, m)
					b.StartTimer()
				}
			})
		}
	}
}

// TestRestoreCopyBudget is the read path's copy budget as a regression gate:
// provider and client run in this one process, and between the provider's
// pread and the mirror's chunk map a restored byte may be allocated at most
// three times over — it is allocated once, in the client's receive frame,
// whose windows the mirror keeps (the provider's response frame, which
// seglog reads into directly, comes from the wire frame pool), and the rest
// is metadata, requests and slack.
// The tree this grew from allocated about eight.
func TestRestoreCopyBudget(t *testing.T) {
	const budget = 3.0
	for _, chunk := range []int{256 << 10, 16 << 10} {
		bed := newRestoreBed(t, chunk)
		bed.restore(t)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := bed.restore(t)
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / restoreImageBytes
		t.Logf("chunk %d KiB: %.2f bytes allocated per byte restored, %d mallocs per chunk",
			chunk>>10, perByte, (after.Mallocs-before.Mallocs)/uint64(len(bed.all)))
		if perByte > budget {
			t.Errorf("chunk %d KiB: %.2f bytes allocated per byte restored, budget %.1f", chunk>>10, perByte, budget)
		}
		runtime.KeepAlive(m)
	}
}
