package mirror

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

// commitBed is a mirroring module over a repository on real sockets and a
// real directory — four data providers on seglog, two metadata providers,
// loopback TCP — whose whole device is rewritten with fresh incompressible
// bytes before every commit, so every commit ships every chunk.
type commitBed struct {
	m     *Module
	rng   *rand.Rand
	image []byte
}

func newCommitBed(tb testing.TB, imageBytes, chunk int) *commitBed {
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
	info, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, chunk)}, uint64(imageBytes))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Attach(ctx, c, blobseer.SnapshotRef{Blob: blob, Version: info.Version})
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Clone(ctx); err != nil {
		tb.Fatal(err)
	}
	return &commitBed{m: m, rng: rand.New(rand.NewSource(int64(chunk))), image: make([]byte, imageBytes)}
}

// dirty rewrites the whole device with bytes no earlier commit has seen.
func (bed *commitBed) dirty(tb testing.TB) {
	bed.rng.Read(bed.image)
	if _, err := bed.m.WriteAt(bed.image, 0); err != nil {
		tb.Fatal(err)
	}
}

// commit is the COMMIT ioctl: capture, fingerprint, probe, upload, publish.
func (bed *commitBed) commit(tb testing.TB) {
	if _, err := bed.m.Commit(ctx); err != nil {
		tb.Fatal(err)
	}
}

// rewrite writes the previous round's chunk bodies back at shuffled chunk
// indices — the same state, moved — so every commit's bodies are byte-equal
// to the ones the commit before it hashed.
func (bed *commitBed) rewrite(tb testing.TB, chunk int) {
	prev := bytes.Clone(bed.image)
	n := len(bed.image) / chunk
	for i, j := range bed.rng.Perm(n) {
		copy(bed.image[i*chunk:(i+1)*chunk], prev[j*chunk:(j+1)*chunk])
	}
	if _, err := bed.m.WriteAt(bed.image, 0); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCommitTCP commits a fully dirty device over loopback TCP to
// seglog on a real directory: 32 MiB at the paper's 256 KiB stripe, and the
// 2 MiB of 16 KiB chunks of a metadata-heavy incremental checkpoint, both
// with fresh bytes every round; and 32 MiB whose rounds rewrite the previous
// round's bodies at shuffled indices, which the providers already hold and
// the module's fingerprint memo answers without hashing.
func BenchmarkCommitTCP(b *testing.B) {
	for _, tc := range []struct {
		image, chunk int
		rewrite      bool
	}{{32 << 20, 256 << 10, false}, {2 << 20, 16 << 10, false}, {32 << 20, 256 << 10, true}} {
		name := fmt.Sprintf("chunk=%dKiB", tc.chunk>>10)
		if tc.rewrite {
			name += "/rewrite"
		}
		b.Run(name, func(b *testing.B) {
			bed := newCommitBed(b, tc.image, tc.chunk)
			bed.dirty(b)
			bed.commit(b) // connections dialled, chunks materialized, buffers pooled
			b.SetBytes(int64(tc.image))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if tc.rewrite {
					bed.rewrite(b, tc.chunk)
				} else {
					bed.dirty(b)
				}
				b.StartTimer()
				bed.commit(b)
			}
		})
	}
}

// TestCommitCopyBudget is the write path's copy budget as a regression gate:
// client and providers run in this one process, and between the guest's
// dirty chunk and the provider's log a committed byte may be allocated at
// most 2.25 times over. It is allocated twice — the request frame, and the
// server's read of that frame (transport.Network.Call takes one []byte) —
// and the rest is the log's pooled batch buffer, fingerprints, metadata and
// slack; the capture hands the guest's own buffers over and allocates an
// index. The copy the capture used to make is now the guest's: rewriting a
// captured chunk gives it a fresh buffer. So the whole round — dirty the
// device, then commit — has a budget too, 3.25, which keeps that copy from
// quietly becoming two.
func TestCommitCopyBudget(t *testing.T) {
	const commitBudget, roundBudget, imageBytes, chunk = 2.25, 3.25, 32 << 20, 256 << 10
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random: the segment log's batch buffers are reallocated")
	}
	bed := newCommitBed(t, imageBytes, chunk)
	bed.dirty(t)
	bed.commit(t)
	// The best of three rounds: a collection that empties the log's buffer
	// pool mid-commit costs a commit up to one fresh batch buffer per
	// provider, which is the collector's timing, not a copy.
	bestCommit, bestRound := 0.0, 0.0
	for round := 0; round < 3; round++ {
		var before, dirtied, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bed.dirty(t)
		runtime.ReadMemStats(&dirtied)
		bed.commit(t)
		runtime.ReadMemStats(&after)
		commit := float64(after.TotalAlloc-dirtied.TotalAlloc) / imageBytes
		whole := float64(after.TotalAlloc-before.TotalAlloc) / imageBytes
		t.Logf("chunk %d KiB: %.2f bytes allocated per dirty byte by the commit, %.2f by the round, %d mallocs per chunk",
			chunk>>10, commit, whole, (after.Mallocs-dirtied.Mallocs)/(imageBytes/chunk))
		if round == 0 || commit < bestCommit {
			bestCommit = commit
		}
		if round == 0 || whole < bestRound {
			bestRound = whole
		}
	}
	if bestCommit > commitBudget {
		t.Errorf("chunk %d KiB: commit allocated %.2f bytes per dirty byte at best, budget %.2f", chunk>>10, bestCommit, commitBudget)
	}
	if bestRound > roundBudget {
		t.Errorf("chunk %d KiB: dirty + commit allocated %.2f bytes per dirty byte at best, budget %.2f", chunk>>10, bestRound, roundBudget)
	}
}
