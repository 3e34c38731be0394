package blobseer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// TestLargestBatchFrameIsPooled: the largest frame the client's batching
// builds — a cas-put-batch or a chunk-get-batch reply of batchBytesLimit of
// bodies in maxFrameItems items, sized as casPutBatch and the data provider
// size them — fits the largest pooled frame class, so no bulk frame falls
// back to a fresh allocation.
func TestLargestBatchFrameIsPooled(t *testing.T) {
	put := 16 + maxFrameItems*48 + batchBytesLimit
	reply := maxFrameItems*(1+5) + batchBytesLimit
	for name, n := range map[string]int{"cas-put-batch": put, "chunk-get-batch reply": reply} {
		if n > wire.MaxPooledFrame {
			t.Errorf("largest %s frame is %d bytes, over the largest pooled class of %d", name, n, wire.MaxPooledFrame)
		}
	}
}

// TestBulkFrameAllocBudget is the bulk path's allocation budget as a
// regression gate: 32 consecutive exchanges each of a 4 MiB cas-put-batch
// and a 4 MiB chunk-get-batch over loopback TCP, client and provider in
// this one process, allocate no more than the reply frames the client keeps
// — the bodies it delivers are windows of them — plus a constant. The put
// frame, the provider's read of it and the provider's reply are pooled;
// allocated afresh, they cost three more 4 MiB frames per exchange.
func TestBulkFrameAllocBudget(t *testing.T) {
	const exchanges, perFrame, chunk, slack = 32, 16, 256 << 10, 24 << 20
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frames at random: pooled frames are reallocated")
	}
	tcp := transport.NewTCP()
	t.Cleanup(func() { tcp.Close() })
	d, err := DeployWith(tcp, 1, 1, SeglogStores(t.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := d.Client()
	c.Obs = obs.NewRegistry()
	addr := d.DataAddrs[0]
	rng := rand.New(rand.NewSource(40))
	bodies := make([][]byte, perFrame)
	fps := make([]cas.Fingerprint, perFrame)
	keys := make([]chunkstore.Key, perFrame)
	replyBytes := 1 // the status byte
	for i := range bodies {
		bodies[i] = make([]byte, chunk)
		rng.Read(bodies[i])
		fps[i] = cas.Sum(bodies[i])
		keys[i] = fps[i].Key()
		replyBytes += 1 + 3 + chunk // presence flag, length prefix, body
	}
	exchange := func() {
		t.Helper()
		if err := c.casPutBatch(ctx, addr, fps, bodies); err != nil {
			t.Fatal(err)
		}
		got, err := c.getChunkBatch(ctx, addr, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], bodies[i]) {
				t.Fatalf("chunk %d came back different", i)
			}
		}
	}
	exchange() // stores the bodies, dials the connection, fills the pool

	// The best of three rounds: a collection empties the pool of what was
	// handed back before the previous one, and the frames drawn again after
	// it are allocated afresh. How many that is depends on when the
	// collector runs, not on the code under test.
	allocated := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < exchanges; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	kept := uint64(exchanges * replyBytes)
	t.Logf("%d put+get exchanges of %d MiB: %.1f MiB allocated, %.1f MiB of it the client's kept reply frames",
		exchanges, perFrame*chunk>>20, float64(allocated)/(1<<20), float64(kept)/(1<<20))
	if allocated > kept+slack {
		t.Errorf("allocated %d bytes, want at most the %d of kept reply frames + %d: a bulk frame is allocated per exchange again",
			allocated, kept, slack)
	}
}

// TestBulkFramesStayPrivate is the aliasing stress of the frame pool over
// loopback TCP: writers commit fresh bytes while readers restore what was
// committed, every goroutine drawing on the same pooled classes. A restored
// chunk is a window of the client's reply frame, which is never pooled; so
// the chunks each restore delivered, checked only after every goroutine is
// done, still hold exactly what was written, no replica read fails its hash
// and no read moves to another replica. Run it under -race.
func TestBulkFramesStayPrivate(t *testing.T) {
	const workers, rounds, chunks, chunk = 3, 4, 32, 64 << 10
	tcp := transport.NewTCP()
	t.Cleanup(func() { tcp.Close() })
	d, err := DeployWith(tcp, 1, 3, SeglogStores(t.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	type restored struct {
		want, got [][]byte
		stats     ReadStats
	}
	var mu sync.Mutex
	var all []restored
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				c := d.Client()
				c.Obs = obs.NewRegistry()
				blob, err := c.CreateBlob(ctx, chunk)
				if err != nil {
					return err
				}
				rng := rand.New(rand.NewSource(int64(w)))
				var versions []uint64
				var written [][][]byte
				for r := 0; r < rounds; r++ {
					writes := make([]Chunk, chunks)
					bodies := make([][]byte, chunks)
					for i := range writes {
						bodies[i] = make([]byte, chunk)
						rng.Read(bodies[i])
						writes[i] = Chunk{Index: uint64(i), Body: bodies[i]}
					}
					var base *SnapshotRef
					if len(versions) > 0 {
						base = &SnapshotRef{Blob: blob, Version: versions[len(versions)-1]}
					}
					info, _, err := c.WriteChunks(ctx, blob, base, nil, writes, chunks*chunk)
					if err != nil {
						return fmt.Errorf("worker %d round %d: commit: %w", w, r, err)
					}
					versions = append(versions, info.Version)
					written = append(written, bodies)
					// Restore this round's version and a random earlier one.
					for _, v := range []int{r, rng.Intn(r + 1)} {
						snap, err := c.Open(ctx, SnapshotRef{Blob: blob, Version: versions[v]})
						if err != nil {
							return err
						}
						res := restored{want: written[v], got: make([][]byte, chunks)}
						indices := make([]uint64, chunks)
						for i := range indices {
							indices[i] = uint64(i)
						}
						res.stats, err = snap.ReadChunks(ctx, indices, func(idx uint64, body []byte) {
							res.got[idx] = body
						})
						if err != nil {
							return fmt.Errorf("worker %d round %d: restore of version %d: %w", w, r, versions[v], err)
						}
						mu.Lock()
						all = append(all, res)
						mu.Unlock()
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for n, res := range all {
		if res.stats.CorruptReplicas != 0 || res.stats.FailedOver != 0 {
			t.Errorf("restore %d: %d corrupt replicas, %d fail-overs, want none", n, res.stats.CorruptReplicas, res.stats.FailedOver)
		}
		for i := range res.want {
			if !bytes.Equal(res.got[i], res.want[i]) {
				t.Errorf("restore %d: chunk %d no longer holds what was written: its memory was reused", n, i)
			}
		}
	}
}
