package cas

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
)

// TestSumOfZerosIsTheirSHA256: the zero memo answers with exactly the digest
// a hash would, at every length on both sides of the eight-byte scan, twice
// (computed, then remembered) — and a body whose only non-zero byte is its
// last is not mistaken for zeros.
func TestSumOfZerosIsTheirSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 16 << 10, 256 << 10, 256<<10 - 1} {
		zeros := make([]byte, n)
		for pass := 0; pass < 2; pass++ {
			if got, want := Sum(zeros), Fingerprint(sha256.Sum256(zeros)); got != want {
				t.Errorf("Sum(zeros(%d)) pass %d = %s, want %s", n, pass, got, want)
			}
		}
		if n > 0 {
			zeros[n-1] = 1
			if got, want := Sum(zeros), Fingerprint(sha256.Sum256(zeros)); got != want {
				t.Errorf("Sum of %d bytes ending in a 1 = %s, want %s", n, got, want)
			}
		}
	}
}

// testBackends names the backends the batch properties must hold over: the
// in-memory store, which takes chunkstore.PutBatch's fallback, and the
// segment log, which takes a frame as one batch.
func testBackends(t *testing.T) map[string]func() chunkstore.Store {
	return map[string]func() chunkstore.Store{
		"mem": func() chunkstore.Store { return chunkstore.NewMem() },
		"seglog": func() chunkstore.Store {
			s, err := seglog.Open(t.TempDir(), seglog.Options{Registry: obs.NewRegistry(), DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
}

// contents reads back everything a backend holds.
func contents(t *testing.T, b chunkstore.Store) map[chunkstore.Key]string {
	t.Helper()
	out := make(map[chunkstore.Key]string)
	for _, k := range b.(keyLister).Keys() {
		body, err := b.Get(k)
		if err != nil {
			t.Fatalf("backend lists %v but cannot read it: %v", k, err)
		}
		out[k] = string(body)
	}
	return out
}

// TestPutContentBatchMatchesOneByOne is the batch path's specification: for
// random frames — fingerprints already held, new ones, one body twice in a
// frame, zero bodies, empty bodies — a frame through PutContentBatch leaves
// the dup flags, every reference count, the Stats and the backend's contents
// exactly as the same items through PutContent one after another do, and the
// same holds for ReleaseBatch against Release. A frame with one corrupt body
// changes nothing at all.
func TestPutContentBatchMatchesOneByOne(t *testing.T) {
	for name, open := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			backBatch, backSingle := open(), open()
			batch, err := NewStore(backBatch)
			if err != nil {
				t.Fatal(err)
			}
			single, err := NewStore(backSingle)
			if err != nil {
				t.Fatal(err)
			}
			var pool [][]byte // every body ever put: candidates for "held"
			newBody := func() []byte {
				switch rng.Intn(6) {
				case 0:
					return make([]byte, []int{1, 8, 100, 4096}[rng.Intn(4)]) // zeros
				case 1:
					return nil // the empty body
				default:
					body := make([]byte, 1+rng.Intn(3000))
					rng.Read(body)
					return body
				}
			}
			same := func(when string) {
				t.Helper()
				if a, b := batch.Stats(), single.Stats(); a != b {
					t.Fatalf("%s: stats diverge:\n batch  %+v\n single %+v", when, a, b)
				}
				for _, body := range pool {
					if a, b := batch.Refs(Sum(body)), single.Refs(Sum(body)); a != b {
						t.Fatalf("%s: refs of %s: batch %d, single %d", when, Sum(body), a, b)
					}
				}
				a, b := contents(t, backBatch), contents(t, backSingle)
				if len(a) != len(b) {
					t.Fatalf("%s: backends hold %d and %d bodies", when, len(a), len(b))
				}
				for k, body := range a {
					if b[k] != body {
						t.Fatalf("%s: backends differ at %v", when, k)
					}
				}
			}
			for round := 0; round < 40; round++ {
				n := 1 + rng.Intn(24)
				var fps []Fingerprint
				var bodies [][]byte
				for i := 0; i < n; i++ {
					var body []byte
					switch r := rng.Intn(10); {
					case r < 3 && len(pool) > 0:
						body = pool[rng.Intn(len(pool))] // held (or released since)
					case r < 5 && len(bodies) > 0:
						body = bodies[rng.Intn(len(bodies))] // again in this frame
					default:
						body = newBody()
					}
					fps, bodies = append(fps, Sum(body)), append(bodies, body)
				}

				// A corrupt copy of the frame first: it must leave no trace.
				if victim := rng.Intn(n); len(bodies[victim]) > 0 {
					corrupt := slices.Clone(bodies)
					corrupt[victim] = slices.Clone(bodies[victim])
					corrupt[victim][rng.Intn(len(corrupt[victim]))] ^= 0x40
					before, held := batch.Stats(), contents(t, backBatch)
					if _, err := batch.PutContentBatch(fps, corrupt); !errors.Is(err, ErrContentMismatch) {
						t.Fatalf("round %d: corrupt frame: %v, want ErrContentMismatch", round, err)
					}
					if after := batch.Stats(); after != before {
						t.Fatalf("round %d: corrupt frame moved the stats: %+v -> %+v", round, before, after)
					}
					if after := contents(t, backBatch); len(after) != len(held) {
						t.Fatalf("round %d: corrupt frame stored %d bodies", round, len(after)-len(held))
					}
				}

				dups, err := batch.PutContentBatch(fps, bodies)
				if err != nil {
					t.Fatalf("round %d: PutContentBatch: %v", round, err)
				}
				for i := range fps {
					dup, err := single.PutContent(fps[i], bodies[i])
					if err != nil {
						t.Fatalf("round %d: PutContent %d: %v", round, i, err)
					}
					if dup != dups[i] {
						t.Fatalf("round %d item %d: dup flag %v in the batch, %v one by one", round, i, dups[i], dup)
					}
				}
				pool = append(pool, bodies...)
				same("after put")

				// Release a random multiset, some of it more often than held.
				var rel []Fingerprint
				for i := rng.Intn(2 * n); i > 0; i-- {
					rel = append(rel, Sum(pool[rng.Intn(len(pool))]))
				}
				before := batch.Stats()
				chunks, freed, err := batch.ReleaseBatch(rel)
				if err != nil {
					t.Fatalf("round %d: ReleaseBatch: %v", round, err)
				}
				if after := batch.Stats(); uint64(chunks) != after.ReclaimedChunks-before.ReclaimedChunks || freed != after.ReclaimedBytes-before.ReclaimedBytes {
					t.Fatalf("round %d: ReleaseBatch reported %d bodies, %d bytes; its stats moved %+v -> %+v", round, chunks, freed, before, after)
				}
				for _, fp := range rel {
					if _, _, err := single.Release(fp); err != nil {
						t.Fatalf("round %d: Release: %v", round, err)
					}
				}
				same("after release")
			}
		})
	}
}

// TestConcurrentBatchFramesKeepRefsExact races put frames whose fingerprints
// overlap — the same stripes, named in opposite orders — against release
// batches and single Refs. Nothing may deadlock (the stripes are taken in
// one order whatever order a frame names them in), and the final counts are
// exact: the bodies one holder keeps stay at its one reference, everything
// else is reclaimed down to an empty backend. Run under -race.
func TestConcurrentBatchFramesKeepRefsExact(t *testing.T) {
	for name, open := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			backend := open()
			s, err := NewStore(backend)
			if err != nil {
				t.Fatal(err)
			}
			const bodies, workers, rounds = 96, 6, 25 // 96 bodies over 64 stripes: every frame shares stripes with every other
			pool := make([][]byte, bodies)
			fps := make([]Fingerprint, bodies)
			for i := range pool {
				pool[i] = bytes.Repeat([]byte{byte(i), byte(i >> 3), 0x5A}, 50+i)
				fps[i] = Sum(pool[i])
			}
			// One holder keeps a reference on every third body throughout.
			var kept []Fingerprint
			for i := 0; i < bodies; i += 3 {
				if _, err := s.PutContent(fps[i], pool[i]); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, fps[i])
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for r := 0; r < rounds; r++ {
						// A window of the pool, forwards or backwards.
						lo := rng.Intn(bodies / 2)
						order := make([]int, bodies/2)
						for i := range order {
							order[i] = lo + i
						}
						if (w+r)%2 == 1 {
							slices.Reverse(order)
						}
						ffps := make([]Fingerprint, len(order))
						fbodies := make([][]byte, len(order))
						for i, j := range order {
							ffps[i], fbodies[i] = fps[j], pool[j]
						}
						if _, err := s.PutContentBatch(ffps, fbodies); err != nil {
							t.Errorf("PutContentBatch: %v", err)
							return
						}
						// This worker holds a reference on each, so a Ref
						// must find the body whatever the others release.
						for _, fp := range ffps {
							if !s.Ref(fp) {
								t.Errorf("Ref of a held body failed")
								return
							}
						}
						slices.Reverse(ffps)
						if _, _, err := s.ReleaseBatch(append(ffps, ffps...)); err != nil {
							t.Errorf("ReleaseBatch: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			st := s.Stats()
			if st.Refs != uint64(len(kept)) || st.Chunks != uint64(len(kept)) || backend.Len() != len(kept) {
				t.Fatalf("after the race: %d refs on %d bodies, backend holds %d; want %d each", st.Refs, st.Chunks, backend.Len(), len(kept))
			}
			for _, fp := range kept {
				if s.Refs(fp) != 1 {
					t.Fatalf("kept body %s has %d refs, want 1", fp, s.Refs(fp))
				}
			}
			if chunks, _, err := s.ReleaseBatch(kept); err != nil || chunks != len(kept) {
				t.Fatalf("final release reclaimed %d of %d bodies (err %v)", chunks, len(kept), err)
			}
			if backend.Len() != 0 {
				t.Fatalf("backend still holds %d bodies", backend.Len())
			}
		})
	}
}

// failingBatch is a backend whose batch write fails after storing part of
// the batch.
type failingBatch struct {
	*chunkstore.Mem
	fail bool
}

var errDiskFull = errors.New("disk full")

func (f *failingBatch) PutBatch(keys []chunkstore.Key, bodies [][]byte) error {
	for i, k := range keys {
		if f.fail && i == len(keys)/2 {
			return errDiskFull
		}
		if err := f.Put(k, bodies[i]); err != nil {
			return err
		}
	}
	return nil
}

func (f *failingBatch) DeleteBatch(keys []chunkstore.Key) error {
	for _, k := range keys {
		if err := f.Delete(k); err != nil && !errors.Is(err, chunkstore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// TestPutContentBatchBackendFailureTakesNothing: when the backend write
// fails, the frame takes no reference — not even on the items that were
// dedup hits — and the bodies the failed batch did store are removed.
func TestPutContentBatchBackendFailureTakesNothing(t *testing.T) {
	backend := &failingBatch{Mem: chunkstore.NewMem()}
	s, err := NewStore(backend)
	if err != nil {
		t.Fatal(err)
	}
	held := []byte("held before the frame")
	if _, err := s.PutContent(Sum(held), held); err != nil {
		t.Fatal(err)
	}
	fps := []Fingerprint{Sum(held)}
	bodies := [][]byte{held}
	for i := 0; i < 6; i++ {
		body := bytes.Repeat([]byte{byte(i + 1)}, 64)
		fps, bodies = append(fps, Sum(body)), append(bodies, body)
	}
	before := s.Stats()
	backend.fail = true
	if _, err := s.PutContentBatch(fps, bodies); !errors.Is(err, errDiskFull) {
		t.Fatalf("PutContentBatch over a failing backend: %v", err)
	}
	if after := s.Stats(); after != before {
		t.Fatalf("failed frame moved the stats: %+v -> %+v", before, after)
	}
	if backend.Len() != 1 {
		t.Fatalf("failed frame left %d bodies behind", backend.Len()-1)
	}
	backend.fail = false
	if dups, err := s.PutContentBatch(fps, bodies); err != nil || !dups[0] || dups[1] {
		t.Fatalf("retry after the failure: dups %v, err %v", dups, err)
	}
}
