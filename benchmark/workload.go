package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// A pattern is how a workload dirties its data region before each
// checkpoint. Patterns never change between runs; only sizes scale.
type pattern int

const (
	patSlidingUnique pattern = iota // a window of unique bytes that slides over the region
	patScattered                    // uniformly scattered unique chunks
	patDedupRewrite                 // the same region rewritten: recurring pool, zeros, unique
)

// workload is one declared benchmark workload. The numbers are the ones
// recorded in BENCHMARK.json and README.md; scale() shrinks them for the
// smoke test without touching the pattern.
type workload struct {
	Name       string
	Why        string
	Nodes      int
	ChunkSize  uint64
	ImageBytes uint64
	DirtyBytes uint64 // bytes dirtied before each checkpoint
	Pattern    pattern
	Tiered     bool // LocalTier cloud, VM-A checkpoints while VM-B restarts
}

// keepVersions is how many snapshot versions the checkpoint loop retains;
// older ones are retired inside the loop, as a long-running job would.
const keepVersions = 4

// bootSetChunks is the size of the scattered set of chunks a restarted
// instance demand-reads before anything is prefetched (lazy restart).
const bootSetChunks = 64

var workloads = []workload{
	{
		Name:       "bulk_unique",
		Why:        "32 MiB of unique incompressible bytes per checkpoint: SHA-256, bulk TCP frames, CAS put and seglog append+fdatasync do the work; metadata is negligible (Fig. 2/3)",
		Nodes:      4,
		ChunkSize:  256 << 10,
		ImageBytes: 256 << 20,
		DirtyBytes: 32 << 20,
		Pattern:    patSlidingUnique,
	},
	{
		Name:       "incr_sparse",
		Why:        "128 scattered 16 KiB chunks per checkpoint over a 16384-leaf tree: metadata publish, version-manager round trips, small-frame call latency and fsync latency dominate; bandwidth idles",
		Nodes:      4,
		ChunkSize:  16 << 10,
		ImageBytes: 256 << 20,
		DirtyBytes: 2 << 20,
		Pattern:    patScattered,
	},
	{
		Name:       "dedup_rewrite",
		Why:        "the same 64 MiB rewritten each checkpoint, 75% recurring bodies, 15% zeros, 10% unique: hashing, CAS probes and capture work while upload and disk are bypassed (Fig. 5, CM1)",
		Nodes:      4,
		ChunkSize:  256 << 10,
		ImageBytes: 512 << 20,
		DirtyBytes: 64 << 20,
		Pattern:    patDedupRewrite,
	},
	{
		Name:       "tiered_mixed",
		Why:        "local tier on: VM-A loops 16 MiB checkpoints while VM-B loops cold restarts of 112 MiB, so staging, partner replication, drain and reads beside writes all run; 2 closed-loop clients",
		Nodes:      2,
		ChunkSize:  256 << 10,
		ImageBytes: 128 << 20,
		DirtyBytes: 16 << 20,
		Pattern:    patSlidingUnique,
		Tiered:     true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale shrinks the image and the dirty set by f, keeping whole chunks, at
// least sixteen of them and at least one dirty chunk.
func (w workload) scale(f float64) workload {
	if f >= 1 {
		return w
	}
	chunks := uint64(float64(w.ImageBytes/w.ChunkSize) * f)
	chunks = (chunks + 7) / 8 * 8
	if chunks < 16 {
		chunks = 16
	}
	w.ImageBytes = chunks * w.ChunkSize
	dirty := uint64(float64(w.DirtyBytes/w.ChunkSize) * f)
	if dirty < 1 {
		dirty = 1
	}
	if max := chunks * 7 / 8; dirty > max {
		dirty = max
	}
	w.DirtyBytes = dirty * w.ChunkSize
	return w
}

func (w workload) imageChunks() uint64 { return w.ImageBytes / w.ChunkSize }

// dataStart is the first chunk of the data region: the upper 7/8 of the
// image, so the guest file system's boot-time metadata (which lives at the
// start of the disk) is never clobbered by the generator.
func (w workload) dataStart() uint64  { return w.imageChunks() / 8 }
func (w workload) dataChunks() uint64 { return w.imageChunks() - w.dataStart() }
func (w workload) dirtyChunks() uint64 {
	return w.DirtyBytes / w.ChunkSize
}

func (w workload) String() string {
	return fmt.Sprintf("%s nodes=%d chunk=%dKiB image=%dMiB dirty/ckpt=%.2fMiB tiered=%v",
		w.Name, w.Nodes, w.ChunkSize>>10, w.ImageBytes>>20, float64(w.DirtyBytes)/(1<<20), w.Tiered)
}

// poolBodies is the size of dedup_rewrite's recurring body pool.
const poolBodies = 64

// generator produces one VM's writes from the seed and keeps the shadow the
// restart path is verified against: the SHA-256 of what every data-region
// chunk must read back as. The program under test never sees the seed, only
// the bytes.
type generator struct {
	w      workload
	rng    *rand.Rand
	fill   uint64 // xorshift state for bulk bytes
	round  uint64
	shadow [][32]byte // by data-region chunk (index - dataStart)
	ever   []bool     // chunk ever written (stored_per_live's denominator)
	live   uint64

	zeroSum  [32]byte
	zero     []byte
	pool     [][]byte
	poolSums [][32]byte
	buf      []byte // staging for one contiguous write
	perm     []int
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{
		w:      w,
		rng:    rand.New(rand.NewSource(seed)),
		fill:   uint64(seed)*0x9e3779b97f4a7c15 | 1,
		shadow: make([][32]byte, w.dataChunks()),
		ever:   make([]bool, w.dataChunks()),
		zero:   make([]byte, w.ChunkSize),
	}
	g.zeroSum = sha256.Sum256(g.zero)
	for i := range g.shadow {
		g.shadow[i] = g.zeroSum // the sparse base image reads as zeros
	}
	if w.Pattern == patDedupRewrite {
		for i := 0; i < poolBodies; i++ {
			body := make([]byte, w.ChunkSize)
			g.random(body)
			g.pool = append(g.pool, body)
			g.poolSums = append(g.poolSums, sha256.Sum256(body))
		}
	}
	return g
}

// random fills p with incompressible bytes (xorshift64*): fast enough that
// dirtying stays a small share of the run, random enough that seglog's
// entropy probe skips its compressor, as it would for real HPC state.
func (g *generator) random(p []byte) {
	x := g.fill
	i := 0
	for ; i+8 <= len(p); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(p[i:], x*0x2545f4914f6cdd1d)
	}
	for ; i < len(p); i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		p[i] = byte(x)
	}
	g.fill = x
}

// diskWriter is the slice of vdisk.Device the generator writes through.
type diskWriter interface {
	WriteAt(p []byte, off int64) (int, error)
}

func (g *generator) mark(rel uint64, sum [32]byte) {
	g.shadow[rel] = sum
	if !g.ever[rel] {
		g.ever[rel] = true
		g.live++
	}
}

// dirty writes one checkpoint interval's modifications to the virtual disk
// and returns how many distinct chunks it dirtied.
func (g *generator) dirty(d diskWriter) (chunks uint64, err error) {
	w := g.w
	cs := w.ChunkSize
	n := w.dirtyChunks()
	region := w.dataChunks()
	defer func() { g.round++ }()
	switch w.Pattern {
	case patSlidingUnique:
		// A window of n chunks sliding over the region; the last window of a
		// lap is clipped rather than wrapped so every write is contiguous.
		windows := (region + n - 1) / n
		first := (g.round % windows) * n
		if first+n > region {
			n = region - first
		}
		buf := g.staging(n * cs)
		g.random(buf)
		for i := uint64(0); i < n; i++ {
			g.mark(first+i, sha256.Sum256(buf[i*cs:(i+1)*cs]))
		}
		_, err = d.WriteAt(buf, int64((w.dataStart()+first)*cs))
		return n, err
	case patScattered:
		buf := g.staging(cs)
		seen := make(map[uint64]bool, n)
		for uint64(len(seen)) < n {
			rel := uint64(g.rng.Int63n(int64(region)))
			if seen[rel] {
				continue
			}
			seen[rel] = true
			g.random(buf)
			g.mark(rel, sha256.Sum256(buf))
			if _, err = d.WriteAt(buf, int64((w.dataStart()+rel)*cs)); err != nil {
				return uint64(len(seen)), err
			}
		}
		return n, nil
	case patDedupRewrite:
		// The same first n chunks every round; which body lands where is
		// reshuffled, so placement (and dedup) cannot lean on offsets.
		if len(g.perm) != int(n) {
			g.perm = make([]int, n)
			for i := range g.perm {
				g.perm[i] = i
			}
		}
		g.rng.Shuffle(len(g.perm), func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
		recurring := int(n) * 75 / 100
		zeros := int(n) * 15 / 100
		buf := g.staging(cs)
		for slot, p := range g.perm {
			rel := uint64(p)
			off := int64((w.dataStart() + rel) * cs)
			switch {
			case slot < recurring:
				k := g.rng.Intn(len(g.pool))
				g.mark(rel, g.poolSums[k])
				_, err = d.WriteAt(g.pool[k], off)
			case slot < recurring+zeros:
				g.mark(rel, g.zeroSum)
				_, err = d.WriteAt(g.zero, off)
			default:
				g.random(buf)
				g.mark(rel, sha256.Sum256(buf))
				_, err = d.WriteAt(buf, off)
			}
			if err != nil {
				return uint64(slot), err
			}
		}
		return n, nil
	}
	return 0, fmt.Errorf("unknown pattern %d", w.Pattern)
}

func (g *generator) staging(n uint64) []byte {
	if uint64(cap(g.buf)) < n {
		g.buf = make([]byte, n)
	}
	return g.buf[:n]
}

// bootSet is the fixed scattered set of chunks a restarted instance reads
// first. It is the same for every seed, and it is drawn from the part of
// the data region the pattern writes: a hole costs a metadata descent but no
// chunk fetch, so a set that straddled written and never-written chunks
// would time a different mix of work under every seed.
func (w workload) bootSet() []uint64 {
	written := w.dataChunks()
	if w.Pattern == patDedupRewrite {
		written = w.dirtyChunks()
	}
	n := uint64(bootSetChunks)
	if n > written {
		n = written
	}
	picked := rand.New(rand.NewSource(0x626f6f74)).Perm(int(written))[:n]
	out := make([]uint64, n)
	for i, p := range picked {
		out[i] = w.dataStart() + uint64(p)
	}
	return out
}

// verify compares data-region bytes (chunk index first, whole chunks) with
// the shadow and returns how many chunks differ.
func (g *generator) verify(first uint64, data []byte) (bad int) {
	cs := g.w.ChunkSize
	for i := uint64(0); (i+1)*cs <= uint64(len(data)); i++ {
		if sha256.Sum256(data[i*cs:(i+1)*cs]) != g.shadow[first-g.w.dataStart()+i] {
			bad++
		}
	}
	return bad
}
