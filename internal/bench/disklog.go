// Disk log experiment: commit bandwidth of the durable storage engines on a
// real disk. It runs the full stack — deployment, batched wire protocol,
// striped commit path — against one disk-backed data provider and sweeps the
// number of concurrent committers, comparing the file-per-chunk store (two
// fsyncs per chunk: the temp file and its directory) with the log-structured
// segment engine (internal/seglog), whose group-commit writer folds every
// put that arrives while an fsync is in flight into the next single append +
// fsync. The chunk bodies are incompressible, so the comparison measures the
// commit path and not the seglog compressor; the engines' own counters
// (puts, fsyncs) are read back over the wire to make the batching visible.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/chunkstore"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
)

// DiskLogResult is one sweep point: both engines' commit bandwidth for the
// same workload, plus their put/fsync counters.
type DiskLogResult struct {
	Committers   int
	FilesMBps    float64
	SeglogMBps   float64
	FilesPuts    uint64
	FilesFsyncs  uint64
	SeglogPuts   uint64
	SeglogFsyncs uint64
}

// disk-log workload: each committer writes its own blob of dlChunks
// incompressible chunks in one WriteVersion, all committers concurrently
// against a single disk-backed provider. 16 KiB chunks model the dirty-page
// aggregates of an incremental VM checkpoint — the regime the paper targets
// and where per-chunk fsync cost dominates a file-per-chunk store.
const (
	dlChunk  = 16 * 1024
	dlChunks = 192 // per committer: 3 MiB
)

// dlBody fills one incompressible chunk body (xorshift64) unique to
// (committer, chunk), so neither dedup nor the compressor can elide bytes.
func dlBody(committer, chunk int) []byte {
	b := make([]byte, dlChunk)
	x := uint64(committer)<<32 ^ uint64(chunk)<<1 ^ 0x9e3779b97f4a7c15
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; j < 8; j++ {
			b[i+j] = byte(x >> (8 * j))
		}
	}
	return b
}

// runDiskLogCell measures one (backend, committers) cell: wall time of all
// committers' WriteVersions against a fresh single-provider deployment rooted
// at dir, and the engine's put/fsync counters afterwards.
func runDiskLogCell(dir string, factory blobseer.StoreFactory, committers int) (mbps float64, puts, fsyncs uint64, err error) {
	ctx := context.Background()
	d, err := blobseer.DeployWith(transport.NewInProc(), 1, 1, factory)
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.Close()
	client := d.Client()
	client.Parallelism = 8

	blobs := make([]uint64, committers)
	writes := make([]map[uint64][]byte, committers)
	for c := 0; c < committers; c++ {
		if blobs[c], err = client.CreateBlob(ctx, dlChunk); err != nil {
			return 0, 0, 0, err
		}
		writes[c] = make(map[uint64][]byte, dlChunks)
		for i := 0; i < dlChunks; i++ {
			writes[c][uint64(i)] = dlBody(c, i)
		}
	}

	runtime.GC() // keep collector pauses out of the measured window
	var wg sync.WaitGroup
	errs := make([]error, committers)
	t0 := time.Now()
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = client.WriteVersion(ctx, blobs[c], writes[c], dlChunk*dlChunks)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, e
		}
	}

	es, err := client.StoreEngineStats(ctx, d.DataAddrs[0])
	if err != nil {
		return 0, 0, 0, err
	}
	total := float64(committers) * dlChunk * dlChunks
	return total / (1 << 20) / wall.Seconds(), es.Field("puts"), es.Field("fsyncs"), nil
}

// settle flushes and drains the file system between cells. A cell ends by
// unlinking hundreds of chunk files; on a journaling file system that work
// completes asynchronously and would otherwise bill the NEXT cell's fsyncs
// (measured as a 2-3x swing on ext4). Best-effort: if sync(1) is missing
// the sleep alone still absorbs most of it.
func settle() {
	exec.Command("sync").Run() //nolint:errcheck
	time.Sleep(300 * time.Millisecond)
}

// RunDiskLog sweeps the committer counts over both disk engines. Each cell
// gets a fresh store under dir (removed after the cell, with a settle so its
// unlink storm is not billed to the next measurement) so no run measures
// another's segments or chunk files.
func RunDiskLog(dir string, committers []int) ([]DiskLogResult, error) {
	var out []DiskLogResult
	for _, c := range committers {
		if c < 1 {
			return nil, fmt.Errorf("bench: committer count %d", c)
		}
		r := DiskLogResult{Committers: c}

		cell := filepath.Join(dir, fmt.Sprintf("files-%d", c))
		settle()
		mbps, puts, fsyncs, err := runDiskLogCell(cell, blobseer.DiskStores(cell), c)
		os.RemoveAll(cell)
		if err != nil {
			return nil, err
		}
		r.FilesMBps, r.FilesPuts, r.FilesFsyncs = mbps, puts, fsyncs

		cell = filepath.Join(dir, fmt.Sprintf("seglog-%d", c))
		settle()
		mbps, puts, fsyncs, err = runDiskLogCell(cell, blobseer.SeglogStores(cell, seglog.Options{}), c)
		os.RemoveAll(cell)
		if err != nil {
			return nil, err
		}
		r.SeglogMBps, r.SeglogPuts, r.SeglogFsyncs = mbps, puts, fsyncs
		out = append(out, r)
	}
	return out, nil
}

// RunZeroElision measures the segment log's bytes-on-disk for a sparse
// workload — half the chunks all-zero, the signature of a sparse VM image —
// against the logical bytes any store without zero-page elision (the
// file-per-chunk engine stores payloads verbatim) puts on disk. The chunks
// go straight to the engine: through the repository the zero chunks would
// collapse into one content-addressed body before the log ever saw them.
func RunZeroElision(dir string) (logical, disk, zeroChunks uint64, err error) {
	store, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer store.Close()
	for i := 0; i < dlChunks; i++ {
		body := make([]byte, dlChunk)
		if i%2 == 1 {
			body = dlBody(0, i)
		}
		if err := store.Put(chunkstore.Key{Blob: 1, ID: uint64(i)}, body); err != nil {
			return 0, 0, 0, err
		}
	}
	es := store.EngineStats()
	return es.Field("logical_bytes"), es.Field("disk_bytes"), es.Field("zero_chunks"), nil
}

// FigDiskLog renders the disk-log experiment: commit MB/s of the
// file-per-chunk store vs the segment log on a real disk under dir, as
// concurrent committers grow, with each engine's fsyncs-per-put ratio
// showing the group commit at work.
func FigDiskLog(dir string) Series {
	s := Series{
		Title:   "Disk log: durable commit bandwidth, file-per-chunk vs segment log (real disk)",
		XLabel:  "committers",
		YLabel:  "MB/s (ratios unitless)",
		Columns: []string{"files MB/s", "seglog MB/s", "speedup", "files fsync/put", "seglog fsync/put"},
	}
	results, err := RunDiskLog(dir, []int{1, 2, 4, 8})
	if err != nil {
		s.Title += fmt.Sprintf(" — FAILED: %v", err)
		return s
	}
	var buf bytes.Buffer
	for i, r := range results {
		s.Rows = append(s.Rows, Row{X: float64(r.Committers), Values: []float64{
			r.FilesMBps,
			r.SeglogMBps,
			r.SeglogMBps / r.FilesMBps,
			ratio(r.FilesFsyncs, r.FilesPuts),
			ratio(r.SeglogFsyncs, r.SeglogPuts),
		}})
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%d committers: %d/%d", r.Committers, r.SeglogFsyncs, r.SeglogPuts)
	}
	s.Notes = append(s.Notes,
		"seglog fsyncs/puts — "+buf.String(),
		fmt.Sprintf("incompressible %d KiB chunks, %d per committer; zero-page elision and flate never fire on this workload", dlChunk/1024, dlChunks),
	)
	zcell := filepath.Join(dir, "zero-elision")
	logical, disk, zeros, err := RunZeroElision(zcell)
	os.RemoveAll(zcell)
	if err != nil {
		s.Notes = append(s.Notes, fmt.Sprintf("zero-page elision cell FAILED: %v", err))
	} else {
		s.Notes = append(s.Notes, fmt.Sprintf(
			"zero-page elision (sparse image, 50%% all-zero chunks): %.2f MiB logical -> %.2f MiB on disk, %d chunks elided; without elision (file-per-chunk) disk = logical",
			float64(logical)/(1<<20), float64(disk)/(1<<20), zeros))
	}
	return s
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
