package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/meta"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// probeBudget is the wall time of one probe loop; seventeen of them keep
// the whole set well under half a minute.
const probeBudget = 700 * time.Millisecond

// probeChunk is the body size the CAS and seglog probes move: the paper's
// 256 KiB stripe.
const probeChunk = 256 << 10

// loopStats is what one timed loop over one public function measured.
type loopStats struct {
	nsPerOp     float64
	allocsPerOp float64
}

func (l loopStats) mbps(bytesPerOp int) float64 {
	return ratio(float64(bytesPerOp)/mib, l.nsPerOp/1e9)
}

// timedLoop calls fn once to warm up and then for about probeBudget,
// counting heap allocations with runtime.MemStats.
func timedLoop(fn func()) loopStats {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < probeBudget {
		fn()
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return loopStats{
		nsPerOp:     float64(elapsed) / float64(n),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

func randomBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// runProbes times each layer alone and the box's ceilings. A probe that
// cannot run reports an error line and is left out.
func runProbes(ctx context.Context, scratch string, report io.Writer) map[string]*series {
	out := make(map[string]*series)
	put := func(name, unit, better string, v float64) {
		out[name] = &series{Unit: unit, Better: better, Samples: []float64{v}}
	}
	try := func(name string, fn func() error) {
		if err := ctx.Err(); err != nil {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(report, "#  probe %s: %v\n", name, err)
		}
	}

	try("wire", func() error {
		small, big := randomBytes(1, 64), randomBytes(2, 4<<20)
		var buf bytes.Buffer
		round := func(p []byte) func() {
			return func() {
				buf.Reset()
				wire.WriteFrame(&buf, p) //nolint:errcheck // bytes.Buffer
				wire.ReadFrame(&buf)     //nolint:errcheck // bytes.Buffer
			}
		}
		s := timedLoop(round(small))
		put("probe.wire.frame_64b_ns", "ns", "lower", s.nsPerOp)
		put("probe.wire.frame_allocs", "count", "lower", s.allocsPerOp)
		put("probe.wire.frame_4m_mbps", "MiB/s", "higher", timedLoop(round(big)).mbps(len(big)))
		return nil
	})

	try("transport", func() error {
		tcp := transport.NewTCP()
		defer tcp.Close()
		srv, err := tcp.Listen("", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
		if err != nil {
			return err
		}
		defer srv.Close()
		var callErr error
		echo := func(p []byte) func() {
			return func() {
				if _, err := tcp.Call(ctx, srv.Addr(), p); err != nil {
					callErr = err
				}
			}
		}
		s := timedLoop(echo(randomBytes(3, 64)))
		put("probe.transport.call_64b_us", "us", "lower", s.nsPerOp/1e3)
		put("probe.transport.call_allocs", "count", "lower", s.allocsPerOp)
		put("probe.transport.call_16k_us", "us", "lower", timedLoop(echo(randomBytes(4, 16<<10))).nsPerOp/1e3)
		// An echo moves the payload both ways.
		put("probe.transport.call_4m_mbps", "MiB/s", "higher", timedLoop(echo(randomBytes(5, 4<<20))).mbps(2*4<<20))
		return callErr
	})

	try("cas", func() error {
		body := randomBytes(6, probeChunk)
		put("probe.cas.sum_mbps", "MiB/s", "higher", timedLoop(func() { cas.Sum(body) }).mbps(probeChunk))
		store := cas.NewMem()
		var putErr error
		n := uint64(0)
		s := timedLoop(func() {
			// A fresh body each time, so every put is a miss that stores.
			n++
			body[0], body[1], body[2], body[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
			if _, err := store.PutContent(cas.Sum(body), body); err != nil {
				putErr = err
			}
		})
		put("probe.cas.put_mbps", "MiB/s", "higher", s.mbps(probeChunk))
		put("probe.cas.put_allocs", "count", "lower", s.allocsPerOp)
		fp := cas.Sum(body)
		put("probe.cas.ref_ns", "ns", "lower", timedLoop(func() { store.Ref(fp) }).nsPerOp)
		return putErr
	})

	try("seglog", func() error {
		open := func(name string) (*seglog.Store, error) {
			return seglog.Open(filepath.Join(scratch, name), seglog.Options{DisableAutoCompact: true})
		}
		s1, err := open("probe-seglog-1c")
		if err != nil {
			return err
		}
		defer s1.Close()
		var putErr error
		var next uint64
		var mu sync.Mutex
		putOne := func(s *seglog.Store, body []byte) {
			mu.Lock()
			next++
			k := chunkstore.Key{Blob: 1, ID: next}
			mu.Unlock()
			if err := s.Put(k, body); err != nil {
				putErr = err
			}
		}
		body := randomBytes(7, probeChunk)
		one := timedLoop(func() { putOne(s1, body) })
		put("probe.seglog.put_1c_mbps", "MiB/s", "higher", one.mbps(probeChunk))
		put("probe.seglog.put_allocs", "count", "lower", one.allocsPerOp)
		stored := next
		var getErr error
		k := uint64(0)
		put("probe.seglog.get_mbps", "MiB/s", "higher", timedLoop(func() {
			k = k%stored + 1
			if _, err := s1.Get(chunkstore.Key{Blob: 1, ID: k}); err != nil {
				getErr = err
			}
		}).mbps(probeChunk))

		s2, err := open("probe-seglog-2c")
		if err != nil {
			return err
		}
		defer s2.Close()
		other := randomBytes(8, probeChunk)
		two := timedLoop(func() {
			// Two committers ride one group commit.
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); putOne(s2, body) }()
			go func() { defer wg.Done(); putOne(s2, other) }()
			wg.Wait()
		})
		put("probe.seglog.put_2c_mbps", "MiB/s", "higher", two.mbps(2*probeChunk))
		if putErr != nil {
			return putErr
		}
		return getErr
	})

	try("meta", func() error {
		const span, leaves = 16384, 128
		tree := &meta.Tree{Store: meta.NewMemNodeStore()}
		r := rand.New(rand.NewSource(9))
		writes := func() map[uint64]meta.Leaf {
			m := make(map[uint64]meta.Leaf, leaves)
			for len(m) < leaves {
				idx := uint64(r.Intn(span))
				m[idx] = meta.Leaf{Providers: []string{"127.0.0.1:7720"}, Key: chunkstore.Key{Blob: idx, ID: idx}, Size: 16 << 10}
			}
			return m
		}
		var root meta.NodeRef
		var prevSpan, version uint64
		var err error
		pub := timedLoop(func() {
			w := writes()
			version++
			var next meta.NodeRef
			if next, err = tree.Publish(1, version, root, prevSpan, span, w); err == nil {
				root, prevSpan = next, span
			}
		})
		if err != nil {
			return err
		}
		put("probe.meta.publish_us_per_leaf", "us", "lower", pub.nsPerOp/1e3/leaves)
		put("probe.meta.publish_allocs_per_leaf", "count", "lower", pub.allocsPerOp/leaves)
		look := timedLoop(func() {
			for i := 0; i < leaves && err == nil; i++ {
				_, err = tree.Lookup(root, span, uint64(r.Intn(span)), 1)
			}
		})
		put("probe.meta.lookup_us_per_leaf", "us", "lower", look.nsPerOp/1e3/leaves)
		return err
	})

	try("ceil.disk", func() error {
		// One writer per core, each overwriting its own preallocated file in
		// place: 4 MiB WriteAt + fdatasync with no size or extent change to
		// journal, so what is timed is the device, not the file system.
		const fileBytes = 64 << 20
		block := randomBytes(10, 4<<20)
		writers := runtime.NumCPU()
		files := make([]*os.File, writers)
		for i := range files {
			f, err := os.Create(filepath.Join(scratch, fmt.Sprintf("probe-ceil-disk-%d", i)))
			if err != nil {
				return err
			}
			defer f.Close()
			for off := int64(0); off < fileBytes; off += int64(len(block)) {
				if _, err := f.WriteAt(block, off); err != nil {
					return err
				}
			}
			if err := f.Sync(); err != nil {
				return err
			}
			files[i] = f
		}
		var off int64
		errs := make([]error, writers)
		s := timedLoop(func() {
			var wg sync.WaitGroup
			for i, f := range files {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := f.WriteAt(block, off); err != nil {
						errs[i] = err
					} else if err := syscall.Fdatasync(int(f.Fd())); err != nil {
						errs[i] = err
					}
				}()
			}
			wg.Wait()
			off = (off + int64(len(block))) % fileBytes
		})
		put("ceil.disk_write_mbps", "MiB/s", "higher", s.mbps(writers*len(block)))
		return errors.Join(errs...)
	})

	try("ceil.loopback", func() error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if c, err := ln.Accept(); err == nil {
				io.Copy(io.Discard, c) //nolint:errcheck // drains until the writer closes
				c.Close()
			}
		}()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		block := randomBytes(11, 4<<20)
		var werr error
		s := timedLoop(func() {
			if _, err := c.Write(block); err != nil {
				werr = err
			}
		})
		c.Close()
		<-done
		put("ceil.loopback_mbps", "MiB/s", "higher", s.mbps(len(block)))
		return werr
	})

	try("ceil.cpu", func() error {
		block := randomBytes(12, 4<<20)
		dst := make([]byte, len(block))
		put("ceil.sha256_mbps", "MiB/s", "higher", timedLoop(func() { sha256.Sum256(block) }).mbps(len(block)))
		put("ceil.memcpy_mbps", "MiB/s", "higher", timedLoop(func() { copy(dst, block) }).mbps(len(block)))
		return nil
	})
	return out
}

// addCeilingFractions reports bulk_unique's throughput as a share of the
// lowest same-box ceiling on its path — the ROADMAP's "% of ceiling". The
// restart path writes no disk, so its ceiling leaves the disk out.
func addCeilingFractions(probes map[string]*series, bulk *workloadResult) {
	lowest := func(names ...string) float64 {
		low := math.Inf(1)
		for _, n := range names {
			if s := probes[n]; s != nil && len(s.Samples) > 0 && s.Samples[0] < low {
				low = s.Samples[0]
			}
		}
		if math.IsInf(low, 1) {
			return 0
		}
		return low
	}
	frac := func(name, metric string, ceiling float64) {
		if s := bulk.EndToEnd[metric]; s != nil && ceiling > 0 {
			probes[name] = &series{Unit: "ratio", Better: "higher", Samples: []float64{median(s.Samples) / ceiling}}
		}
	}
	frac("frac.ckpt_of_ceil", "ckpt_mbps", lowest("ceil.disk_write_mbps", "ceil.loopback_mbps", "ceil.sha256_mbps", "ceil.memcpy_mbps"))
	frac("frac.restart_of_ceil", "restart_mbps", lowest("ceil.loopback_mbps", "ceil.sha256_mbps", "ceil.memcpy_mbps"))
}
