// The paper's evaluation on the real plane. Each run deploys a fresh stack
// on loopback TCP, drives one of the five approaches of Section 4.2 through
// it, restarts the job and checks every rank's state against the SHA-256
// shadow taken when it was checkpointed.

package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blobcr/internal/apps/cm1"
	"blobcr/internal/blcr"
	"blobcr/internal/blobseer"
	"blobcr/internal/cas"
	"blobcr/internal/cloud"
	"blobcr/internal/core"
	"blobcr/internal/guestfs"
	"blobcr/internal/mpi"
	"blobcr/internal/obs"
	"blobcr/internal/pvfs"
	"blobcr/internal/qcow2"
	"blobcr/internal/seglog"
	"blobcr/internal/transport"
	"blobcr/internal/vdisk"
	"blobcr/internal/vm"
)

// Scale is the sweep a run measures.
type Scale struct {
	Instances []int // Figs. 2, 3 and 6; the largest also sizes Fig. 4 and Table 1
	Buffers   []int // bytes per instance: the first stands for 50 MB, the last for 200 MB
}

// Paper is the paper's sweep at 1/50 of its sizes: 1 MiB and 4 MiB buffers
// stand for 50 and 200 MB, and up to 64 instances checkpoint at once where
// the paper ran 120.
var Paper = Scale{Instances: []int{1, 4, 16, 32, 64}, Buffers: []int{1 << 20, 4 << 20}}

func (s Scale) small() int { return s.Buffers[0] }
func (s Scale) large() int { return s.Buffers[len(s.Buffers)-1] }
func (s Scale) most() int  { return s.Instances[len(s.Instances)-1] }

// Params is the -json params block of a run at this scale.
func (s Scale) Params() map[string]float64 {
	return map[string]float64{"nodes": planeNodes, "chunk_size_kb": chunkSize >> 10, "scale_divisor": paperScale,
		"buffer_small_mib": float64(s.small()) / mib, "buffer_large_mib": float64(s.large()) / mib, "max_instances": float64(s.most())}
}

const (
	planeNodes = 8
	chunkSize  = 256 << 10 // BlobSeer chunks and PVFS stripes, as in the paper
	paperScale = 50        // every size here is the paper's divided by this
	mib        = 1 << 20
)

var (
	scaleNote = fmt.Sprintf("real plane: %d nodes on loopback TCP, BlobSeer providers on seglog, PVFS on %d servers; sizes are the paper's at 1/%d",
		planeNodes, planeNodes, paperScale)
	guestConfig = vm.Config{
		BlockSize:       4096,
		BootNoiseBytes:  6_800_000 / paperScale,   // Section 4.3.1's boot-time writes
		OSOverheadBytes: 118_000_000 / paperScale, // guest memory savevm captures beyond the processes
	}
	// cm1Config cuts CM1's 50x50 subdomains to 5 levels of 2 variables: a
	// rank's prognostic state is 200 KB (the paper's 9.8 MB at 1/50), and its
	// blcr image, work arrays included, three times that.
	cm1Config = cm1.Config{NX: 50, NY: 50, NZ: 5, Vars: 2, WorkFactor: 2}
	errPeer   = errors.New("bench: another rank failed")
)

// approach is one of the paper's five configurations, indexing approachNames.
type approach int

const (
	blobcrApp approach = iota
	qcow2DiskApp
	blobcrBlcr
	qcow2DiskBlcr
	qcow2Full
)

var approachNames = []string{"BlobCR-app", "qcow2-disk-app", "BlobCR-blcr", "qcow2-disk-blcr", "qcow2-full"}

func (a approach) blobcr() bool { return a == blobcrApp || a == blobcrBlcr }
func (a approach) blcr() bool   { return a == blobcrBlcr || a == qcow2DiskBlcr }

// dumpFunc writes a rank's application-level checkpoint into its guest.
type dumpFunc func(fs *guestfs.FS, path string) error

// workload is what every rank of the job runs.
type workload struct {
	ranks     int    // per instance
	arena     string // the process arena the shadow covers
	dumpBytes int    // bound on one rank's dump
	// advance brings a rank's state to checkpoint round 1, 2, ... and
	// returns its application-level dump; load reads that dump back.
	advance func(c *mpi.Comm, proc *blcr.Process, round int) (dumpFunc, error)
	load    func(c *mpi.Comm, fs *guestfs.FS, path string) ([]byte, error)
}

// buffer is the synthetic application of Section 4.3: one rank per instance
// holding size bytes of incompressible state. From round 2 on the last keep
// share of the buffer stays as the previous round wrote it, and the dump
// rewrites its file in place.
func buffer(size int, keep float64) workload {
	return workload{ranks: 1, arena: "buffer", dumpBytes: size,
		advance: func(c *mpi.Comm, proc *blcr.Process, round int) (dumpFunc, error) {
			buf, ok := proc.Arena("buffer")
			if !ok {
				buf = proc.Alloc("buffer", size)
			}
			fresh := size
			if round > 1 {
				fresh -= int(keep * float64(size))
			}
			var seed [32]byte
			binary.LittleEndian.PutUint64(seed[:], uint64(c.Rank()<<8|round))
			rand.NewChaCha8(seed).Read(buf[:fresh]) //nolint:errcheck // never fails
			return func(fs *guestfs.FS, path string) error {
				f, err := fs.Open(path)
				if err != nil {
					return fs.WriteFile(path, buf)
				}
				_, err = f.WriteAt(buf, 0)
				return err
			}, nil
		},
		load: func(_ *mpi.Comm, fs *guestfs.FS, path string) ([]byte, error) { return fs.ReadFile(path) },
	}
}

// cm1Job is Section 4.4's case study: four CM1 ranks per instance that
// integrate three steps, then checkpoint once.
func cm1Job() workload {
	return workload{ranks: 4, arena: "cm1.field", dumpBytes: cm1Config.AllocBytes(),
		advance: func(c *mpi.Comm, proc *blcr.Process, _ int) (dumpFunc, error) {
			sim, err := cm1.New(cm1Config, c, proc)
			for i := 0; err == nil && i < 3; i++ {
				err = sim.Step()
			}
			return func(fs *guestfs.FS, path string) error { return sim.WriteCheckpoint(fs, path) }, err
		},
		load: func(c *mpi.Comm, fs *guestfs.FS, path string) ([]byte, error) {
			proc := blcr.NewProcess(pid(c.Rank()))
			sim, err := cm1.New(cm1Config, c, proc)
			if err == nil {
				err = sim.ReadCheckpoint(fs, path)
			}
			field, _ := proc.Arena("cm1.field")
			return field, err
		},
	}
}

func pid(rank int) int                 { return 1000 + rank } // as core.Job numbers them
func statePath(rank int) string        { return fmt.Sprintf("/ckpt/rank-%d.state", rank) }
func imagePath(inst, round int) string { return fmt.Sprintf("/vm-%03d-%d.qcow2", inst, round) }
func snapName(round int) string        { return fmt.Sprintf("ckpt-%d", round) }

// report is one run of one approach at one instance count.
type report struct {
	ckpt       []float64    // s per round, until every instance's snapshot is stored
	stored     []float64    // repository MiB per instance after each round, less those at deploy
	cas        []cas.Stats  // BlobCR: CAS counters at deploy, then after each round
	vmCalls    float64      // BlobCR: version-manager calls per instance checkpoint
	restart    float64      // s to redeploy and read every rank's state back
	mismatches atomic.Int64 // restored states that differ from their shadows
}

// loopback is transport.TCP with no fault injection, which cloud.New's
// FaultNetwork asks for.
type loopback struct{ *transport.TCP }

func (loopback) Partition(string) {}
func (loopback) Heal(string)      {}

// plane is one fresh deployment on loopback TCP: for BlobCR an 8-node cloud
// whose data providers each keep a seglog under a temp dir, for the qcow2
// baselines an 8-server PVFS and the base image their local images overlay.
type plane struct {
	a      approach
	w      workload
	n      int
	rep    *report
	shadow [][32]byte // per rank, at its last checkpoint
	tcp    *transport.TCP
	reg    *obs.Registry
	dir    string
	cloud  *cloud.Cloud
	pfs    *pvfs.Deployment
	raw    vdisk.Device // the qcow2 images' base
	held   float64      // repository bytes at deploy
	calls  uint64       // version-manager calls so far
	err    error        // a failed measurement
}

// run deploys n instances of a on a fresh plane, runs w on every rank
// through rounds global checkpoints, then restarts the job from the last one
// and checks every rank's state against its shadow.
func run(a approach, n int, w workload, rounds int) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	p := &plane{a: a, w: w, n: n, rep: &report{}, shadow: make([][32]byte, n*w.ranks), tcp: transport.NewTCP(), reg: obs.NewRegistry()}
	defer p.close()
	// Each instance's disk holds every rank's dump twice over plus the
	// guest's own files, in whole chunks.
	image := int64((2*w.ranks*w.dumpBytes + 4*mib + chunkSize - 1) / chunkSize * chunkSize)
	var err error
	if !a.blobcr() {
		p.raw = vdisk.NewMem(image)
		if p.pfs, err = pvfs.Deploy(p.tcp, planeNodes); err == nil {
			err = p.runQcow2(ctx, rounds, image)
		}
	} else if p.dir, err = os.MkdirTemp("", "blobcr-bench-"); err == nil {
		p.cloud, err = cloud.New(cloud.Config{Nodes: planeNodes, MetaProviders: 2, Seed: 1, Parallelism: planeNodes,
			Net: loopback{p.tcp}, Obs: p.reg, Stores: blobseer.SeglogStores(p.dir, seglog.Options{Registry: p.reg})})
		if err == nil {
			err = p.runBlobCR(ctx, rounds, image)
		}
	}
	return p.rep, errors.Join(err, p.err)
}

func (p *plane) close() {
	if p.cloud != nil {
		p.cloud.Close()
	}
	if p.pfs != nil {
		p.pfs.Close()
	}
	p.tcp.Close()       //nolint:errcheck // teardown
	os.RemoveAll(p.dir) //nolint:errcheck // teardown
}

// record notes what the repository holds after a round, or at deploy when
// took is 0: BlobSeer's chunk bodies and metadata with its CAS counters and
// version-manager calls, or PVFS's stripes. Rank 0 calls it.
func (p *plane) record(ctx context.Context, took time.Duration) {
	var held uint64
	var err error
	if p.pfs != nil {
		held, err = p.pfs.Client().Usage(ctx)
	} else {
		cl := p.cloud.Client()
		st, cerr := cl.CasStats(ctx, p.cloud.Repository().DataAddrs)
		meta, _, merr := cl.MetaUsage(ctx)
		held, err = st.PhysicalBytes+meta, errors.Join(cerr, merr)
		p.rep.cas = append(p.rep.cas, st)
		calls := p.reg.Histogram("transport_addr_call_ns", obs.L("addr", p.cloud.Repository().VMAddr)).Count()
		p.rep.vmCalls, p.calls = float64(calls-p.calls)/float64(p.n), calls
	}
	p.err = errors.Join(p.err, err)
	if took == 0 {
		p.held = float64(held)
		return
	}
	p.rep.ckpt = append(p.rep.ckpt, took.Seconds())
	p.rep.stored = append(p.rep.stored, (float64(held)-p.held)/mib/float64(p.n))
}

// agree is a collective: every rank learns whether any rank failed, so none
// is left waiting in a collective a failed one never enters.
func agree(c *mpi.Comm, err error) error {
	flag := 0.0
	if err != nil {
		flag = 1
	}
	failed, cerr := c.Allreduce(flag, mpi.OpMax)
	if err == nil && cerr == nil && failed > 0 {
		return errPeer
	}
	return errors.Join(err, cerr)
}

// rankLoop is one rank's life on either plane: advance the state, take its
// shadow, checkpoint it with every other rank, round after round.
func (p *plane) rankLoop(ctx context.Context, c *mpi.Comm, proc *blcr.Process, rounds int, ckpt func(round int, dump dumpFunc) error) error {
	for round := 1; round <= rounds; round++ {
		dump, err := p.w.advance(c, proc, round)
		state, _ := proc.Arena(p.w.arena)
		p.shadow[c.Rank()] = sha256.Sum256(state)
		if err := agree(c, err); err != nil {
			return err
		}
		start := time.Now()
		if err := agree(c, ckpt(round, dump)); err != nil {
			return err
		}
		if c.Rank() == 0 {
			p.record(ctx, time.Since(start))
		}
	}
	return nil
}

// check compares one rank's state, as the restarted instance reads it back,
// with its shadow. proc is the rank's process if the restart already
// restored it from its blcr dump.
func (p *plane) check(c *mpi.Comm, v *vm.Instance, proc *blcr.Process) error {
	var state []byte
	var err error
	switch {
	case p.a == qcow2Full:
		proc, _ = v.Process(pid(c.Rank()))
	case !p.a.blcr():
		state, err = p.w.load(c, v.FS(), statePath(c.Rank()))
	case proc == nil:
		proc, err = blcr.RestoreFromFile(v.FS(), statePath(c.Rank()))
	}
	if proc != nil && state == nil {
		state, _ = proc.Arena(p.w.arena)
	}
	if err == nil && sha256.Sum256(state) != p.shadow[c.Rank()] {
		p.rep.mismatches.Add(1)
	}
	return err
}

// timeRestart runs the restart and records how long it took.
func (p *plane) timeRestart(restart func() error) error {
	start := time.Now()
	err := restart()
	p.rep.restart = time.Since(start).Seconds()
	return err
}

// runBlobCR drives the job through core.Job: each checkpoint goes through
// the instances' proxies, and the restart redeploys every instance on
// another node.
func (p *plane) runBlobCR(ctx context.Context, rounds int, image int64) error {
	base, err := p.cloud.UploadBaseImage(ctx, make([]byte, image), chunkSize)
	if err != nil {
		return err
	}
	mode := core.AppLevel
	if p.a.blcr() {
		mode = core.ProcessLevel
	}
	job, err := core.NewJob(ctx, p.cloud, base, core.JobConfig{Instances: p.n, RanksPerVM: p.w.ranks, Mode: mode, VMConfig: guestConfig})
	if err != nil {
		return err
	}
	p.record(ctx, 0)
	err = job.Run(func(r *core.Rank) error {
		return p.rankLoop(ctx, r.Comm, r.Proc, rounds, func(_ int, dump dumpFunc) error {
			_, err := r.Checkpoint(ctx, func(fs *guestfs.FS) error { return dump(fs, r.StatePath()) })
			return err
		})
	})
	if err != nil {
		return err
	}
	return p.timeRestart(func() error { // checkpoint ids count from 1, so the last is rounds
		return job.Restart(ctx, rounds, func(r *core.Rank) error { return p.check(r.Comm, r.Instance().VM, r.Proc) })
	})
}

// runQcow2 drives the job on local qcow2 image files and restarts it from
// the copies in PVFS alone.
func (p *plane) runQcow2(ctx context.Context, rounds int, image int64) error {
	if err := p.checkpointQcow2(ctx, rounds, image); err != nil {
		return err
	}
	check := mpi.NewWorld(p.n * p.w.ranks)
	defer check.Close()
	return p.timeRestart(func() error {
		return forEach(p.n, func(i int) error {
			v, err := p.restore(ctx, i, rounds)
			for r := i * p.w.ranks; err == nil && r < (i+1)*p.w.ranks; r++ {
				err = p.check(check.Comm(r), v, nil)
			}
			return err
		})
	})
}

// checkpointQcow2 boots the instances on local qcow2 images over the base.
// At each checkpoint the ranks dump into their guest, then each instance's
// first rank suspends it, savevm's it into an internal snapshot (qcow2-full
// only) and copies the image file into PVFS as a new file.
func (p *plane) checkpointQcow2(ctx context.Context, rounds int, image int64) error {
	files, imgs := make([]*vdisk.Buffer, p.n), make([]*qcow2.Image, p.n)
	vms, procs := make([]*vm.Instance, p.n), make([]*blcr.Process, p.n*p.w.ranks)
	for i := range vms {
		files[i] = vdisk.NewBuffer()
		var err error
		if imgs[i], err = qcow2.Create(files[i], qcow2.DefaultClusterSize, image, p.raw, "base.raw"); err != nil {
			return err
		}
		vms[i] = vm.New(fmt.Sprintf("vm-%03d", i), imgs[i], guestConfig)
		if err := vms[i].Boot(); err != nil {
			return err
		}
		if err := vms[i].FS().MkdirAll("/ckpt"); err != nil {
			return err
		}
		for r := i * p.w.ranks; r < (i+1)*p.w.ranks; r++ {
			procs[r] = blcr.NewProcess(pid(r))
			if err := vms[i].AddProcess(procs[r]); err != nil {
				return err
			}
		}
	}
	p.record(ctx, 0)
	world := mpi.NewWorld(p.n * p.w.ranks)
	defer world.Close()
	return world.Run(func(c *mpi.Comm) error {
		i, proc := c.Rank()/p.w.ranks, procs[c.Rank()]
		v, img := vms[i], imgs[i]
		return p.rankLoop(ctx, c, proc, rounds, func(round int, dump dumpFunc) error {
			var err error
			switch {
			case p.a == qcow2Full: // savevm captures the process itself
			case p.a.blcr():
				_, err = proc.CheckpointToFile(v.FS(), statePath(c.Rank()))
			default:
				err = dump(v.FS(), statePath(c.Rank()))
			}
			if err = agree(c, err); err != nil || c.Rank()%p.w.ranks != 0 {
				return err
			}
			if err := v.FS().Sync(); err != nil {
				return err
			}
			if err := v.Suspend(); err != nil {
				return err
			}
			if p.a == qcow2Full {
				state, err := v.SaveVM()
				if err == nil {
					err = img.Snapshot(snapName(round), state)
				}
				if err != nil {
					return err
				}
			}
			if err := img.Flush(); err != nil {
				return err
			}
			if _, err := CopyToPVFS(ctx, p.pfs.Client(), files[i], imagePath(i, round)); err != nil {
				return err
			}
			if p.a == qcow2Full && round > 1 { // the new copy holds every internal snapshot
				if err := p.pfs.Client().Unlink(ctx, imagePath(i, round-1)); err != nil {
					return err
				}
			}
			return v.Resume()
		})
	})
}

// restore re-creates instance i from its round's image in PVFS: qcow2-disk
// reboots from it, qcow2-full loadvm's its internal snapshot.
func (p *plane) restore(ctx context.Context, i, round int) (*vm.Instance, error) {
	file, err := FetchFromPVFS(ctx, p.pfs.Client(), imagePath(i, round))
	if err != nil {
		return nil, err
	}
	img, err := qcow2.Open(file, p.raw)
	if err != nil {
		return nil, err
	}
	v := vm.New(fmt.Sprintf("vm-%03d", i), img, guestConfig)
	if p.a != qcow2Full {
		return v, v.Boot()
	}
	state, err := img.RestoreSnapshot(snapName(round))
	if err == nil {
		err = v.LoadVM(state)
	}
	if err == nil {
		err = v.Resume()
	}
	return v, err
}

// forEach runs f(0), ..., f(n-1) concurrently and joins their errors.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CopyToPVFS stores an image file in PVFS as a new file at path, a stripe
// at a time: the qcow2-disk checkpoint, where "the checkpointing proxy
// simply copies the locally stored qcow2 image to PVFS as a new file". It
// returns the bytes copied.
func CopyToPVFS(ctx context.Context, c *pvfs.Client, src *vdisk.Buffer, path string) (int64, error) {
	f, err := c.Create(ctx, path, 0)
	if err != nil {
		return 0, err
	}
	size := src.Size()
	buf := make([]byte, chunkSize)
	for off := int64(0); off < size; off += chunkSize {
		n := min(chunkSize, size-off)
		if err := vdisk.ReadFull(src, buf[:n], off); err != nil {
			return off, err
		}
		if _, err := f.WriteAt(buf[:n], off); err != nil {
			return off, err
		}
	}
	return size, nil
}

// FetchFromPVFS loads a PVFS file back into a fresh image file: the qcow2
// baselines' restart.
func FetchFromPVFS(ctx context.Context, c *pvfs.Client, path string) (*vdisk.Buffer, error) {
	f, err := c.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	out := vdisk.NewBuffer()
	buf := make([]byte, chunkSize)
	for off := int64(0); off < f.Size(); off += chunkSize {
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		out.WriteAt(buf[:n], off) //nolint:errcheck // a memory buffer grows to fit
	}
	return out, nil
}
