package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"blobcr/internal/blcr"
	"blobcr/internal/cloud"
	"blobcr/internal/repair"
)

// TestRepeatedFailuresAndRollbacks drives a ProcessLevel job through three
// failure/rollback cycles, checkpointing progress between failures, and
// verifies monotone progress is never lost beyond the last checkpoint.
func TestRepeatedFailuresAndRollbacks(t *testing.T) {
	c, err := cloud.New(cloud.Config{Nodes: 8, MetaProviders: 2, Replication: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	base, err := c.UploadBaseImage(ctx, make([]byte, 512*1024), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(ctx, c, base, JobConfig{Instances: 2, Mode: ProcessLevel, VMConfig: vmCfg()})
	if err != nil {
		t.Fatal(err)
	}

	const perPhase = 10
	body := func(r *Rank) error {
		var counter []byte
		if r.Restored {
			var ok bool
			counter, ok = r.Proc.Arena("counter")
			if !ok {
				return fmt.Errorf("rank %d: lost counter across restart", r.Comm.Rank())
			}
		} else {
			counter = r.Proc.Alloc("counter", 8)
		}
		v := binary.LittleEndian.Uint64(counter)
		binary.LittleEndian.PutUint64(counter, v+perPhase)
		r.Proc.SetRegisters(blcr.Registers{PC: v + perPhase})
		_, err := r.Checkpoint(ctx, nil)
		return err
	}

	if err := job.Run(body); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		victim := job.Deployment().Instances[round%2].Node.Name
		if err := c.FailNode(ctx, victim); err != nil {
			t.Fatal(err)
		}
		c.KillDeploymentInstancesOn(job.Deployment())
		// Two replicas ride out one failure at a time: re-replicate what the
		// dead provider held before the next round kills another node.
		if _, err := repair.New(repair.Config{Client: c.Client()}).Repair(ctx); err != nil {
			t.Fatalf("round %d repair: %v", round, err)
		}
		ckpt, err := job.LatestCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Restart(ctx, ckpt, body); err != nil {
			t.Fatalf("round %d restart: %v", round, err)
		}
	}
	// After initial run + 3 rollback rounds, progress = 4 phases.
	ckpt, _ := job.LatestCheckpoint()
	cp := job.Deployment().Checkpoints()[ckpt-1]
	for vmID, ref := range cp.Snapshots {
		fs, err := InspectSnapshot(ctx, c, ref)
		if err != nil {
			t.Fatal(err)
		}
		// Both ranks' dumps exist; restore one and check its counter.
		dump, err := fs.ReadFile("/ckpt/rank-0.state")
		if err != nil {
			if _, e2 := fs.ReadFile("/ckpt/rank-1.state"); e2 != nil {
				t.Fatalf("%s: no dumps in final snapshot", vmID)
			}
			continue
		}
		p, err := blcr.Restore(dump)
		if err != nil {
			t.Fatal(err)
		}
		counter, _ := p.Arena("counter")
		got := binary.LittleEndian.Uint64(counter)
		if got != 4*perPhase {
			t.Errorf("%s: final counter = %d, want %d", vmID, got, 4*perPhase)
		}
	}
}

// TestPruneDuringJobKeepsRestartable prunes old checkpoints mid-job and
// verifies the kept one still restarts (middleware GC + framework).
func TestPruneDuringJobKeepsRestartable(t *testing.T) {
	c, err := cloud.New(cloud.Config{Nodes: 4, MetaProviders: 2, Replication: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	base, err := c.UploadBaseImage(ctx, make([]byte, 512*1024), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(ctx, c, base, JobConfig{Instances: 2, Mode: ProcessLevel, VMConfig: vmCfg()})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(func(r *Rank) error {
		buf := r.Proc.Alloc("x", 32*1024)
		for i := 0; i < 4; i++ {
			buf[0] = byte(i + 1)
			if _, err := r.Checkpoint(ctx, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	latest, _ := job.LatestCheckpoint()
	stats, err := c.Prune(ctx, job.Deployment(), latest)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if stats.DeletedChunks == 0 {
		t.Error("prune reclaimed nothing after 4 checkpoints")
	}
	err = job.Restart(ctx, latest, func(r *Rank) error {
		buf, ok := r.Proc.Arena("x")
		if !ok || buf[0] != 4 {
			return fmt.Errorf("rank %d: wrong state after prune+restart", r.Comm.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restart after prune: %v", err)
	}
}

// TestManyRanksManyVMs runs a wider job (4 VMs x 2 ranks) through
// checkpoint and restart to shake out coordination races.
func TestManyRanksManyVMs(t *testing.T) {
	c, err := cloud.New(cloud.Config{Nodes: 6, MetaProviders: 3, Replication: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	base, err := c.UploadBaseImage(ctx, make([]byte, 512*1024), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(ctx, c, base, JobConfig{Instances: 4, RanksPerVM: 2, Mode: ProcessLevel, VMConfig: vmCfg()})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(func(r *Rank) error {
		buf := r.Proc.Alloc("id", 8)
		binary.LittleEndian.PutUint64(buf, uint64(r.Comm.Rank()))
		// Neighbour exchange before checkpointing, to put traffic on the
		// channels the drain must handle.
		next := (r.Comm.Rank() + 1) % r.Comm.Size()
		prev := (r.Comm.Rank() + r.Comm.Size() - 1) % r.Comm.Size()
		if err := r.Comm.Send(next, 1, buf); err != nil {
			return err
		}
		if _, err := r.Comm.Recv(prev, 1); err != nil {
			return err
		}
		_, err := r.Checkpoint(ctx, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := job.LatestCheckpoint()
	err = job.Restart(ctx, ckpt, func(r *Rank) error {
		buf, ok := r.Proc.Arena("id")
		if !ok {
			return fmt.Errorf("rank %d: no id arena", r.Comm.Rank())
		}
		if got := binary.LittleEndian.Uint64(buf); got != uint64(r.Comm.Rank()) {
			return fmt.Errorf("rank %d restored rank-%d's memory", r.Comm.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
