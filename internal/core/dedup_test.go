package core

import (
	"bytes"
	"fmt"
	"testing"

	"blobcr/internal/blobseer"
	"blobcr/internal/cloud"
	"blobcr/internal/guestfs"
)

// TestDedupJobCheckpointRestartPrune runs a full job with the
// content-addressed repository enabled: convergent state across ranks and
// re-dumped state across rounds must dedup (bodies shipped once), and
// restart and prune must keep working on deduplicated snapshots.
func TestDedupJobCheckpointRestartPrune(t *testing.T) {
	c, err := cloud.New(cloud.Config{Nodes: 4, MetaProviders: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	base, err := c.UploadBaseImage(ctx, make([]byte, 512*1024), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(ctx, c, base, JobConfig{Instances: 2, Mode: AppLevel, VMConfig: vmCfg()})
	if err != nil {
		t.Fatal(err)
	}

	// Every rank dumps the same state twice (convergent application state,
	// rewritten in place each round — the Figure 5 workload).
	state := bytes.Repeat([]byte{0xAB}, 64*1024)
	err = job.Run(func(r *Rank) error {
		for round := 0; round < 2; round++ {
			_, err := r.Checkpoint(ctx, func(fs *guestfs.FS) error {
				return fs.WriteFile(r.StatePath(), state)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The repository shipped strictly less than the logical volume: chunks
	// repeated across rounds and across the two VMs were never re-sent.
	var total blobseer.CommitStats
	for _, inst := range job.Deployment().Instances {
		total.Add(inst.Mirror.CommitStats())
	}
	if total.DedupChunks == 0 {
		t.Fatalf("no dedup hits across %d committed chunks", total.Chunks)
	}
	if total.TransferBytes >= total.LogicalBytes {
		t.Fatalf("transfer %d >= logical %d: dedup saved nothing", total.TransferBytes, total.LogicalBytes)
	}

	// Restart from the latest checkpoint on deduplicated snapshots.
	ckpt, err := job.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	err = job.Restart(ctx, ckpt, func(r *Rank) error {
		got, err := r.FS().ReadFile(r.StatePath())
		if err != nil {
			return err
		}
		if !bytes.Equal(got, state) {
			return fmt.Errorf("rank %d: state corrupted after restart", r.Comm.Rank())
		}
		// One more checkpoint after restart, then prune below it.
		_, err = r.Checkpoint(ctx, func(fs *guestfs.FS) error {
			return fs.WriteFile(r.StatePath(), state)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	latest, err := job.LatestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prune(ctx, job.Deployment(), latest); err != nil {
		t.Fatalf("prune on dedup repository: %v", err)
	}
	err = job.Restart(ctx, latest, func(r *Rank) error {
		got, err := r.FS().ReadFile(r.StatePath())
		if err != nil {
			return fmt.Errorf("rank %d after prune: %w", r.Comm.Rank(), err)
		}
		if !bytes.Equal(got, state) {
			return fmt.Errorf("rank %d: state corrupted after prune+restart", r.Comm.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
