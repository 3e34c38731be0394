package supervisor_test

// Storage-plane self-healing: with Config.Repair set, a confirmed node
// failure triggers a background scrub + re-replication pass, so the
// repository returns to full replication with zero operator action — the
// storage-plane twin of the compute-plane recovery the other tests cover.

import (
	"testing"
	"time"

	"blobcr/internal/cloud"
	"blobcr/internal/repair"
	"blobcr/internal/supervisor"
	"blobcr/internal/vm"
)

func TestFailureTriggersStorageRepair(t *testing.T) {
	cl, err := cloud.New(cloud.Config{Nodes: 4, MetaProviders: 2, Replication: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	base, err := cl.UploadBaseImage(ctx, make([]byte, 256*1024), e2eChunk)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cl.Deploy(ctx, 2, base, vm.Config{BlockSize: 512, BootNoiseBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	rep := repair.New(repair.Config{Client: cl.Client()})
	sup := supervisor.New(cl, dep, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    20 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour,
		MaxInterval:    time.Hour,
		BackoffBase:    2 * time.Millisecond,
		PartialRestart: true,
		Repair:         rep,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(t.Context()) // cancelled when the test ends
	}()
	t.Cleanup(func() { <-done })

	// A durable checkpoint, then an unannounced node failure.
	for _, inst := range dep.Instances {
		inst.VM.FS().WriteFile("/progress", []byte("round-1"))
	}
	id, err := sup.CheckpointNow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for dep.DurableWatermark() < id {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never became durable")
		}
		time.Sleep(time.Millisecond)
	}
	victim := dep.Instances[0].Node
	net := cl.Network()
	net.Partition(victim.ProxyAddr)
	net.Partition(victim.DataAddr)
	for _, inst := range dep.Instances {
		if inst.Node == victim {
			inst.VM.Kill()
		}
	}

	// The supervisor recovers the compute plane...
	for {
		if _, gen := sup.Deployment(); gen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never completed: %+v", sup.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the triggered repair heals the storage plane.
	for {
		var repaired, failed bool
		for _, e := range sup.Events().Since(0) {
			switch e.Type {
			case supervisor.EventRepairDone:
				repaired = true
			case supervisor.EventRepairFailed:
				failed = true
			}
		}
		if failed {
			t.Fatalf("storage repair failed: %v", sup.Events().Since(0))
		}
		if repaired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no storage-repair-done event: %v", sup.Events().Since(0))
		}
		time.Sleep(time.Millisecond)
	}
	m := sup.Metrics()
	if m.StorageRepairs == 0 || m.ReplicasRestored == 0 {
		t.Fatalf("repair metrics empty: %+v", m)
	}
	// The plane is whole again: a scrub on the surviving membership is clean.
	scrub, err := rep.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !scrub.Clean() {
		t.Fatalf("post-repair scrub dirty: %s", scrub)
	}
}
