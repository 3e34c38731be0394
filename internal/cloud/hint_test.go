package cloud

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"blobcr/internal/obs"
	"blobcr/internal/vm"
)

// TestSecondRestartReplaysTheFirstOnesBootSet is the boot-set hint end to
// end. Restart #1 of a checkpoint demand-faults its boot set — the guest's
// own boot and the application's first reads. Restart #2 of the same
// checkpoint runs on another node with a cold repository client, and no
// caller hands it a chunk list: the attach inside Restart replays what #1
// needed. #2 then faults nothing, costs fewer chunk calls and no more
// metadata calls, and reads the same bytes, every body verified against its
// content hash by the read engine on the way in.
func TestSecondRestartReplaysTheFirstOnesBootSet(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{Nodes: 3, MetaProviders: 2, Replication: 2, Seed: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// A four-level tree, as deep as the benchmark's sparse image's.
	const chunks = 1 << 14
	base := uploadBase(t, c, chunks*chunkSize)
	dep, err := c.Deploy(ctx, 1, base, vm.Config{BlockSize: 512, BootNoiseBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// The application's state, in the upper half of the disk, beyond the
	// guest file system's reach; boot is what the application reads first.
	rng := rand.New(rand.NewSource(27))
	state := make([]byte, chunks/2*chunkSize)
	boot := rng.Perm(chunks / 2)[:32]
	for _, rel := range boot {
		body := state[rel*chunkSize : (rel+1)*chunkSize]
		rng.Read(body)
		if _, err := dep.Instances[0].VM.Disk().WriteAt(body, int64((chunks/2+rel)*chunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := dep.Instances[0].Proxy.RequestCheckpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.RecordCheckpoint(dep, map[string]SnapshotRef{dep.Instances[0].VMID: ref})
	if err != nil {
		t.Fatal(err)
	}

	type cost struct{ faults, chunkCalls, nodeCalls uint64 }
	read := func() cost {
		return cost{
			reg.Counter("mirror_demand_faults_total").Value(),
			reg.Counter("transport_calls_total", obs.L("verb", "chunk-get-batch")).Value(),
			reg.Counter("transport_calls_total", obs.L("verb", "node-get-batch")).Value(),
		}
	}
	restart := func(which string) cost {
		t.Helper()
		before := read()
		if dep, err = c.Restart(ctx, dep, id); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, chunkSize)
		for _, rel := range boot {
			if _, err := dep.Instances[0].VM.Disk().ReadAt(buf, int64((chunks/2+rel)*chunkSize)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, state[rel*chunkSize:(rel+1)*chunkSize]) {
				t.Fatalf("%s: boot-set chunk %d reads back wrong", which, chunks/2+rel)
			}
		}
		after := read()
		return cost{after.faults - before.faults, after.chunkCalls - before.chunkCalls, after.nodeCalls - before.nodeCalls}
	}

	first := restart("restart #1")
	if first.faults < uint64(len(boot)) {
		t.Fatalf("restart #1 faulted %d chunks, want at least the %d of the boot set", first.faults, len(boot))
	}
	// Restart #1's publisher puts its demand record off the guest's path.
	cl := c.Client()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		hint, err := cl.GetHint(ctx, ref.Blob)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(hint)) == first.faults {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("published hint holds %d chunks, want the %d restart #1 faulted", len(hint), first.faults)
		}
	}
	second := restart("restart #2")
	if second.faults != 0 {
		t.Errorf("restart #2 faulted %d chunks, want 0", second.faults)
	}
	if second.chunkCalls >= first.chunkCalls || second.nodeCalls > first.nodeCalls {
		t.Errorf("restart #2 cost %d chunk and %d node calls, restart #1 %d and %d: want fewer chunk calls and no more node calls",
			second.chunkCalls, second.nodeCalls, first.chunkCalls, first.nodeCalls)
	}
	t.Logf("restart #1: %+v; restart #2: %+v", first, second)
}
