package repair

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"blobcr/internal/blobseer"
)

// TestJoinMidCommitBecomesPlacementEligible: a provider that JOINs while
// commits are in flight disturbs none of them, and becomes placement-
// eligible for the commits that follow.
func TestJoinMidCommitBecomesPlacementEligible(t *testing.T) {
	_, d, c := deploy(t, 3)
	const (
		chunk   = 1024
		writers = 4
		rounds  = 10
	)
	join := make(chan struct{})
	var joined string
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blob, err := c.CreateBlob(ctx, chunk)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				if w == 0 && r == rounds/2 {
					close(join) // fire the JOIN mid-stream
				}
				body := bytes.Repeat([]byte{byte(w), byte(r)}, chunk/2)
				info, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: body, 1: body}, 2*chunk)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				got, err := c.ReadVersion(ctx, blobseer.SnapshotRef{Blob: blob, Version: info.Version}, 0, chunk)
				if err != nil || !bytes.Equal(got, body) {
					errs <- fmt.Errorf("writer %d round %d: read back: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-join
		addr, err := d.AddDataProvider(ctx)
		if err != nil {
			errs <- err
			return
		}
		joined = addr
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Active()) != 4 {
		t.Fatalf("membership after join: %v", m.Providers)
	}
	// Fresh content after the join must be eligible to land on the newcomer:
	// commit distinct chunks until rendezvous ranks the new provider first
	// for some of them.
	blob, err := c.CreateBlob(ctx, chunk)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		writes := make(map[uint64][]byte)
		for i := 0; i < 8; i++ {
			writes[uint64(i)] = bytes.Repeat([]byte{0xEE, byte(r), byte(i)}, chunk/3)
		}
		if _, err := c.WriteVersion(ctx, blob, writes, 8*chunk); err != nil {
			t.Fatal(err)
		}
	}
	stores := d.DataProviderStores()
	if stores[len(stores)-1].Len() == 0 {
		t.Fatalf("joined provider %s never received a placement", joined)
	}
	// The whole plane scrubs clean across the widened membership.
	rep, err := New(Config{Client: c}).Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-join scrub dirty: %s", rep)
	}
}

// TestDecommissionDrainsFully: DECOMMISSION moves every replica off the
// drained provider (no chunk left only there — in fact none left at all,
// since the relocated references reclaim the drained bodies), retires it
// from the membership, and the repository survives the provider going dark
// afterwards.
func TestDecommissionDrainsFully(t *testing.T) {
	net, d, c := deploy(t, 4)
	blob, want := commitVersions(t, c, 1024, 16, 3)
	victim := d.DataAddrs[0]

	r := New(Config{Client: c})
	rep, err := r.Drain(ctx, victim)
	if err != nil {
		t.Fatalf("drain: %v (%s)", err, rep.Post)
	}
	if rep.ReplicasRestored == 0 {
		t.Fatalf("drain moved nothing: %s", rep)
	}
	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Providers {
		if p.Addr == victim {
			t.Fatalf("victim still a member after drain: %v", m.Providers)
		}
	}
	// The drained provider holds no live chunk — the relocated references
	// released its bodies entirely.
	if n := d.DataProviderStores()[0].Len(); n != 0 {
		t.Fatalf("drained provider still holds %d chunks", n)
	}
	// It can now go dark without any data loss.
	net.Partition(victim)
	readAll(t, c, blob, want)
	post, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Clean() {
		t.Fatalf("post-drain scrub dirty: %s", post)
	}
}

// TestPartitionDuringDrain: a provider that dies after the drain started
// (marked DRAINING, nothing moved yet) degrades into the dead-provider
// repair — its replicas are restored from the survivors — and the drain
// still completes with the provider retired.
func TestPartitionDuringDrain(t *testing.T) {
	net, d, c := deploy(t, 4)
	blob, want := commitVersions(t, c, 1024, 16, 3)
	victim := d.DataAddrs[0]

	// The drain begins: the provider is marked DRAINING...
	if err := c.DrainProvider(ctx, victim); err != nil {
		t.Fatal(err)
	}
	// ...and dies before the repair plane moved anything.
	net.Partition(victim)

	r := New(Config{Client: c})
	rep, err := r.Drain(ctx, victim)
	if err != nil {
		t.Fatalf("drain after partition: %v (%s)", err, rep.Post)
	}
	if rep.ReplicasRestored == 0 {
		t.Fatalf("nothing re-replicated from the survivors: %s", rep)
	}
	m, err := c.Membership(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Providers {
		if p.Addr == victim {
			t.Fatalf("victim still a member: %v", m.Providers)
		}
	}
	readAll(t, c, blob, want)
	post, err := r.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Clean() {
		t.Fatalf("post-drain scrub dirty: %s", post)
	}
}
