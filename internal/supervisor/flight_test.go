package supervisor_test

// The flight-recorder acceptance path: a provider dies unannounced, and the
// supervisor — which has been mirroring every node's flight ring during
// heartbeat rounds — archives the victim's last dump at confirmation. The
// dump must contain the provider's final group-commit spans: the post-mortem
// shows the durable work the storage engine completed just before death.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"blobcr/internal/blobseer"
	"blobcr/internal/cloud"
	"blobcr/internal/obs"
	"blobcr/internal/seglog"
	"blobcr/internal/supervisor"
	"blobcr/internal/vm"
)

// randomImage returns 256 KiB of seeded noise: bodies the repository already
// holds (or all-zero ones) would dedup away and give the segment logs no
// group commit to record.
func randomImage(seed int64) []byte {
	img := make([]byte, 256*1024)
	rand.New(rand.NewSource(seed)).Read(img)
	return img
}

func TestConfirmedDeathArchivesFlightDump(t *testing.T) {
	cl, err := cloud.New(cloud.Config{
		Nodes:         2,
		MetaProviders: 1,
		Replication:   2, // every chunk survives the single-node kill
		Seed:          7,
		Stores:        blobseer.SeglogStores(t.TempDir(), seglog.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// The upload spreads chunks across both co-located providers: each one's
	// segment log group-commits them, recording seglog/groupcommit spans into
	// its flight ring.
	base, err := cl.UploadBaseImage(ctx, randomImage(1), e2eChunk)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cl.Deploy(ctx, 1, base, vm.Config{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Deploy-time boot reads churn the bounded flight ring; a second upload
	// makes group commits the providers' *final* durable work before death —
	// the spans the archived dump must prove were mirrored in time.
	if _, err := cl.UploadBaseImage(ctx, randomImage(2), e2eChunk); err != nil {
		t.Fatal(err)
	}

	sup := supervisor.New(cl, dep, supervisor.Config{
		HeartbeatEvery: 2 * time.Millisecond,
		PingTimeout:    10 * time.Millisecond,
		SuspectAfter:   2,
		MinInterval:    time.Hour, // no automatic checkpoints in this test
		MaxInterval:    time.Hour,
	})
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(runCtx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	// The victim hosts no member: its death exercises pure detection +
	// archival, with no rollback in the way.
	member := dep.Instances[0].Node
	var victim *cloud.Node
	for _, n := range cl.Nodes() {
		if n != member {
			victim = n
		}
	}
	if victim == nil {
		t.Fatal("no non-member node to kill")
	}

	// Wait until the supervisor has mirrored the victim's ring at least once.
	waitFor(t, 10*time.Second, "first flight mirror", func() bool {
		d, ok := sup.Flight(victim.Name)
		return ok && len(d.Spans) > 0
	})

	// The node goes dark without notice.
	net := cl.Network()
	net.Partition(victim.ProxyAddr)
	net.Partition(victim.DataAddr)

	waitFor(t, 10*time.Second, "flight dump archived", func() bool {
		d, ok := sup.Flight(victim.Name)
		return ok && d.Final
	})

	dump, _ := sup.Flight(victim.Name)
	if !hasSpanNamed(dump.Spans, "seglog/groupcommit") {
		names := map[string]bool{}
		for _, s := range dump.Spans {
			names[s.Name] = true
		}
		t.Errorf("archived dump lacks the provider's group-commit spans; %d spans with names %v",
			len(dump.Spans), names)
	}

	// The archival is evented.
	archived := false
	for _, e := range sup.Events().Since(0) {
		if e.Type == supervisor.EventFlightArchived && e.Node == victim.Name {
			archived = true
		}
	}
	if !archived {
		t.Error("no flight-archived event for the dead node")
	}

	// The dump is served over the wire by the FLIGHT op, marked final.
	srv, err := sup.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spans, final, err := supervisor.Flight(ctx, net, srv.Addr(), victim.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !final {
		t.Errorf("FLIGHT %s is not marked final", victim.Name)
	}
	if !hasSpanNamed(spans, "seglog/groupcommit") {
		t.Error("wire FLIGHT reply lacks the group-commit spans")
	}

	// Unknown nodes get a clean error, not an empty dump.
	if spans, _, err := supervisor.Flight(ctx, net, srv.Addr(), "no-such-node"); err == nil {
		t.Errorf("FLIGHT for an unknown node returned %d spans, want an error", len(spans))
	}
}

func hasSpanNamed(spans []obs.SpanRecord, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
