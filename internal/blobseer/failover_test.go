package blobseer

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"blobcr/internal/transport"
)

// trapNet wraps an in-process network and partitions a victim address the
// first time a large request (a chunk-body upload) is about to reach it —
// the provider dies mid-commit, before taking the body.
type trapNet struct {
	*transport.InProc

	mu      sync.Mutex
	victim  string
	armed   bool
	tripped bool
}

const trapBodyThreshold = 1024

func (n *trapNet) Call(ctx context.Context, addr string, req []byte) ([]byte, error) {
	if len(req) >= trapBodyThreshold {
		n.mu.Lock()
		if n.armed && addr == n.victim {
			n.armed = false
			n.tripped = true
			n.InProc.Partition(n.victim)
		}
		n.mu.Unlock()
	}
	return n.InProc.Call(ctx, addr, req)
}

func (n *trapNet) arm(victim string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.victim = victim
	n.armed = true
	n.tripped = false
}

func (n *trapNet) didTrip() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tripped
}

// TestWritePathFailover runs a partition-during-commit scenario: enough
// fresh chunks that rendezvous placement sends at least one body to the
// victim provider, which dies the moment the body arrives. The commit must
// fail over to live providers and publish a fully readable snapshot.
func TestWritePathFailover(t *testing.T) {
	ctx := context.Background()
	net := &trapNet{InProc: transport.NewInProc()}
	d, err := Deploy(net, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.Client()

	const cs = 2048
	blob, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a first version before the trouble starts.
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, cs)}, 16*cs); err != nil {
		t.Fatal(err)
	}

	// Commit 8 fresh chunks with the victim set to die on first contact.
	writes := make(map[uint64][]byte)
	for i := uint64(0); i < 8; i++ {
		writes[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, cs)
	}
	net.arm(d.DataAddrs[0])
	info, err := c.WriteVersion(ctx, blob, writes, 16*cs)
	if err != nil {
		t.Fatalf("commit with provider dying mid-commit: %v", err)
	}
	if !net.didTrip() {
		t.Fatal("victim provider never saw a body: scenario did not exercise failover")
	}

	// Every chunk is readable — the failed-over replicas landed on live
	// providers and the metadata points at them.
	for i := uint64(0); i < 8; i++ {
		got, err := c.ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, i*cs, cs)
		if err != nil {
			t.Fatalf("read chunk %d after failover: %v", i, err)
		}
		if !bytes.Equal(got, writes[i]) {
			t.Fatalf("chunk %d corrupted after failover", i)
		}
	}

	// A subsequent commit (victim still dead and still registered) works too.
	if _, err := c.WriteVersion(ctx, blob, map[uint64][]byte{9: bytes.Repeat([]byte{0xBB}, cs)}, 16*cs); err != nil {
		t.Fatalf("follow-up commit with dead provider: %v", err)
	}
}
