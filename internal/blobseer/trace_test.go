package blobseer

import (
	"context"
	"testing"

	"blobcr/internal/obs"
	"blobcr/internal/transport"
)

// TestTracePropagationEveryBatchVerb drives every batched wire verb under
// one distributed trace and asserts each server-side handler span parented
// under the client's matching RPC span — the propagation contract that makes
// cross-process assembly possible. The deployment is traced (one registry
// per service), so the spans are collected exactly as the TRACE wire verb
// would return them.
func TestTracePropagationEveryBatchVerb(t *testing.T) {
	net := transport.NewInProc()
	repo, err := DeployTraced(net, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	clientReg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), clientReg)
	ctx, trace := obs.BeginTrace(ctx)
	ctx, root := obs.StartSpan(ctx, "test/root")

	const cs = 4096
	chunks := make(map[uint64][]byte)
	for i := uint64(0); i < 8; i++ {
		body := make([]byte, cs)
		for j := range body {
			body[j] = byte(i)
		}
		chunks[i] = body
	}

	// cas-ref-batch (the fingerprint probe), cas-put-batch (the missing
	// bodies) and node-put-batch on write; chunk-get-batch + node-get-batch
	// on read — through a second client, because the writer's node cache
	// holds every node it just put and would read without node-get-batch.
	c := repo.Client()
	c.Parallelism = 4
	blob, err := c.CreateBlob(ctx, cs)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WriteVersion(ctx, blob, chunks, 8*cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Client().ReadVersion(ctx, SnapshotRef{Blob: blob, Version: info.Version}, 0, 8*cs); err != nil {
		t.Fatal(err)
	}
	root.End()

	var serverSpans []obs.SpanRecord
	for _, reg := range repo.Registries {
		serverSpans = append(serverSpans, reg.TraceSpans(trace)...)
	}
	clientByID := make(map[uint64]obs.SpanRecord)
	for _, s := range clientReg.TraceSpans(trace) {
		clientByID[s.ID] = s
	}

	for _, verb := range []string{
		"cas-ref-batch", "cas-put-batch", "chunk-get-batch",
		"node-put-batch", "node-get-batch",
	} {
		var handlers []obs.SpanRecord
		for _, s := range serverSpans {
			if s.Name == "handler/"+verb {
				handlers = append(handlers, s)
			}
		}
		if len(handlers) == 0 {
			t.Errorf("%s: no handler span reached any server registry", verb)
			continue
		}
		for _, h := range handlers {
			if h.Trace != trace {
				t.Errorf("%s: handler span carries trace %x, want %x", verb, h.Trace, trace)
			}
			parent, ok := clientByID[h.Parent]
			if !ok {
				t.Errorf("%s: handler parent %x not among the client's spans", verb, h.Parent)
				continue
			}
			if parent.Name != "rpc/"+verb {
				t.Errorf("%s: handler parented under %q, want %q", verb, parent.Name, "rpc/"+verb)
			}
		}
	}
}

// TestDataProviderServesHandlerSpans: a live data provider's introspection
// ops answer from the registry its handlers record into — the spans of one
// traced commit come back over trace-get, and flight-get dumps a ring that
// handling requests filled.
func TestDataProviderServesHandlerSpans(t *testing.T) {
	net := transport.NewInProc()
	repo, err := DeployTraced(net, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	cl := repo.Client()
	cl.Parallelism = 2
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	ctx, trace := obs.BeginTrace(ctx)
	ctx, root := obs.StartSpan(ctx, "root")
	blob, err := cl.CreateBlob(ctx, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WriteVersion(ctx, blob, map[uint64][]byte{0: make([]byte, 4096)}, 4096); err != nil {
		t.Fatal(err)
	}
	root.End()

	dataAddr := repo.DataAddrs[0]
	spans, err := transport.Trace(ctx, net, dataAddr, trace)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range spans {
		if s.Name == "handler/cas-put-batch" && s.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Errorf("provider's trace-get reply lacks the cas-put-batch handler span: %+v", spans)
	}
	flight, err := transport.Flight(ctx, net, dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(flight) == 0 {
		t.Error("provider's flight-get reply empty after handling requests")
	}
}
