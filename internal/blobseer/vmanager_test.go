package blobseer

import (
	"context"
	"testing"
	"time"

	"blobcr/internal/transport"
)

// TestCommitAnswersOnlyOncePublished: the version manager publishes in
// ticket order, so a commit that arrives while an earlier ticket is still
// open answers only once that ticket is aborted (or committed) — the
// version a commit returns is readable. A commit whose context ends while
// it waits fails instead of answering.
func TestCommitAnswersOnlyOncePublished(t *testing.T) {
	net := transport.NewInProc()
	vm := NewVersionManager()
	srv, err := vm.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Net: net, VMAddr: srv.Addr()}
	blob, err := c.CreateBlob(ctx, testChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	ticket := func() uint64 {
		t.Helper()
		r, err := c.call(ctx, c.VMAddr, request{op: opTicket, blob: blob}.encode())
		if err != nil {
			t.Fatal(err)
		}
		return r.U64()
	}
	commit := func(ctx context.Context, v uint64) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.call(ctx, c.VMAddr, request{op: opCommit, blob: blob, info: VersionInfo{Version: v}}.encode())
			done <- err
		}()
		return done
	}
	// filed waits until the manager holds v's commit, unpublished: from
	// then on the commit's handler is waiting (or, without the wait, has
	// answered).
	filed := func(v uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			vm.mu.Lock()
			_, ok := vm.blobs[blob].pending[v]
			vm.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("commit of v%d never reached the version manager", v)
			}
		}
	}
	answer := func(done <-chan error, what string) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: commit never answered", what)
			return nil
		}
	}

	open, next := ticket(), ticket()
	done := commit(ctx, next)
	filed(next)
	select {
	case err := <-done:
		t.Fatalf("commit of v%d answered (err %v) while v%d is still open", next, err, open)
	case <-time.After(50 * time.Millisecond):
	}
	c.abort(ctx, blob, open)
	if err := answer(done, "after the abort"); err != nil {
		t.Fatalf("commit of v%d: %v", next, err)
	}
	if _, _, err := c.GetVersion(ctx, SnapshotRef{Blob: blob, Version: next}); err != nil {
		t.Fatalf("committed v%d is not readable: %v", next, err)
	}

	open, next = ticket(), ticket()
	cctx, cancel := context.WithCancel(ctx)
	done = commit(cctx, next)
	filed(next)
	cancel()
	if err := answer(done, "after the cancel"); err == nil {
		t.Fatalf("commit of v%d answered success with v%d still open", next, open)
	}
	// The cancelled commit stays filed: it publishes once its predecessor
	// resolves, as any commit whose reply was lost does.
	c.abort(ctx, blob, open)
	if _, _, err := c.GetVersion(ctx, SnapshotRef{Blob: blob, Version: next}); err != nil {
		t.Fatalf("v%d after its predecessor's abort: %v", next, err)
	}
}
