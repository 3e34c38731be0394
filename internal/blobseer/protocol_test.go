package blobseer

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blobcr/internal/cas"
	"blobcr/internal/transport"
	"blobcr/internal/wire"
)

// TestEveryNamedOpIsServed walks the verb registry: every op code with a
// name is answered by exactly one of the four services (the introspection
// ops by all four), and an op that carries arguments rejects the bare op
// byte — the shortest truncated frame — with a decode error instead of
// acting on zero values. A constant left in opNames after its handler arm is
// deleted, or an arm left behind after its name goes, fails here.
func TestEveryNamedOpIsServed(t *testing.T) {
	services := map[string]transport.Handler{
		"version manager":   NewVersionManager().handle,
		"provider manager":  NewProviderManager().handle,
		"data provider":     NewDataProvider(cas.NewMem()).handle,
		"metadata provider": NewMetadataProvider().handle,
	}
	// Ops whose whole request is the op byte.
	noArgs := map[byte]bool{
		opListLive: true, opListBlobs: true,
		opProviders: true, opMembership: true,
		opChunkList: true, opChunkUsage: true, opCasStats: true, opStoreStats: true, opStoreCompact: true,
		opNodeList: true, opNodeUsage: true,
		opFlightGet: true,
	}
	for op, name := range opNames {
		var served []string
		for svc, handle := range services {
			_, err := handle(ctx, []byte{op})
			if err != nil && strings.Contains(err.Error(), "unknown op") {
				continue
			}
			served = append(served, svc)
			switch {
			case noArgs[op] && err != nil:
				t.Errorf("%s: %s rejected the argument-less request: %v", name, svc, err)
			case !noArgs[op] && !errors.Is(err, wire.ErrTruncated):
				t.Errorf("%s: %s answered the bare op byte with %v, want a truncation error", name, svc, err)
			}
		}
		want := 1
		if op >= opTraceGet {
			want = len(services)
		}
		if len(served) != want {
			t.Errorf("%s (op %d): served by %v, want %d service(s)", name, op, served, want)
		}
	}
}

// TestCorruptCountsFailTheFrame: a wire count the frame cannot hold fails the
// decode on both sides of the manifest's life. On the version manager a
// corrupt commit manifest must reject the commit (publishing without it
// would leak every reference the commit took, since Retire releases from
// the manifest alone); on the client an oversized list in a Retire,
// ListBlobs or Providers reply must come back as an error, not a panic in
// make.
func TestCorruptCountsFailTheFrame(t *testing.T) {
	commitFrame := func(blob, version uint64, manifest func(w *wire.Buffer)) []byte {
		w := wire.NewBuffer(128)
		w.PutU8(opCommit)
		w.PutU64(blob)
		putVersionInfo(w, VersionInfo{Version: version, Size: testChunkSize, Span: 1})
		manifest(w)
		return w.Bytes()
	}
	fp := cas.Sum([]byte("body"))
	for name, manifest := range map[string]func(w *wire.Buffer){
		"entry count": func(w *wire.Buffer) { w.PutUvarint(1 << 30) },
		"provider count": func(w *wire.Buffer) {
			w.PutUvarint(1)
			w.PutUvarint(0) // index
			putFingerprint(w, fp)
			w.PutUvarint(1 << 30)
		},
		"truncated entry": func(w *wire.Buffer) {
			w.PutUvarint(2)
			w.PutUvarint(0)
			putFingerprint(w, fp)
			w.PutUvarint(0)
		},
	} {
		t.Run("commit/"+name, func(t *testing.T) {
			d, c := deploy(t, 1, 1)
			blob, err := c.CreateBlob(ctx, testChunkSize)
			if err != nil {
				t.Fatal(err)
			}
			tw := wire.NewBuffer(16)
			tw.PutU8(opTicket)
			tw.PutU64(blob)
			r, err := c.call(ctx, d.VMAddr, tw)
			if err != nil {
				t.Fatal(err)
			}
			version := r.U64()
			if _, err := c.Net.Call(ctx, d.VMAddr, commitFrame(blob, version, manifest)); err == nil {
				t.Fatal("commit with a corrupt manifest accepted")
			}
			if _, _, err := c.Latest(ctx, blob); !IsNotFound(err) {
				t.Fatalf("version published despite the rejected commit: Latest err = %v", err)
			}
		})
	}

	retire := func(c *Client) error { _, err := c.RetireStats(ctx, 1, 1); return err }
	for name, tc := range map[string]struct {
		resp func(w *wire.Buffer)
		call func(c *Client) error
	}{
		"retire/release count": {func(w *wire.Buffer) {
			w.PutU64(1) // retired horizon
			w.PutUvarint(1 << 62)
		}, retire},
		"retire/provider count": {func(w *wire.Buffer) {
			w.PutU64(1)
			w.PutUvarint(1)
			putFingerprint(w, fp)
			w.PutUvarint(1 << 62)
		}, retire},
		"list-blobs/blob count": {func(w *wire.Buffer) { w.PutUvarint(1 << 62) }, func(c *Client) error {
			_, err := c.ListBlobs(ctx)
			return err
		}},
		"providers/provider count": {func(w *wire.Buffer) { w.PutUvarint(1 << 62) }, func(c *Client) error {
			_, err := c.Providers(ctx)
			return err
		}},
	} {
		t.Run(name, func(t *testing.T) {
			net := transport.NewInProc()
			srv, err := net.Listen("", func(context.Context, []byte) ([]byte, error) {
				w := wire.NewBuffer(64)
				tc.resp(w)
				return w.Bytes(), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := &Client{Net: net, VMAddr: srv.Addr(), PMAddr: srv.Addr()}
			if err := tc.call(c); err == nil {
				t.Fatal("oversized reply accepted")
			}
		})
	}
}
