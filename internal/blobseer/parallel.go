package blobseer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"blobcr/internal/cas"
	"blobcr/internal/chunkstore"
	"blobcr/internal/obs"
	"blobcr/internal/wire"
)

// DefaultParallelism is the number of concurrent per-provider streams a
// commit or restore fans out to when Client.Parallelism is unset. One stream
// per provider saturates up to this many providers; deployments striping
// wider set Parallelism to at least their provider count.
const DefaultParallelism = 8

// batchBytesLimit caps the payload bytes of one batched frame. A commit or
// restore splits a provider's chunk set into frames of at most this size, so
// a single frame never monopolizes a connection and stays far below
// wire.MaxFieldSize.
const batchBytesLimit = 4 << 20

// maxFrameItems caps the item count of one batched frame (body-less frames
// like fingerprint probes and node sets are not bounded by bytes). It stays
// well under the server's maxBatchItems guard, so a legitimate frame is
// never mistaken for a corrupt count.
const maxFrameItems = 1 << 16

func (c *Client) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return DefaultParallelism
}

// runLimited runs fn(i) for i in [0, n) on at most limit goroutines,
// errgroup-style: the first error cancels the context the remaining calls
// run under, and is returned after all started calls finish.
func runLimited(ctx context.Context, limit, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if limit > n {
		limit = n
	}
	if limit < 1 {
		limit = 1
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for i := 0; i < n; i++ {
		if gctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(gctx, i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
					cancel()
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// runGroups runs fn once per provider group, the groups proceeding
// concurrently on at most limit streams (errgroup-style cancellation via
// runLimited). This is the one fan-out shape the whole data path uses:
// group items by provider, run one stream per provider. Each stream's wall
// time is observed into the context registry's per-provider histogram, the
// direct measure of striping balance.
func runGroups[T any](ctx context.Context, limit int, groups map[string][]T, fn func(ctx context.Context, addr string, items []T) error) error {
	reg := obs.RegistryFrom(ctx)
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	return runLimited(ctx, limit, len(addrs), func(ctx context.Context, i int) error {
		sw := obs.StartTimer()
		err := fn(ctx, addrs[i], groups[addrs[i]])
		sw.ObserveInto(reg.Histogram("blobseer_stream_ns", obs.L("addr", addrs[i])))
		return err
	})
}

// errStopGroup is returned by a frame callback to abandon the rest of a
// provider's frames without failing the whole operation — the provider died
// and its remaining items go to the failover path. Callers translate it to
// nil after splitByBytes returns.
var errStopGroup = errors.New("blobseer: provider stream abandoned")

// splitByBytes calls fn over consecutive [start, end) windows of n items
// whose summed sizes stay within batchBytesLimit and whose count stays
// within maxFrameItems (always at least one item per window), stopping at
// the first error.
func splitByBytes(n int, size func(i int) int, fn func(start, end int) error) error {
	for start := 0; start < n; {
		end, bytes := start, 0
		for end < n && end-start < maxFrameItems && (end == start || bytes+size(end) <= batchBytesLimit) {
			bytes += size(end)
			end++
		}
		if err := fn(start, end); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// getChunkBatch fetches a set of chunks from one provider in a single round
// trip. The result is aligned with keys; a chunk the provider does not hold
// yields a nil entry (the caller fails over to another replica). The bodies
// are not copied out of the response frame: each is a window of it whose
// capacity ends where the body does, so an append to one cannot write into
// the next.
func (c *Client) getChunkBatch(ctx context.Context, addr string, keys []chunkstore.Key) ([][]byte, error) {
	obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "chunk-get-batch")).Inc()
	resp, err := c.rpc(ctx, addr, "chunk-get-batch", request{op: opChunkGetBatch, chunks: keys}.encode().Bytes())
	if err != nil {
		return nil, fmt.Errorf("blobseer: get %d chunks from %s: %w", len(keys), addr, err)
	}
	return decodeChunkBatchReply(resp, len(keys))
}

// decodeChunkBatchReply decodes a chunk-get-batch response for n keys: n
// items of (present bool, body if present), nothing after them. A body is a
// window of resp with its capacity cut to its length; an absent chunk is a
// nil entry. A reply that ends early or runs past its n items is an error.
func decodeChunkBatchReply(resp []byte, n int) ([][]byte, error) {
	r := wire.NewReader(resp)
	out := make([][]byte, n)
	for i := range out {
		if r.Bool() {
			body := r.Bytes()
			out[i] = body[:len(body):len(body)]
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("blobseer: chunk batch reply of %d items: %w", n, err)
	}
	return out, nil
}

// casRefBatch performs the "have these fingerprints?" round trip against one
// provider: one reference is taken for every fingerprint reported held. Very
// large probe sets split into frames of maxFrameItems. On error, the
// already-completed frames' results are still returned — valid counts how
// many leading entries of held are meaningful — so the caller can record the
// references those frames took (they must be released on abort).
func (c *Client) casRefBatch(ctx context.Context, addr string, fps []cas.Fingerprint) (held []bool, valid int, err error) {
	held = make([]bool, len(fps))
	for start := 0; start < len(fps); start += maxFrameItems {
		end := min(start+maxFrameItems, len(fps))
		obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "cas-ref-batch")).Inc()
		resp, err := c.rpc(ctx, addr, "cas-ref-batch", request{op: opCasRefBatch, fps: fps[start:end]}.encode().Bytes())
		if err != nil {
			return held, start, fmt.Errorf("blobseer: cas ref batch on %s: %w", addr, err)
		}
		r := wire.NewReader(resp)
		for i := start; i < end; i++ {
			v := r.Bool()
			if err := r.Err(); err != nil {
				// Truncated response: the flags decoded so far are real —
				// the server processed the whole frame — so count them into
				// valid; the caller must record (and eventually release)
				// those references.
				return held, i, err
			}
			held[i] = v
		}
	}
	return held, len(fps), nil
}

// casPutBatch uploads a set of bodies under their fingerprints to one
// provider in a single round trip, taking one reference each. The frame is
// pooled: the network keeps no reference to a request once Call returns.
func (c *Client) casPutBatch(ctx context.Context, addr string, fps []cas.Fingerprint, bodies [][]byte) error {
	w := request{op: opCasPutBatch, fps: fps, bodies: bodies}.encode()
	obs.RegistryFrom(ctx).Counter("blobseer_batch_calls_total", obs.L("op", "cas-put-batch")).Inc()
	resp, err := c.rpc(ctx, addr, "cas-put-batch", w.Bytes())
	wire.PutFrame(w.Bytes())
	if err != nil {
		return fmt.Errorf("blobseer: cas put batch to %s: %w", addr, err)
	}
	r := wire.NewReader(resp)
	for range fps {
		r.Bool() // dup flag, unused: transfer already happened either way
	}
	return r.Err()
}
