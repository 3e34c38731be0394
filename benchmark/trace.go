package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created. Parent and Op are ids (−1 for none): Op
// names the harness operation (one checkpoint, one retire, one restart) the
// span belongs to, so all spans of one request share an identifier.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Addr   string `json:"addr,omitempty"`
	Req    int    `json:"req_bytes,omitempty"`
	Resp   int    `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// opKind classifies harness operations, which is how layer time is
// normalised: write-path work per checkpoint, read-path work per restart.
type opKind int8

const (
	opNone opKind = iota
	opCkpt
	opRetire
	opRestart
	opLazy // a restart that stops after the boot set
)

// recorder keeps spans in memory; nothing is written until the run ends.
// A nil recorder records nothing, which is how the untraced run is built.
type recorder struct {
	t0     time.Time
	on     atomic.Bool // interposers record only while the measured window is open
	nextID atomic.Int32
	nextOp atomic.Int32

	mu    sync.Mutex
	spans []span
	ops   []opKind // by op id
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newOp opens a harness operation and returns its id.
func (r *recorder) newOp(kind opKind) int32 {
	if r == nil {
		return -1
	}
	id := r.nextOp.Add(1) - 1
	r.mu.Lock()
	for int(id) >= len(r.ops) {
		r.ops = append(r.ops, opNone)
	}
	r.ops[id] = kind
	r.mu.Unlock()
	return id
}

// open reserves an id for a span that starts now; children can name it as
// their parent before it is closed.
func (r *recorder) open() (id int32, start int64) {
	return r.nextID.Add(1) - 1, r.now()
}

func (r *recorder) close(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// link is what a context carries across layers: the innermost open span and
// the operation it serves.
type link struct{ span, op int32 }

type linkKey struct{}

func withLink(ctx context.Context, l link) context.Context {
	return context.WithValue(ctx, linkKey{}, l)
}

func linkFrom(ctx context.Context) link {
	if l, ok := ctx.Value(linkKey{}).(link); ok {
		return l
	}
	return link{-1, -1}
}

// timed runs fn under a harness span named name, nested in ctx's span, and
// returns the wall time. With a nil recorder it only times.
func (r *recorder) timed(ctx context.Context, name string, fn func(ctx context.Context) error) (time.Duration, error) {
	if r == nil {
		t := time.Now()
		err := fn(ctx)
		return time.Since(t), err
	}
	parent := linkFrom(ctx)
	id, start := r.open()
	err := fn(withLink(ctx, link{id, parent.op}))
	s := span{ID: id, Name: name, Start: start, Parent: parent.span, Op: parent.op}
	r.close(s)
	return time.Duration(r.now() - start), err
}

// trace is a finished recording, indexed for analysis.
type trace struct {
	spans []span // by id
	ops   []opKind
}

// finish sorts the recording by id and resolves the parents the interposers
// could not know when they recorded:
//
//   - a server-side handler span (srv.*) is parented to the enclosing client
//     call (rpc.*) to the same address — over TCP the handler runs under the
//     server's context, so the link cannot travel with the request;
//   - a store span is parented to the enclosing handler span on the same
//     address (the store interface carries no context);
//   - a client call made under context.Background (the mirror's demand reads:
//     vdisk.Device has no context) is adopted by the tightest enclosing
//     harness span, preferring restart spans, since demand reads only happen
//     on the restart path.
//
// Operations are then inherited down the tree.
func (r *recorder) finish() *trace {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	ops := append([]opKind(nil), r.ops...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	t := &trace{spans: spans, ops: ops}
	// Ids are dense only if every opened span was closed; re-key by position.
	pos := make(map[int32]int32, len(spans))
	for i := range spans {
		pos[spans[i].ID] = int32(i)
	}
	for i := range spans {
		if p, ok := pos[spans[i].Parent]; ok {
			spans[i].Parent = p
		} else {
			spans[i].Parent = -1
		}
		spans[i].ID = int32(i)
	}

	var harness, rpcs, srvs, stores []int32
	for i := range spans {
		switch layerOf(spans[i].Name) {
		case "rpc":
			rpcs = append(rpcs, int32(i))
		case "srv":
			srvs = append(srvs, int32(i))
		case "store":
			stores = append(stores, int32(i))
		default:
			harness = append(harness, int32(i))
		}
	}
	sameAddr := func(child, cand span) int {
		if cand.Addr != child.Addr {
			return -1
		}
		return 1
	}
	adopt(spans, rpcs, harness, func(child, cand span) int {
		if child.Parent >= 0 {
			return -1
		}
		if k := t.kind(cand); k == opRestart || k == opLazy {
			return 2
		}
		return 1
	})
	adopt(spans, srvs, rpcs, sameAddr)
	adopt(spans, stores, srvs, sameAddr)
	// Inherit operations. After adoption a parent's id is not always lower
	// than its child's, so iterate to a fixed point (depth is under ten).
	for changed := true; changed; {
		changed = false
		for i := range spans {
			if spans[i].Op < 0 && spans[i].Parent >= 0 && spans[spans[i].Parent].Op >= 0 {
				spans[i].Op = spans[spans[i].Parent].Op
				changed = true
			}
		}
	}
	return t
}

// layerOf is the part of a span name before the first dot when it names an
// interposer ("rpc", "srv", "store"); harness spans return their full name.
func layerOf(name string) string {
	switch prefix, _, _ := strings.Cut(name, "."); prefix {
	case "rpc", "srv", "store":
		return prefix
	}
	return name
}

// adopt gives each parentless-or-eligible child the best candidate whose
// interval encloses it. rank returns −1 to reject a candidate, else its
// class; among enclosing candidates the highest class wins, then the
// tightest (latest start). Each candidate list is small enough per instant
// that a sweep over candidates sorted by start is sufficient.
func adopt(spans []span, children, cands []int32, rank func(child, cand span) int) {
	if len(children) == 0 || len(cands) == 0 {
		return
	}
	byStart := append([]int32(nil), cands...)
	sort.Slice(byStart, func(i, j int) bool { return spans[byStart[i]].Start < spans[byStart[j]].Start })
	kids := append([]int32(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
	var open []int32 // candidates that started before the current child and may still enclose it
	next := 0
	for _, k := range kids {
		c := spans[k]
		for next < len(byStart) && spans[byStart[next]].Start <= c.Start {
			open = append(open, byStart[next])
			next++
		}
		// Drop candidates that ended before this child starts: children are
		// visited in start order, so they can enclose no later child either.
		live := open[:0]
		for _, o := range open {
			if spans[o].End >= c.Start {
				live = append(live, o)
			}
		}
		open = live
		best, bestRank := int32(-1), -1
		for _, o := range open {
			cand := spans[o]
			if cand.End < c.End || o == k {
				continue
			}
			rk := rank(c, cand)
			if rk < 0 {
				continue
			}
			if rk > bestRank || (rk == bestRank && cand.Start > spans[best].Start) {
				best, bestRank = o, rk
			}
		}
		if best >= 0 {
			spans[k].Parent = best
		}
	}
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, each clipped to
// [lo, hi). It reorders ivs.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := ivs[:0]
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.dur() - unionLen(ivs, s.Start, s.End)
}

// childrenOf indexes spans by parent.
func (t *trace) childrenOf() map[int32][]span {
	m := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}

func (t *trace) kind(s span) opKind {
	if s.Op < 0 || int(s.Op) >= len(t.ops) {
		return opNone
	}
	return t.ops[s.Op]
}

// write dumps the spans as JSON.
func (t *trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
