// Cross-process trace assembly and critical-path analysis. A client
// collects one trace's spans from every process that took part (its own
// registry plus each endpoint's trace-get reply), hands the per-process sets to
// AssembleTrace, and gets back one tree; CriticalPath then walks the tree
// backward from the root's end to explain where the wall time went through
// the concurrent per-provider streams.

package obs

import (
	"sort"
	"time"
)

// SpanNode is one span in an assembled trace tree. Its embedded record's
// Start/End have been re-anchored onto the root process's clock when the
// span came from another process (see AssembleTrace). Children are sorted
// by start time.
type SpanNode struct {
	SpanRecord
	Process  string // which per-process set the span came from
	Children []*SpanNode
}

// AssembledTrace is one cross-process trace tree.
type AssembledTrace struct {
	Trace   uint64
	Root    *SpanNode
	Orphans []*SpanNode // parentless or parent-missing spans besides the root
	Spans   int         // nodes reachable from Root
}

// AssembleTrace builds the span tree for one trace from per-process span
// sets (keyed by a caller-chosen process label; duplicates across sets are
// collapsed by span ID). The root is the parentless span that starts
// earliest. Monotonic clocks do not compare across processes, so a remote
// subtree whose wall-clock window falls outside its parent RPC span's
// window is shifted to sit centered inside it — the per-RPC request/response
// timestamps are the only cross-process anchor there is. Same-clock children
// (in-process deployments) already nest and are left exact.
func AssembleTrace(trace uint64, sets map[string][]SpanRecord) *AssembledTrace {
	at := &AssembledTrace{Trace: trace}
	nodes := make(map[uint64]*SpanNode)
	var order []string
	for p := range sets {
		order = append(order, p)
	}
	sort.Strings(order)
	for _, p := range order {
		for _, rec := range sets[p] {
			if rec.Trace != trace || rec.ID == 0 {
				continue
			}
			if _, dup := nodes[rec.ID]; dup {
				continue
			}
			nodes[rec.ID] = &SpanNode{SpanRecord: rec, Process: p}
		}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p := nodes[n.Parent]; n.Parent != 0 && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Start.Before(n.Children[j].Start) })
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	if len(roots) == 0 {
		return at
	}
	at.Root, at.Orphans = roots[0], roots[1:]
	anchor(at.Root, 0)
	at.Spans = countNodes(at.Root)
	return at
}

// anchor applies shift to n and pushes it down the tree, adding an extra
// re-centering shift at each process-boundary edge whose child window does
// not already sit inside the parent's.
func anchor(n *SpanNode, shift time.Duration) {
	n.Start, n.End = n.Start.Add(shift), n.End.Add(shift)
	for _, c := range n.Children {
		cshift := shift
		if c.Process != n.Process {
			s, e := c.Start.Add(cshift), c.End.Add(cshift)
			if s.Before(n.Start) || e.After(n.End) {
				target := n.Start
				if cdur, pdur := e.Sub(s), n.End.Sub(n.Start); cdur < pdur {
					target = n.Start.Add((pdur - cdur) / 2)
				}
				cshift += target.Sub(s)
			}
		}
		anchor(c, cshift)
	}
}

func countNodes(n *SpanNode) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}

// PathSegment is one contiguous interval of the critical path, attributed
// to the deepest span that was the reason the trace had not finished yet.
type PathSegment struct {
	Node       *SpanNode
	Start, End time.Time
}

// Duration returns the segment's length.
func (s PathSegment) Duration() time.Duration { return s.End.Sub(s.Start) }

// CriticalPath walks the assembled tree backward from the root's end: at
// each instant the path sits in the latest-finishing span active then,
// descending into children where one covers the cursor and charging the
// parent's own span for gaps no child covers. The returned segments are
// contiguous, chronological, and tile exactly the root's [Start, End]
// window — concurrent provider streams contribute only the one that gated
// completion at each instant, which is what makes the sum comparable to the
// measured wall time.
func CriticalPath(root *SpanNode) []PathSegment {
	if root == nil {
		return nil
	}
	var segs []PathSegment
	pathWalk(root, root.End, &segs)
	// The backward walk emits segments latest-first.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// pathWalk attributes the interval (n.Start, t] within n, recursing into
// the children on the critical path.
func pathWalk(n *SpanNode, t time.Time, segs *[]PathSegment) {
	for t.After(n.Start) {
		// The latest-finishing child active strictly before t.
		var best *SpanNode
		var bestEnd time.Time
		for _, c := range n.Children {
			if !c.Start.Before(t) || !c.End.After(n.Start) {
				continue
			}
			e := c.End
			if e.After(t) {
				e = t // child outlived the cursor (overlap noise): clamp
			}
			if best == nil || e.After(bestEnd) {
				best, bestEnd = c, e
			}
		}
		if best == nil {
			*segs = append(*segs, PathSegment{Node: n, Start: n.Start, End: t})
			return
		}
		if bestEnd.Before(t) {
			*segs = append(*segs, PathSegment{Node: n, Start: bestEnd, End: t})
		}
		pathWalk(best, bestEnd, segs)
		t = best.Start
	}
}

// PathAttributed sums the critical-path time attributed to spans other than
// root itself: the part of the wall time the instrumentation explains. The
// remainder is the root's own uninstrumented gaps.
func PathAttributed(root *SpanNode, segs []PathSegment) time.Duration {
	var attributed time.Duration
	for _, s := range segs {
		if s.Node != root {
			attributed += s.Duration()
		}
	}
	return attributed
}
