package obs

import "math/bits"

// bucketIndex inverts BucketBound: the ring-buffer slot whose inclusive
// upper bound is bound.
func bucketIndex(bound uint64) int {
	if bound == 0 {
		return 0
	}
	if bound == ^uint64(0) {
		return histBuckets - 1
	}
	return bits.Len64(bound)
}

// Import force-sets scraped points into the registry, rewriting each series
// under the extra labels — the federation merge: the supervisor imports
// every node's scrape under node=<name>, and one metrics scrape then answers
// for the whole fleet. Points already carrying any of the extra label keys
// are skipped: re-importing an already-federated series (the supervisor
// scraping a registry it shares in-process, or a scrape of another
// federator) would otherwise mint node-labeled copies of node-labeled
// copies without bound.
//
// Import overwrites, it does not accumulate: each scrape replaces the
// previous values, so a counter regressing across scrapes (a restarted node)
// simply shows its new, lower value. Multi-word histogram stores are set
// non-atomically — a concurrent reader can see a torn snapshot, the same
// consistency a point-in-time Snapshot already has under concurrent Observe.
func (r *Registry) Import(points []Point, extra ...Label) {
	for i := range points {
		p := &points[i]
		already := false
		for _, l := range extra {
			if p.Label(l.Key) != "" {
				already = true
				break
			}
		}
		if already {
			continue
		}
		labels := make([]Label, 0, len(p.Labels)+len(extra))
		labels = append(labels, p.Labels...)
		labels = append(labels, extra...)
		switch p.Kind {
		case KindCounter:
			r.lookup(KindCounter, p.Name, labels).c.v.Store(p.Value)
		case KindGauge:
			r.lookup(KindGauge, p.Name, labels).g.Set(p.GaugeValue)
		case KindHistogram:
			h := r.lookup(KindHistogram, p.Name, labels).h
			var want [histBuckets]uint64
			for _, b := range p.Buckets {
				want[bucketIndex(b.UpperBound)] += b.Count
			}
			h.count.Store(p.Count)
			h.sum.Store(p.Sum)
			for i := range h.buckets {
				h.buckets[i].Store(want[i])
			}
		}
	}
}
