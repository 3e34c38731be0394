package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n) and
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spreads this program prints are the ones the driver computes. Fewer than
// two samples give the sample itself (or zeros).
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	if n == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		// Rank i*(n+1)/4, clamped to 1..n-1 before the remainder is taken, so
		// small samples extrapolate exactly as Python's do.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one outlier, not a tail.
const tailBeyond = 10

// tail returns the highest ladder percentile with at least tailBeyond
// samples beyond it, and the nearest-rank value at that percentile. With
// too few samples for any ladder step it returns (0, 0).
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailBeyond {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return p, s[rank-1]
		}
	}
	return 0, 0
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b with 0 for an empty base, so absent layers report 0 instead
// of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
