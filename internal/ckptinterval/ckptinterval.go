// Package ckptinterval computes the Young/Daly optimal checkpoint interval
// the supervisor's checkpoint cadence follows.
package ckptinterval

import "math"

// Optimal returns the optimal time between checkpoints for a per-checkpoint
// cost ckptCost and a mean time between failures mtbf (both in seconds),
// using Daly's higher-order refinement of Young's sqrt(2*C*MTBF) formula:
//
//	T = sqrt(2*C*M) * (1 + (1/3)*sqrt(C/(2M)) + (1/9)*(C/(2M))) - C   for C < 2M
//	T = M                                                            otherwise
//
// The supervisor computes its live checkpoint cadence from this function
// with the cost it actually observes.
func Optimal(ckptCost, mtbf float64) float64 {
	if ckptCost <= 0 || mtbf <= 0 {
		return 0
	}
	if ckptCost >= 2*mtbf {
		return mtbf
	}
	r := ckptCost / (2 * mtbf)
	t := math.Sqrt(2*ckptCost*mtbf)*(1+math.Sqrt(r)/3+r/9) - ckptCost
	if t < 0 {
		return 0
	}
	return t
}
