package ckptinterval

import (
	"math"
	"testing"
)

func TestOptimal(t *testing.T) {
	// Young/Daly: for C << M the interval is close to sqrt(2*C*M) - C and
	// grows with both inputs.
	c, m := 10.0, 4*3600.0
	got := Optimal(c, m)
	young := math.Sqrt(2*c*m) - c
	if got < young || got > young*1.1 {
		t.Errorf("Optimal(%v, %v) = %v, want within 10%% above Young's %v", c, m, got, young)
	}
	if Optimal(4*c, m) <= got {
		t.Error("interval did not grow with checkpoint cost")
	}
	if Optimal(c, 4*m) <= got {
		t.Error("interval did not grow with MTBF")
	}
	// Degenerate regimes.
	if Optimal(0, m) != 0 || Optimal(c, 0) != 0 {
		t.Error("nonpositive inputs must yield 0")
	}
	if Optimal(3*m, m) != m {
		t.Error("cost >= 2*MTBF must fall back to the MTBF")
	}
}
