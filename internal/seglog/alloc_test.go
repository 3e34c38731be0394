package seglog

import (
	"testing"
)

// TestPutAllocBudget counts what one Put of a 4 KiB record allocates: the
// record, its batch and the group-commit span, with no batch buffer and no
// per-record fan-out. The span's metric handles are resolved once per name,
// so ending it allocates nothing.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := openTest(t, t.TempDir(), Options{DisableAutoCompact: true, NoCompress: true})
	defer s.Close()
	body := randBytes(1, 4096)
	next := 0
	put := func() {
		if err := s.Put(key(next), body); err != nil {
			t.Fatal(err)
		}
		next++
	}
	put() // warm the pools and the metric handles
	allocs := testing.AllocsPerRun(200, put)
	t.Logf("one 4 KiB Put: %.1f allocations", allocs)
	const budget = 6
	if allocs > budget {
		t.Fatalf("one 4 KiB Put allocates %.1f times, budget %d", allocs, budget)
	}
}
