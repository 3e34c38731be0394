//go:build race

package seglog

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is returned to it, so allocation budgets
// that count on pooled objects do not hold.
const raceEnabled = true
