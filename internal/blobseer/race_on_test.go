//go:build race

package blobseer

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is returned to it, so allocation budgets
// that count on pooled frames do not hold.
const raceEnabled = true
