//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what it is handed, so a test of what the pool
// returns cannot hold.
const raceEnabled = true
