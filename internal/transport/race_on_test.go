//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what it is handed, so a test of what the frame
// pool hands out next cannot hold.
const raceEnabled = true
