//go:build race

package main

// raceEnabled reports whether the race detector, which slows the stack
// several times over, is compiled in.
const raceEnabled = true
