//go:build !race

package seglog

const raceEnabled = false
