//go:build !race

package mirror

const raceEnabled = false
