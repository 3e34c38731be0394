//go:build !race

package blobseer

const raceEnabled = false
