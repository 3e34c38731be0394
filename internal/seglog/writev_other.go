//go:build !linux

package seglog

import "os"

// writeParts writes parts back to back at off, one WriteAt per part, where
// pwritev(2) is unavailable.
func writeParts(f *os.File, parts [][]byte, off int64) error {
	for _, p := range parts {
		if _, err := f.WriteAt(p, off); err != nil {
			return err
		}
		off += int64(len(p))
	}
	return nil
}
