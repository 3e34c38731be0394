//go:build linux

package seglog

import (
	"io"
	"os"
	"syscall"
	"unsafe"
)

// iovMax is IOV_MAX on Linux: the most parts one pwritev(2) takes.
const iovMax = 1024

// writeParts writes parts back to back at off with pwritev(2): a batch
// reaches the file from its records' own buffers, at most iovMax parts a
// call, resuming after a short write. Every part must be non-empty.
func writeParts(f *os.File, parts [][]byte, off int64) error {
	var small [16]syscall.Iovec // a batch of a few records needs no allocation
	iovs := small[:0]
	if len(parts) > len(small) {
		iovs = make([]syscall.Iovec, 0, min(len(parts), iovMax))
	}
	skip := 0 // bytes of parts[0] already written
	for len(parts) > 0 {
		iovs = iovs[:0]
		for i, p := range parts[:min(len(parts), iovMax)] {
			if i == 0 {
				p = p[skip:]
			}
			iovs = append(iovs, syscall.Iovec{Base: &p[0]})
			iovs[len(iovs)-1].SetLen(len(p))
		}
		n, _, errno := syscall.Syscall6(syscall.SYS_PWRITEV, f.Fd(),
			uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return &os.PathError{Op: "pwritev", Path: f.Name(), Err: errno}
		case n == 0:
			return io.ErrShortWrite
		}
		off += int64(n)
		for left := int(n); left > 0; {
			if rest := len(parts[0]) - skip; left >= rest {
				left -= rest
				parts, skip = parts[1:], 0
			} else {
				skip += left
				left = 0
			}
		}
	}
	return nil
}
