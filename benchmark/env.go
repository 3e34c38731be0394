package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD: the calling thread alone.
const rusageThread = 1

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is user+system CPU of the whole process: the client side and
// the co-located providers alike, as on the paper's compute nodes.
func processCPU() time.Duration { return cpuOf(syscall.RUSAGE_SELF) }

// untimedCPU runs fn — generator or verifier work that is not part of what
// a user pays for — pinned to one OS thread and returns the CPU it burned,
// so the caller can subtract it from the process total. fn must not hand
// work to other goroutines.
func untimedCPU(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := cpuOf(rusageThread)
	fn()
	return cpuOf(rusageThread) - before
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) (uint64, error) {
	var total uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += uint64(info.Size())
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return total, err
}

// fsTypes names the statfs magic numbers a scratch directory is likely to
// sit on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

// fsTypeOf reports the file system holding dir.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// diskLabel says whether fdatasync in dir reaches a device. Results on a
// memory file system are modelled, not measured, and must never be compared
// with measured ones.
func diskLabel(fsType string) string {
	if fsType == "tmpfs" || fsType == "ramfs" {
		return "modelled-disk"
	}
	return "real-disk"
}

// provenance is the header every result file carries.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	FSType     string `json:"fs_type"`
	Disk       string `json:"disk"` // real-disk | modelled-disk
	Dir        string `json:"dir"`
}

func newProvenance(dir string) provenance {
	fsType := fsTypeOf(dir)
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		FSType:     fsType,
		Disk:       diskLabel(fsType),
		Dir:        dir,
	}
}

// gitCommit is the checked-out commit, or "unknown" outside a repository
// (the driver's checkout is not one) or without git.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
