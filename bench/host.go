package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user+system CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), so
// it covers every phase of the run, set-up included.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies what produced a report: numbers from different
// hosts, toolchains or commits are not comparable.
type fingerprint struct {
	NProc      int
	GOMAXPROCS int
	Kernel     string
	GoVersion  string
	Commit     string
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	// The acceptance driver runs in a plain directory, not a git
	// checkout; there the commit stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = string(bytes.TrimSpace(out))
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d kernel=%s %s commit=%s",
		fp.NProc, fp.GOMAXPROCS, fp.Kernel, fp.GoVersion, fp.Commit)
}
