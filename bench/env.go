package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/flare-sim/flare/internal/benchmarks"
)

// envBlock says where a result came from; every result file carries it.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
}

func readEnv(root string) envBlock {
	return envBlock{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   benchmarks.CPUModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Link:       "loopback, not a real link",
	}
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// calibrationSink keeps the spin loop's result alive.
var calibrationSink uint64

// calibrate times a fixed integer spin loop and returns its duration in
// nanoseconds (the fastest of three passes). It is taken before and
// after each workload: when the two differ by more than 10 % something
// else was using the machine and the run is marked noisy.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibrationSink += x
	}
	return float64(best.Nanoseconds())
}

// clockTicksPerSecond is the kernel's USER_HZ, the unit of the CPU
// times in /proc/<pid>/stat. It is 100 on every Linux configuration Go
// supports.
const clockTicksPerSecond = 100

// procCPUSeconds returns the user+system CPU time a process has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command field", pid)
	}
	fields := strings.Fields(string(b[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad cpu times", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("proc status of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status of %d: no VmHWM", pid)
}

// findRepoRoot walks up from the working directory to the checkout
// that holds the system under test (its go.mod and cmd/oneapiserver).
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "oneapiserver", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/oneapiserver above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}
