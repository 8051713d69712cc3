package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every result: two results are comparable
// only when these agree.
type environment struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	WALFS        string `json:"wal_fs"`
	WALFlushUS   int64  `json:"wal_flush_window_us"`
	LinkLatencyU int64  `json:"link_latency_us"`
}

const tmpfsMagic = 0x01021994

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	tmpfsMagic: "tmpfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
	0xf2f52010: "f2fs",
}

// probeEnvironment records the machine. When the layer replay will run
// (usesWAL), it also records the filesystem of walDir, where the replay
// keeps its scratch log, and the log's flush window, and it refuses a
// walDir on tmpfs, where fsync is free and wal.sync_us would measure a
// different program.
func probeEnvironment(walDir string, usesWAL bool) (environment, error) {
	env := environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		WALFS:        "none",
		LinkLatencyU: linkLatency.Microseconds(),
	}
	if !usesWAL {
		return env, nil
	}
	env.WALFlushUS = walFlushWindow.Microseconds()
	var st syscall.Statfs_t
	if err := syscall.Statfs(walDir, &st); err != nil {
		return env, fmt.Errorf("statfs %s: %w", walDir, err)
	}
	magic := int64(st.Type)
	name, ok := fsNames[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	env.WALFS = name
	if magic == tmpfsMagic {
		return env, fmt.Errorf("WAL directory %s is on tmpfs, where fsync costs nothing; use a disk-backed directory", walDir)
	}
	return env, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procUsage is a point-in-time reading of the process's resource use.
type procUsage struct {
	cpu      time.Duration // user + system
	maxRSSKB int64
}

func readUsage() (procUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}, fmt.Errorf("getrusage: %w", err)
	}
	return procUsage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}, nil
}
