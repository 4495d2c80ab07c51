package report

import (
	"os"
	"runtime"
	"strings"
	"sync"
)

// CPUModel identifies the host's processor so benchmark records can
// tell machines apart. On Linux it is the first "model name" line of
// /proc/cpuinfo; elsewhere, or when the file is unreadable, it falls
// back to the GOARCH string, which still separates records taken on
// different architectures. The probe runs once per process.
func CPUModel() string {
	cpuModelOnce.Do(func() {
		cpuModel = readCPUModel()
	})
	return cpuModel
}

var (
	cpuModelOnce sync.Once
	cpuModel     string
)

func readCPUModel() string {
	if runtime.GOOS == "linux" {
		if m := cpuModelFromInfo(readSmallFile("/proc/cpuinfo")); m != "" {
			return m
		}
	}
	return runtime.GOARCH
}

// HostSockets counts the host's physical processor packages — the
// hardware counterpart of the machine model's chip dimension, so a
// record of a -chips run can be read against the sockets it actually
// had. On Linux it is the number of distinct "physical id" values in
// /proc/cpuinfo; elsewhere, or when the field is absent (VMs often
// omit it), it reports 1. The probe runs once per process.
func HostSockets() int {
	hostSocketsOnce.Do(func() {
		hostSockets = readHostSockets()
	})
	return hostSockets
}

var (
	hostSocketsOnce sync.Once
	hostSockets     int
)

func readHostSockets() int {
	if runtime.GOOS == "linux" {
		if n := socketsFromInfo(readSmallFile("/proc/cpuinfo")); n > 0 {
			return n
		}
	}
	return 1
}

// socketsFromInfo counts distinct "physical id" values in
// /proc/cpuinfo-formatted text; 0 when the field never appears.
func socketsFromInfo(info string) int {
	ids := map[string]struct{}{}
	for _, line := range strings.Split(info, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "physical id" {
			ids[strings.TrimSpace(val)] = struct{}{}
		}
	}
	return len(ids)
}

// readSmallFile returns the file's contents, empty on any error.
func readSmallFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// cpuModelFromInfo extracts the first "model name" value from
// /proc/cpuinfo-formatted text ("model name\t: Intel(R) ...").
func cpuModelFromInfo(info string) string {
	for _, line := range strings.Split(info, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
