//go:build amd64 && !race

package matrix

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The two kernel paths are bitwise equal, so a wrong CPUID or XCR0 bit
// in the gate would only show as a slowdown. Where the kernel lists
// avx2 among the CPU flags, the gate must have switched the AVX2 body
// on.
func TestAVX2GateFollowsCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if !slices.Contains(strings.Fields(flags), "avx2") {
			t.Skip("/proc/cpuinfo does not list avx2")
		}
		if !useAVX2 || !cpuHasAVX2() {
			t.Fatalf("/proc/cpuinfo lists avx2, but the gate reports %v and the switch is %v", cpuHasAVX2(), useAVX2)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
