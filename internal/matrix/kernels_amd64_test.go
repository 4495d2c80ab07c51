//go:build amd64 && !race

package matrix

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The kernel levels are bitwise equal, so a wrong CPUID or XCR0 bit in
// the gate would only show as a slowdown. Where the kernel lists avx2
// among the CPU flags, the gate must have switched the AVX2 body on,
// and where it lists avx512f, the AVX-512 body.
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
		fields := strings.Fields(flags)
		var want kernelLevel
		switch {
		case slices.Contains(fields, "avx512f"):
			want = levelAVX512
		case slices.Contains(fields, "avx2"):
			want = levelAVX2
		default:
			t.Skip("/proc/cpuinfo lists neither avx2 nor avx512f")
		}
		if level != want || cpuLevel() != want {
			t.Fatalf("/proc/cpuinfo lists %s, but the gate reports %s and the level is %s",
				levelName(want), levelName(cpuLevel()), levelName(level))
		}
		t.Logf("kernel level %s", levelName(level))
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
