package schedule

import (
	"testing"
	"unsafe"
)

// A trace op stays within 16 bytes: three 4-byte line IDs, the kind and
// the kernel. The trace of a large program is mostly ops.
func TestOpSize(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size > 16 {
		t.Fatalf("schedule.Op is %d bytes, want at most 16", size)
	}
}
