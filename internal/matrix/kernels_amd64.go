//go:build amd64 && !race

package matrix

func init() { useAVX2 = cpuHasAVX2() }

// cpuHasAVX2 reports whether the CPU runs AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 ECX
// must report OSXSAVE and AVX, the XCR0 register read by XGETBV must
// have its SSE and AVX state bits (1 and 2) set, and leaf 7 EBX must
// report AVX2 (bit 5).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0, reading XCR0. Call it only when
// CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// mulAdd4x8 computes C += A×B over the leading m×n block of C in 4×8
// register tiles (kernels_amd64.s). m must be a positive multiple of
// 4, n of 8, and k positive; cs, as and bs are the operands' strides in
// elements. It checks no bounds: mulTiled does that first.
//
//repro:kernel
//go:noescape
func mulAdd4x8(c, a, b *float64, m, n, k, cs, as, bs int)

// mulSub4x8 is mulAdd4x8 computing C -= A×B.
//
//repro:kernel
//go:noescape
func mulSub4x8(c, a, b *float64, m, n, k, cs, as, bs int)
