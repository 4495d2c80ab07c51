//go:build amd64 && !race

package matrix

func init() { level = cpuLevel() }

// cpuLevel returns the widest vector body the CPU runs and the
// operating system saves the registers of across context switches.
// AVX2 needs CPUID leaf 1 ECX to report OSXSAVE and AVX, the XCR0
// register read by XGETBV to have its SSE and AVX state bits (1 and 2)
// set, and leaf 7 EBX to report AVX2 (bit 5). AVX-512 needs all of
// that, leaf 7 EBX bit 16 (AVX512F), and XCR0 bits 5–7: the opmask
// registers, the upper halves of ZMM0–15 and ZMM16–31.
func cpuLevel() kernelLevel {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return levelGo
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return levelGo
	}
	const ymmState, zmmState = 0x6, 0xe0
	const avx2, avx512f = 1 << 5, 1 << 16
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	switch {
	case xcr0&ymmState != ymmState || ebx&avx2 == 0:
		return levelGo
	case xcr0&zmmState != zmmState || ebx&avx512f == 0:
		return levelAVX2
	}
	return levelAVX512
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

// mulAdd4x16 is mulAdd4x8 in 4×16 register tiles on AVX-512F: n must
// be a positive multiple of 16.
//
//repro:kernel
//go:noescape
func mulAdd4x16(c, a, b *float64, m, n, k, cs, as, bs int)

// mulSub4x16 is mulAdd4x16 computing C -= A×B.
//
//repro:kernel
//go:noescape
func mulSub4x16(c, a, b *float64, m, n, k, cs, as, bs int)
