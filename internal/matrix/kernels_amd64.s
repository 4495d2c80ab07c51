//go:build amd64 && !race

#include "textflag.h"

// The vector bodies of the tile kernels MulAddUnrolled and
// MulSubUnrolled: an AVX2 body in 4×8 tiles and an AVX-512F body in
// 4×16 tiles, with the same loop shape. Each computes C ± A×B over the
// leading m×n block of C, one tile at a time: eight accumulators hold
// the tile, two per row (YMM in the AVX2 body, ZMM in the AVX-512
// one). For each k the loop loads row k of B with two VMOVUPD,
// broadcasts the tile's four A values with VBROADCASTSD, and folds
// every product into its accumulator with VMULPD followed by VADDPD or
// VSUBPD. There is no FMA, so each C element receives its k products
// in ascending order with the product and the sum each rounded, as in
// the Go loops.
//
// Registers: DI and SI point at the tile row of C and A, DX at B; AX
// counts the rows left, BX is the tile's first column and CX counts
// the k steps left. R8, R9 and R10 hold the strides of C, A and B in
// bytes, R13 three strides of A. R11 and R12 walk A along row i and B
// down column j. R14, R15 and BP are not touched.

// ROW folds one row of the tile: broadcast the A value at src, then OP
// its products with B's row halves Y8 and Y9 into acc0 and acc1.
#define ROW(src, acc0, acc1, OP) \
	VBROADCASTSD src, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	OP           Y11, acc0, acc0; \
	OP           Y12, acc1, acc1

// TILES runs every 4×8 tile with OP as the accumulating instruction;
// kk and nn are the frame slots of k and n.
#define TILES(OP, kk, nn) \
rows: \
	XORQ    BX, BX; \
cols: \
	LEAQ    (DI)(BX*8), R11; \
	LEAQ    (R11)(R8*2), R12; \
	VMOVUPD (R11), Y0; \
	VMOVUPD 32(R11), Y1; \
	VMOVUPD (R11)(R8*1), Y2; \
	VMOVUPD 32(R11)(R8*1), Y3; \
	VMOVUPD (R12), Y4; \
	VMOVUPD 32(R12), Y5; \
	VMOVUPD (R12)(R8*1), Y6; \
	VMOVUPD 32(R12)(R8*1), Y7; \
	MOVQ    SI, R11; \
	LEAQ    (DX)(BX*8), R12; \
	MOVQ    kk, CX; \
kloop: \
	VMOVUPD (R12), Y8; \
	VMOVUPD 32(R12), Y9; \
	ROW((R11), Y0, Y1, OP); \
	ROW((R11)(R9*1), Y2, Y3, OP); \
	ROW((R11)(R9*2), Y4, Y5, OP); \
	ROW((R11)(R13*1), Y6, Y7, OP); \
	ADDQ    $8, R11; \
	ADDQ    R10, R12; \
	DECQ    CX; \
	JNZ     kloop; \
	LEAQ    (DI)(BX*8), R11; \
	LEAQ    (R11)(R8*2), R12; \
	VMOVUPD Y0, (R11); \
	VMOVUPD Y1, 32(R11); \
	VMOVUPD Y2, (R11)(R8*1); \
	VMOVUPD Y3, 32(R11)(R8*1); \
	VMOVUPD Y4, (R12); \
	VMOVUPD Y5, 32(R12); \
	VMOVUPD Y6, (R12)(R8*1); \
	VMOVUPD Y7, 32(R12)(R8*1); \
	ADDQ    $8, BX; \
	CMPQ    BX, nn; \
	JLT     cols; \
	LEAQ    (DI)(R8*4), DI; \
	LEAQ    (SI)(R9*4), SI; \
	SUBQ    $4, AX; \
	JNZ     rows

// ROW16 is ROW on ZMM registers: B's row halves are Z8 and Z9.
#define ROW16(src, acc0, acc1, OP) \
	VBROADCASTSD src, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VMULPD       Z9, Z10, Z12; \
	OP           Z11, acc0, acc0; \
	OP           Z12, acc1, acc1

// TILES16 is TILES over 4×16 tiles, eight ZMM accumulators Z0–Z7.
#define TILES16(OP, kk, nn) \
rows: \
	XORQ    BX, BX; \
cols: \
	LEAQ    (DI)(BX*8), R11; \
	LEAQ    (R11)(R8*2), R12; \
	VMOVUPD (R11), Z0; \
	VMOVUPD 64(R11), Z1; \
	VMOVUPD (R11)(R8*1), Z2; \
	VMOVUPD 64(R11)(R8*1), Z3; \
	VMOVUPD (R12), Z4; \
	VMOVUPD 64(R12), Z5; \
	VMOVUPD (R12)(R8*1), Z6; \
	VMOVUPD 64(R12)(R8*1), Z7; \
	MOVQ    SI, R11; \
	LEAQ    (DX)(BX*8), R12; \
	MOVQ    kk, CX; \
kloop: \
	VMOVUPD (R12), Z8; \
	VMOVUPD 64(R12), Z9; \
	ROW16((R11), Z0, Z1, OP); \
	ROW16((R11)(R9*1), Z2, Z3, OP); \
	ROW16((R11)(R9*2), Z4, Z5, OP); \
	ROW16((R11)(R13*1), Z6, Z7, OP); \
	ADDQ    $8, R11; \
	ADDQ    R10, R12; \
	DECQ    CX; \
	JNZ     kloop; \
	LEAQ    (DI)(BX*8), R11; \
	LEAQ    (R11)(R8*2), R12; \
	VMOVUPD Z0, (R11); \
	VMOVUPD Z1, 64(R11); \
	VMOVUPD Z2, (R11)(R8*1); \
	VMOVUPD Z3, 64(R11)(R8*1); \
	VMOVUPD Z4, (R12); \
	VMOVUPD Z5, 64(R12); \
	VMOVUPD Z6, (R12)(R8*1); \
	VMOVUPD Z7, 64(R12)(R8*1); \
	ADDQ    $16, BX; \
	CMPQ    BX, nn; \
	JLT     cols; \
	LEAQ    (DI)(R8*4), DI; \
	LEAQ    (SI)(R9*4), SI; \
	SUBQ    $4, AX; \
	JNZ     rows

// func mulAdd4x8(c, a, b *float64, m, n, k, cs, as, bs int)
TEXT ·mulAdd4x8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), AX
	MOVQ cs+48(FP), R8
	MOVQ as+56(FP), R9
	MOVQ bs+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R13
	TILES(VADDPD, k+40(FP), n+32(FP))
	VZEROUPPER
	RET

// func mulSub4x8(c, a, b *float64, m, n, k, cs, as, bs int)
TEXT ·mulSub4x8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), AX
	MOVQ cs+48(FP), R8
	MOVQ as+56(FP), R9
	MOVQ bs+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R13
	TILES(VSUBPD, k+40(FP), n+32(FP))
	VZEROUPPER
	RET

// func mulAdd4x16(c, a, b *float64, m, n, k, cs, as, bs int)
TEXT ·mulAdd4x16(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), AX
	MOVQ cs+48(FP), R8
	MOVQ as+56(FP), R9
	MOVQ bs+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R13
	TILES16(VADDPD, k+40(FP), n+32(FP))
	VZEROUPPER
	RET

// func mulSub4x16(c, a, b *float64, m, n, k, cs, as, bs int)
TEXT ·mulSub4x16(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), AX
	MOVQ cs+48(FP), R8
	MOVQ as+56(FP), R9
	MOVQ bs+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R13
	TILES16(VSUBPD, k+40(FP), n+32(FP))
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
