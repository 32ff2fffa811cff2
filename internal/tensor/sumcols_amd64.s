#include "textflag.h"

// The repo's dense AVX2 kernel (DESIGN.md §6, "The repo takes assembly").
// Lanes are output columns: every output element is still one ascending-k
// float32 sum from +0, multiply rounded and then add rounded (VMULPS then
// VADDPS, never FMA), with the same a == 0 skip as the Go twin sumColsGo.
// After it, its AVX-512 four-row tile and two-row pass, the same sums four
// and two rows at a time; the AdamW update, lanes the parameter's elements,
// the twin of adamWGo; the gradient accumulation, the twin of AddInPlace's
// loop; and the exact vector exp under the sigmoid and shifted-exp kernels,
// the twin of math.Exp.

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE and AVX, XCR0 says the OS
// saves XMM and YMM state, and CPUID.7.0:EBX reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM | YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func cpuHasFMA() bool
//
// CPUID.1:ECX bit 12. Asked only once cpuHasAVX2 has said the OS saves YMM
// state, which is what FMA's VEX encoding needs besides the bit.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// MAC(off, acc, tmp): acc += a[k] (broadcast in Y8) × eight columns of the
// b row at R12+off.
#define MAC(off, acc, tmp) \
	VMULPS off(R12), Y8, tmp; \
	VADDPS tmp, acc, acc

// SWEEP … SWEPT bracket the MACs of one column block: they run for every k
// with a[k] != ±0. R11 walks a (stride R8 bytes), R12 walks the b rows
// (stride R9 bytes), R13 counts k. The zero test is an integer one (the
// bits shifted left by one), so a NaN activation is multiplied through,
// exactly like Go's av == 0.
#define SWEEP(loop, next, done) \
	MOVQ  SI, R11; \
	MOVQ  BX, R12; \
	MOVQ  R10, R13; \
	TESTQ R13, R13; \
	JZ    done; \
loop: \
	MOVL (R11), AX; \
	ADDL AX, AX; \
	JZ   next; \
	VBROADCASTSS (R11), Y8

#define SWEPT(loop, next, done) \
next: \
	ADDQ R8, R11; \
	ADDQ R9, R12; \
	DECQ R13; \
	JNZ  loop; \
done:

// func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int)
//
// out[0:n] = Σ_k a[k·aStride] · b[k·bStride + 0:n], n a multiple of 8,
// strides in bytes. Columns go 64 at a time (eight accumulators live across
// the whole k sweep, so the 4-cycle add latency is hidden eight deep), then
// 32, then 8. A 64-column block of b is four cache lines a row, a row stride
// apart — no pattern the hardware prefetcher follows — so the wide loop asks
// for the lines 8 rows ahead itself (a hint: it never faults, past the end
// of b or anywhere else).
TEXT ·sumColsAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), R8
	MOVQ b+32(FP), BX
	MOVQ bStride+40(FP), R9
	MOVQ k+48(FP), R10
	MOVQ R9, R14
	SHLQ $3, R14 // prefetch distance: 8 rows of b

cols64:
	CMPQ CX, $64
	JLT  cols32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	SWEEP(loop64, next64, done64)
	PREFETCHT0 (R12)(R14*1)
	PREFETCHT0 64(R12)(R14*1)
	PREFETCHT0 128(R12)(R14*1)
	PREFETCHT0 192(R12)(R14*1)
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
	MAC(128, Y4, Y13)
	MAC(160, Y5, Y14)
	MAC(192, Y6, Y15)
	MAC(224, Y7, Y9)
	SWEPT(loop64, next64, done64)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $64, CX
	JMP  cols64

cols32:
	CMPQ CX, $32
	JLT  cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	SWEEP(loop32, next32, done32)
	MAC(0, Y0, Y9)
	MAC(32, Y1, Y10)
	MAC(64, Y2, Y11)
	MAC(96, Y3, Y12)
	SWEPT(loop32, next32, done32)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $32, CX

cols8:
	CMPQ CX, $8
	JLT  finish
	VXORPS Y0, Y0, Y0
	SWEEP(loop8, next8, done8)
	MAC(0, Y0, Y9)
	SWEPT(loop8, next8, done8)
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  cols8

finish:
	VZEROUPPER
	RET

// func cpuHasAVX512F() bool
//
// AVX-512F is usable when XCR0 says the OS also saves the opmask registers
// and all 32 ZMM registers in full, and CPUID.7.0:EBX reports AVX512F. Asked
// only once cpuHasAVX2 has seen OSXSAVE, which XGETBV needs.
TEXT ·cpuHasAVX512F(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX // XMM | YMM | opmask | ZMM0-15 upper halves | ZMM16-31
	CMPL AX, $0xe6
	JNE  nozmm
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $16, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
nozmm:
	RET

// TROW(row, lo, hi, skip): lo:hi += a[k] of one row (at row) × the 32
// columns of b row k in Z8:Z9, unless a[k] is ±0 — the integer test of
// SWEEP, taken per row, so each row skips exactly its own zeros.
#define TROW(row, lo, hi, skip) \
	MOVL row, AX; \
	ADDL AX, AX; \
	JZ   skip; \
	VBROADCASTSS row, Z10; \
	VMULPS Z8, Z10, Z11; \
	VADDPS Z11, lo, lo; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z12, hi, hi; \
skip:

// func sumTileAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int)
//
// Four rows of SumCols at once: out[r·outStride + 0:n] = Σ_k a[r·aRow +
// k·aStride] · b[k·bStride + 0:n] for r in 0..3, n a positive multiple of
// 32, k ≥ 1, strides in bytes. A tile is 4 rows × 32 columns in eight zmm
// accumulators (Z0:Z1 row 0 … Z6:Z7 row 3) live across the whole k sweep;
// per k the two zmm of b are loaded once and serve all four rows. Every
// element is still one ascending-k sum from +0, VMULPS then VADDPS, with
// its own row's zero skip: the same bits as sumColsGo. Only Z0-Z12 and no
// BP are written.
TEXT ·sumTileAVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ outStride+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ aRow+32(FP), R14
	LEAQ (R14)(R14*2), SI // 3·aRow
	MOVQ aStride+40(FP), R8
	MOVQ b+48(FP), BX
	MOVQ bStride+56(FP), R9

tile:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ a+24(FP), R11
	MOVQ BX, R12
	MOVQ k+64(FP), R13

tileloop:
	VMOVUPS (R12), Z8
	VMOVUPS 64(R12), Z9
	TROW((R11), Z0, Z1, row0)
	TROW((R11)(R14*1), Z2, Z3, row1)
	TROW((R11)(R14*2), Z4, Z5, row2)
	TROW((R11)(SI*1), Z6, Z7, row3)
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  tileloop
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(DX*1)
	VMOVUPS Z3, 64(DI)(DX*1)
	LEAQ    (DI)(DX*2), AX
	VMOVUPS Z4, (AX)
	VMOVUPS Z5, 64(AX)
	VMOVUPS Z6, (AX)(DX*1)
	VMOVUPS Z7, 64(AX)(DX*1)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $32, CX
	JNZ  tile
	VZEROUPPER
	RET

// PROW(row, c0, c1, c2, c3, skip): c0:c3 += a[k] of one row (at row) × the
// 64 columns of b row k in Z8:Z11, unless a[k] is ±0 — TROW's per-row zero
// test, so each row skips exactly its own zeros.
#define PROW(row, c0, c1, c2, c3, skip) \
	MOVL row, AX; \
	ADDL AX, AX; \
	JZ   skip; \
	VBROADCASTSS row, Z12; \
	VMULPS Z8, Z12, Z13; \
	VADDPS Z13, c0, c0; \
	VMULPS Z9, Z12, Z14; \
	VADDPS Z14, c1, c1; \
	VMULPS Z10, Z12, Z15; \
	VADDPS Z15, c2, c2; \
	VMULPS Z11, Z12, Z13; \
	VADDPS Z13, c3, c3; \
skip:

// func sumPairAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int)
//
// Two rows of SumCols at once: out[r·outStride + 0:n] = Σ_k a[r·aRow +
// k·aStride] · b[k·bStride + 0:n] for r in 0..1, n a positive multiple of
// 64, k ≥ 1, strides in bytes. A pass is 2 rows × 64 columns in eight zmm
// accumulators (Z0:Z3 row 0, Z4:Z7 row 1) live across the whole k sweep;
// per k the four zmm of b are loaded once and serve both rows, and the lines
// 8 rows of b ahead are prefetched as in sumColsAVX2's wide loop. Every
// element is still one ascending-k sum from +0, VMULPS then VADDPS, with its
// own row's zero skip: the same bits as sumColsGo. Only Z0-Z15 and no BP are
// written.
TEXT ·sumPairAVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ outStride+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ aRow+32(FP), R14
	MOVQ aStride+40(FP), R8
	MOVQ b+48(FP), BX
	MOVQ bStride+56(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10 // prefetch distance: 8 rows of b

pair:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ a+24(FP), R11
	MOVQ BX, R12
	MOVQ k+64(FP), R13

pairloop:
	PREFETCHT0 (R12)(R10*1)
	PREFETCHT0 64(R12)(R10*1)
	PREFETCHT0 128(R12)(R10*1)
	PREFETCHT0 192(R12)(R10*1)
	VMOVUPS (R12), Z8
	VMOVUPS 64(R12), Z9
	VMOVUPS 128(R12), Z10
	VMOVUPS 192(R12), Z11
	PROW((R11), Z0, Z1, Z2, Z3, prow0)
	PROW((R11)(R14*1), Z4, Z5, Z6, Z7, prow1)
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  pairloop
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (DI)(DX*1)
	VMOVUPS Z5, 64(DI)(DX*1)
	VMOVUPS Z6, 128(DI)(DX*1)
	VMOVUPS Z7, 192(DI)(DX*1)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $64, CX
	JNZ  pair
	VZEROUPPER
	RET

// ADAMHALF(mlo, vlo, t, tx): the float64 half of four AdamW lanes. mlo and
// vlo hold four float32 moments; tx (the low half of t) ends holding the
// four float32 updates (m/bc1) / (√(v/bc2) + ε), each divide and the root
// correctly rounded, as Go's float64 operators are. Y6 is clobbered.
#define ADAMHALF(mlo, vlo, t, tx) \
	VCVTPS2PD  mlo, t; \
	VCVTPS2PD  vlo, Y6; \
	VDIVPD     Y9, t, t; \
	VDIVPD     Y8, Y6, Y6; \
	VSQRTPD    Y6, Y6; \
	VADDPD     Y7, Y6, Y6; \
	VDIVPD     Y6, t, t; \
	VCVTPD2PSY t, tx

// func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep)
//
// AdamW's update over n elements, n a multiple of 8: the float32 moments and
// the decay and lr multiplies eight lanes to a register, the float64 divides
// and root four to a register — the same operations in the same order as the
// Go twin adamWGo, VMULPS then VADDPS, never FMA.
TEXT ·adamWAVX2(SB), NOSPLIT, $0-88
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	VBROADCASTSS c_decay+40(FP), Y15
	VBROADCASTSS c_beta1+44(FP), Y14
	VBROADCASTSS c_oneMinusBeta1+48(FP), Y13
	VBROADCASTSS c_beta2+52(FP), Y12
	VBROADCASTSS c_oneMinusBeta2+56(FP), Y11
	VBROADCASTSS c_lr+60(FP), Y10
	VBROADCASTSD c_bc1+64(FP), Y9
	VBROADCASTSD c_bc2+72(FP), Y8
	VBROADCASTSD c_eps+80(FP), Y7
	TESTQ CX, CX
	JZ    adamdone

adamloop:
	VMOVUPS (SI), Y0
	VMULPS  (DX), Y14, Y1 // β1·m
	VMULPS  Y0, Y13, Y2   // (1−β1)·g
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DX)
	VMULPS  (R8), Y12, Y2 // β2·v
	VMULPS  Y0, Y11, Y3   // (1−β2)·g
	VMULPS  Y0, Y3, Y3    // ((1−β2)·g)·g
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y2, (R8)
	ADAMHALF(X1, X2, Y3, X3)
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y2, X2
	ADAMHALF(X1, X2, Y4, X4)
	VINSERTF128 $1, X4, Y3, Y3
	VMULPS  Y10, Y3, Y3   // lr·u
	VMULPS  (DI), Y15, Y4 // w·decay
	VSUBPS  Y3, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $8, CX
	JNZ  adamloop

adamdone:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, n int)
//
// dst[0:n] += src[0:n], n a multiple of 8: one correctly rounded float32 add
// an element, as AddInPlace's Go loop, 32 elements an iteration and then 8.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add32:
	CMPQ CX, $32
	JLT  add8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  add32

add8:
	CMPQ CX, $8
	JLT  adddone
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  add8

adddone:
	VZEROUPPER
	RET

// func mulAVX2(dst, a, b *float32, n int)
//
// dst[0:n] = a[0:n]·b[0:n], n a multiple of 8: one correctly rounded float32
// product an element with a the first operand, as MulInto's Go loop, 32
// elements an iteration and then 8.
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

mul32:
	CMPQ CX, $32
	JLT  mul8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMULPS  (DX), Y0, Y0
	VMULPS  32(DX), Y1, Y1
	VMULPS  64(DX), Y2, Y2
	VMULPS  96(DX), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  mul32

mul8:
	CMPQ CX, $8
	JLT  muldone
	VMOVUPS (SI), Y0
	VMULPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  mul8

muldone:
	VZEROUPPER
	RET

// func scaleAVX2(dst *float32, n int, s float32)
//
// dst[0:n] ·= s, n a multiple of 8: one correctly rounded float32 product an
// element with dst the first operand, as ScaleInPlace's Go loop, 32
// elements an iteration and then 8.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y4

scale32:
	CMPQ CX, $32
	JLT  scale8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMULPS  Y4, Y0, Y0
	VMULPS  Y4, Y1, Y1
	VMULPS  Y4, Y2, Y2
	VMULPS  Y4, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  scale32

scale8:
	CMPQ CX, $8
	JLT  scaledone
	VMOVUPS (DI), Y0
	VMULPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  scale8

scaledone:
	VZEROUPPER
	RET

// func transpose8AVX2(dst *float32, ld int, src *float32, ls int, blocks int)
//
// Transposes blocks 8 × 8 blocks side by side along eight rows of src (rows
// ls floats apart; block b starts 8·b columns in) into dst (rows ld floats
// apart; block b lands 8·b rows down): eight row loads, the unpack /
// shuffle / lane-permute network, eight row stores. It moves bits, so it
// equals transpose8 exactly.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ ls+24(FP), R9
	MOVQ blocks+32(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10 // 3 source rows
	LEAQ (R8)(R8*2), R11 // 3 destination rows

tr8loop:
	TESTQ CX, CX
	JZ    tr8done
	MOVQ  SI, AX
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R9*1), Y1
	VMOVUPS (AX)(R9*2), Y2
	VMOVUPS (AX)(R10*1), Y3
	LEAQ    (AX)(R9*4), AX
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(R9*1), Y5
	VMOVUPS (AX)(R9*2), Y6
	VMOVUPS (AX)(R10*1), Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	MOVQ    DI, BX
	VMOVUPS Y8, (BX)
	VMOVUPS Y9, (BX)(R8*1)
	VMOVUPS Y10, (BX)(R8*2)
	VMOVUPS Y11, (BX)(R11*1)
	LEAQ    (BX)(R8*4), BX
	VMOVUPS Y12, (BX)
	VMOVUPS Y13, (BX)(R8*1)
	VMOVUPS Y14, (BX)(R8*2)
	VMOVUPS Y15, (BX)(R11*1)
	ADDQ $32, SI
	LEAQ (DI)(R8*8), DI
	DECQ CX
	JMP  tr8loop

tr8done:
	VZEROUPPER
	RET

// The exact vector exp. math.Exp on amd64 (exp_amd64.s) is Shibata's
// SIMD-suitable method run one lane at a time. Where math takes its FMA
// path, EXP4 is that path's instruction sequence four float64 lanes wide,
// with its constants spelled as math spells them, so every lane rounds
// exactly as math.Exp rounds that input:
//
//	k  = nearest-even int32 of x·LOG2E                 MULSD, CVTSD2SL
//	r  = (x − k·LN2U) − k·LN2L, each step one rounding  VFNMADD231SD ×2
//	r ×= 0.0625
//	p  = the VFMADD213SD chain, 1/8! … 1/3!, 1/2, 1
//	y  = r·p, then y ← y·(y+2) three times, then y ← (y+2)·y + 1 fused
//	exp = y · 2^k, 2^k built as (k + 0x3ff) << 52
//
// EXP4 holds only for |x| ≤ 708: no special value, and k in [-1021, 1021],
// so 2^k is a normal float64 — the only way math's own path goes for those
// inputs. EXPCHECK sends a group holding any other lane, NaN included, away
// before EXP4 sees it, and the Go caller computes that group through
// math.Exp itself.
//
// expconst holds each constant four times over, one ymm operand each.
#define EXPCONST(off, val) \
	DATA expconst<>+(off)(SB)/8, val; \
	DATA expconst<>+(off+8)(SB)/8, val; \
	DATA expconst<>+(off+16)(SB)/8, val; \
	DATA expconst<>+(off+24)(SB)/8, val

EXPCONST(0, $1.4426950408889634073599246810018920)                     // LOG2E
EXPCONST(32, $0.69314718055966295651160180568695068359375)             // LN2U, ln 2's upper half
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12)   // LN2L, its lower half
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5) // 1/8!
EXPCONST(160, $1.9841269841269841270e-4) // 1/7!
EXPCONST(192, $1.3888888888888888889e-3) // 1/6!
EXPCONST(224, $8.3333333333333333333e-3) // 1/5!
EXPCONST(256, $4.1666666666666666667e-2) // 1/4!
EXPCONST(288, $1.6666666666666666667e-1) // 1/3!
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $0x3ff)              // the exponent bias, int64 lanes
EXPCONST(448, $708.0)              // the bound of EXP4's inputs
EXPCONST(480, $0x7fffffffffffffff) // |x|
EXPCONST(512, $0x8000000000000000) // −x
DATA expconst<>+544(SB)/4, $0x3f800000 // float32 1
GLOBL expconst<>(SB), RODATA|NOPTR, $548

// EXPCHECK(x, t, away): jump to away unless every lane of x has |x| ≤ 708
// (a NaN compares unordered, so it jumps). t and AX are clobbered.
#define EXPCHECK(x, t, away) \
	VANDPD    expconst<>+480(SB), x, t; \
	VCMPPD    $0x16, expconst<>+448(SB), t, t; \
	VMOVMSKPD t, AX; \
	TESTL     AX, AX; \
	JNZ       away

// EXP4(x, t, k, kx): x = exp(x) in four float64 lanes, each |x| ≤ 708, in
// the steps listed above; t and k are clobbered, kx is k's low half.
#define EXP4(x, t, k, kx) \
	VMULPD       expconst<>+0(SB), x, t; \
	VCVTPD2DQY   t, kx; \
	VCVTDQ2PD    kx, t; \
	VFNMADD231PD expconst<>+32(SB), t, x; \
	VFNMADD231PD expconst<>+64(SB), t, x; \
	VMULPD       expconst<>+96(SB), x, x; \
	VMOVUPD      expconst<>+128(SB), t; \
	VFMADD213PD  expconst<>+160(SB), x, t; \
	VFMADD213PD  expconst<>+192(SB), x, t; \
	VFMADD213PD  expconst<>+224(SB), x, t; \
	VFMADD213PD  expconst<>+256(SB), x, t; \
	VFMADD213PD  expconst<>+288(SB), x, t; \
	VFMADD213PD  expconst<>+320(SB), x, t; \
	VFMADD213PD  expconst<>+352(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       expconst<>+384(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       expconst<>+384(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       expconst<>+384(SB), x, t; \
	VMULPD       t, x, x; \
	VADDPD       expconst<>+384(SB), x, t; \
	VFMADD213PD  expconst<>+352(SB), t, x; \
	VPMOVSXDQ    kx, k; \
	VPADDQ       expconst<>+416(SB), k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// func expAVX2(dst, x *float64, n int) int
//
// dst[i] = exp(x[i]) over float64s, four an iteration, n a multiple of 4. It
// returns n or the start of the first group EXPCHECK turned away. It is EXP4
// with nothing around it: the gate's probe of math.Exp and the tests' sweep
// over every float32 read it.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

exp64loop:
	CMPQ BX, CX
	JGE  exp64done
	VMOVUPD (SI)(BX*8), Y0
	EXPCHECK(Y0, Y1, exp64done)
	EXP4(Y0, Y1, Y2, X2)
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  exp64loop

exp64done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, x, y *float32, n, op int) int
//
// Four elements an iteration: s = float32(1 / (1 + exp(−float64(x)))), the
// exp by EXP4 and the add and divide correctly rounded in float64, as Go's
// operators are; then op's float32 products in sigmoidGo's order:
//
//	opSiLU      dst = x·s
//	opSiLUMul   dst = (x·s)·y
//	opSiLUGrad  dst = y·(s + (x·s)·(1 − s))
//
// n is a multiple of 4. It returns how many elements it wrote: n, or the
// start of the first group EXPCHECK turned away.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ op+32(FP), R8
	VMOVUPD      expconst<>+352(SB), Y15 // float64 1
	VBROADCASTSS expconst<>+544(SB), X14 // float32 1
	XORQ BX, BX

sigloop:
	CMPQ BX, CX
	JGE  sigdone
	VMOVUPS   (SI)(BX*4), X3
	VCVTPS2PD X3, Y0
	VXORPD    expconst<>+512(SB), Y0, Y0
	EXPCHECK(Y0, Y1, sigdone)
	EXP4(Y0, Y1, Y2, X2)
	VADDPD     Y15, Y0, Y0
	VDIVPD     Y0, Y15, Y0
	VCVTPD2PSY Y0, X0
	VMULPS     X0, X3, X1
	CMPQ R8, $1
	JEQ  sigmul
	CMPQ R8, $2
	JEQ  siggrad
	VMOVUPS X1, (DI)(BX*4)
	ADDQ $4, BX
	JMP  sigloop

sigmul:
	VMULPS  (DX)(BX*4), X1, X1
	VMOVUPS X1, (DI)(BX*4)
	ADDQ $4, BX
	JMP  sigloop

siggrad:
	VSUBPS  X0, X14, X4
	VMULPS  X4, X1, X1
	VADDPS  X1, X0, X1
	VMULPS  (DX)(BX*4), X1, X1
	VMOVUPS X1, (DI)(BX*4)
	ADDQ $4, BX
	JMP  sigloop

sigdone:
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// func expShiftAVX2(dst, x *float32, n int, m float32, sum float64) (done int, total float64)
//
// Four elements an iteration: e = exp(float64(x − m)), the difference a
// float32 subtraction and the exp by EXP4; dst = float32(e), and sum += e
// lane by lane in ascending order, as expShiftGo adds. n is a multiple of 4;
// done is n or the start of the first group EXPCHECK turned away, total the
// sum over dst[0:done].
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS m+24(FP), X14
	VMOVSD sum+32(FP), X15
	XORQ BX, BX

exploop:
	CMPQ BX, CX
	JGE  expdone
	VMOVUPS   (SI)(BX*4), X0
	VSUBPS    X14, X0, X0
	VCVTPS2PD X0, Y0
	EXPCHECK(Y0, Y1, expdone)
	EXP4(Y0, Y1, Y2, X2)
	VCVTPD2PSY   Y0, X1
	VMOVUPS      X1, (DI)(BX*4)
	VADDSD       X0, X15, X15
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X15, X15
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X15, X15
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X15, X15
	ADDQ $4, BX
	JMP  exploop

expdone:
	MOVQ   BX, done+40(FP)
	VMOVSD X15, total+48(FP)
	VZEROUPPER
	RET
