#include "textflag.h"

// The repo's dense AVX2 kernel (DESIGN.md §6, "The repo takes assembly").
// Lanes are output columns: every output element is still one ascending-k
// float32 sum from +0, multiply rounded and then add rounded (VMULPS then
// VADDPS, never FMA), with the same a == 0 skip as the Go twin sumColsGo.
// After it, the AdamW update, lanes the parameter's elements, the twin of
// adamWGo.

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
