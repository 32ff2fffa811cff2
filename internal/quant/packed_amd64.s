#include "textflag.h"

// The AVX2 twins of the uniform word-path kernels in packed.go (DESIGN.md
// §6, "The repo takes assembly"). A block row is eight b-bit codes in b
// bytes. Lanes are the block's eight columns: code j is moved to the top of
// lane j by a per-lane left shift, sign-extended by an arithmetic right
// shift, converted, and multiplied by the column's scale — float32(q)·scale,
// the float32 Unpack computes. Eight-bit codes are bytes and sign-extend on
// load. Nothing here checks bounds; the callers in packed_amd64.go do, and
// keep the 4-byte broadcast of a 2- or 3-bit row inside the stream.

DATA lanes<>+0(SB)/4, $1
DATA lanes<>+4(SB)/4, $2
DATA lanes<>+8(SB)/4, $3
DATA lanes<>+12(SB)/4, $4
DATA lanes<>+16(SB)/4, $5
DATA lanes<>+20(SB)/4, $6
DATA lanes<>+24(SB)/4, $7
DATA lanes<>+28(SB)/4, $8
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// SHIFTS: from the width in R14, Y8 = per-lane left-shift counts
// 32 − bits·(j+1), Y14 = the right-shift count 32 − bits in every lane
// (VPSRAVD is one µop where VPSRAD by a register count is two), R15 = 3·bits.
#define SHIFTS \
	LEAQ         (R14)(R14*2), R15; \
	MOVQ         R14, X14; \
	VPBROADCASTD X14, Y14; \
	VPMULLD      lanes<>(SB), Y14, Y8; \
	MOVL         $32, AX; \
	MOVQ         AX, X15; \
	VPBROADCASTD X15, Y15; \
	VPSUBD       Y8, Y15, Y8; \
	VPSUBD       Y14, Y15, Y14

// WORD(mem, w, scale): w = the dequantized block row whose code word is at
// mem. BYTES is the 8-bit form.
#define WORD(mem, w, scale) \
	VPBROADCASTD mem, w; \
	VPSLLVD      Y8, w, w; \
	VPSRAVD      Y14, w, w; \
	VCVTDQ2PS    w, w; \
	VMULPS       scale, w, w

#define BYTES(mem, w, scale) \
	VPMOVSXBD mem, w; \
	VCVTDQ2PS w, w; \
	VMULPS    scale, w, w

// MAC(w, acc): acc += a[k] (broadcast in Y9) × w.
#define MAC(w, acc) \
	VMULPS w, Y9, w; \
	VADDPS w, acc, acc

// ROWS … ROWSEND bracket what one code row contributes to the sums of the
// blocks in hand: it runs for every k with a[k] != ±0 (an integer test, so
// NaN is not skipped). R11 walks a, R12 the code rows (stride R9), R13
// counts k. A column strip takes a few bytes from each row's cache line, a
// row stride apart — no pattern the hardware prefetcher follows — so the
// loop asks for the line R8 bytes (64 rows) ahead itself; a hint never
// faults, past the end of the stream or anywhere else.
#define ROWS(loop, next) \
	MOVQ SI, R11; \
	MOVQ BX, R12; \
	MOVQ R10, R13; \
loop: \
	MOVL (R11), AX; \
	ADDL AX, AX; \
	JZ   next; \
	PREFETCHT0 (R12)(R8*1); \
	VBROADCASTSS (R11), Y9

#define ROWSEND(loop, next) \
next: \
	ADDQ $4, R11; \
	ADDQ R9, R12; \
	DECQ R13; \
	JNZ  loop

// func mulVecAVX2(out *float32, nBlocks int, a *float32, k int, codes *byte, rowBytes int, scale *float32, bits int)
//
// out[8b+j] += Σ_k a[k] · w[k][8b+j] for the nBlocks blocks whose row-0
// codes start at codes, k ≥ 1 rows rowBytes apart, ascending k, skipping
// a[k] == ±0. Blocks go four at a time so four add chains overlap.
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ nBlocks+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), R10
	MOVQ codes+32(FP), BX
	MOVQ rowBytes+40(FP), R9
	MOVQ scale+48(FP), DX
	MOVQ bits+56(FP), R14
	MOVQ R9, R8
	SHLQ $6, R8 // prefetch distance: 64 rows
	CMPQ R14, $8
	JEQ  b4
	SHIFTS

w4:
	CMPQ CX, $4
	JLT  w1
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	VMOVUPS 64(DX), Y6
	VMOVUPS 96(DX), Y7
	ROWS(w4loop, w4next)
	WORD((R12), Y10, Y4)
	WORD((R12)(R14*1), Y11, Y5)
	WORD((R12)(R14*2), Y12, Y6)
	WORD((R12)(R15*1), Y13, Y7)
	MAC(Y10, Y0)
	MAC(Y11, Y1)
	MAC(Y12, Y2)
	MAC(Y13, Y3)
	ROWSEND(w4loop, w4next)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	LEAQ (BX)(R14*4), BX
	SUBQ $4, CX
	JMP  w4

w1:
	TESTQ CX, CX
	JZ    finish
	VMOVUPS (DI), Y0
	VMOVUPS (DX), Y4
	ROWS(w1loop, w1next)
	WORD((R12), Y10, Y4)
	MAC(Y10, Y0)
	ROWSEND(w1loop, w1next)
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ R14, BX
	DECQ CX
	JMP  w1

b4:
	CMPQ CX, $4
	JLT  b1
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	VMOVUPS 64(DX), Y6
	VMOVUPS 96(DX), Y7
	ROWS(b4loop, b4next)
	BYTES((R12), Y10, Y4)
	BYTES(8(R12), Y11, Y5)
	BYTES(16(R12), Y12, Y6)
	BYTES(24(R12), Y13, Y7)
	MAC(Y10, Y0)
	MAC(Y11, Y1)
	MAC(Y12, Y2)
	MAC(Y13, Y3)
	ROWSEND(b4loop, b4next)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  b4

b1:
	TESTQ CX, CX
	JZ    finish
	VMOVUPS (DI), Y0
	VMOVUPS (DX), Y4
	ROWS(b1loop, b1next)
	BYTES((R12), Y10, Y4)
	MAC(Y10, Y0)
	ROWSEND(b1loop, b1next)
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $8, BX
	DECQ CX
	JMP  b1

finish:
	VZEROUPPER
	RET

// func decodeAVX2(dst *float32, dstStride int, nBlocks int, rows int, codes *byte, rowBytes int, scale *float32, bits int)
//
// dst[r·dstStride/4 + 8b + j] = w[r][8b+j] for rows ≥ 1 rows (dstStride
// bytes apart in dst, rowBytes apart in the stream) of the nBlocks blocks
// whose row-0 codes start at codes. Row-outer, so stores and code reads are
// both sequential; R11 walks dst, R12 the codes, R13 the scales, R8 counts
// blocks.
TEXT ·decodeAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), SI
	MOVQ nBlocks+16(FP), CX
	MOVQ rows+24(FP), R10
	MOVQ codes+32(FP), BX
	MOVQ rowBytes+40(FP), R9
	MOVQ scale+48(FP), DX
	MOVQ bits+56(FP), R14
	CMPQ R14, $8
	JEQ  dbrow
	SHIFTS

dwrow:
	MOVQ DI, R11
	MOVQ BX, R12
	MOVQ DX, R13
	MOVQ CX, R8

dw4:
	CMPQ R8, $4
	JLT  dw1
	WORD((R12), Y10, (R13))
	WORD((R12)(R14*1), Y11, 32(R13))
	WORD((R12)(R14*2), Y12, 64(R13))
	WORD((R12)(R15*1), Y13, 96(R13))
	VMOVUPS Y10, (R11)
	VMOVUPS Y11, 32(R11)
	VMOVUPS Y12, 64(R11)
	VMOVUPS Y13, 96(R11)
	ADDQ $128, R11
	ADDQ $128, R13
	LEAQ (R12)(R14*4), R12
	SUBQ $4, R8
	JMP  dw4

dw1:
	TESTQ R8, R8
	JZ    dwnext
	WORD((R12), Y10, (R13))
	VMOVUPS Y10, (R11)
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ R14, R12
	DECQ R8
	JMP  dw1

dwnext:
	ADDQ SI, DI
	ADDQ R9, BX
	DECQ R10
	JNZ  dwrow
	VZEROUPPER
	RET

dbrow:
	MOVQ DI, R11
	MOVQ BX, R12
	MOVQ DX, R13
	MOVQ CX, R8

db4:
	CMPQ R8, $4
	JLT  db1
	BYTES((R12), Y10, (R13))
	BYTES(8(R12), Y11, 32(R13))
	BYTES(16(R12), Y12, 64(R13))
	BYTES(24(R12), Y13, 96(R13))
	VMOVUPS Y10, (R11)
	VMOVUPS Y11, 32(R11)
	VMOVUPS Y12, 64(R11)
	VMOVUPS Y13, 96(R11)
	ADDQ $128, R11
	ADDQ $128, R13
	ADDQ $32, R12
	SUBQ $4, R8
	JMP  db4

db1:
	TESTQ R8, R8
	JZ    dbnext
	BYTES((R12), Y10, (R13))
	VMOVUPS Y10, (R11)
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $8, R12
	DECQ R8
	JMP  db1

dbnext:
	ADDQ SI, DI
	ADDQ R9, BX
	DECQ R10
	JNZ  dbrow
	VZEROUPPER
	RET
