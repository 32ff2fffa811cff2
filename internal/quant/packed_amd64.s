#include "textflag.h"

// The AVX2 twins of the uniform word-path kernels in packed.go (DESIGN.md
// §6, "The repo takes assembly"), and AVX-512 one-, two- and eight-row
// mat-vecs beside them. A block row is eight b-bit codes in b
// bytes. Lanes are the block's eight columns: code j is moved to the top of
// lane j by a per-lane left shift, sign-extended by an arithmetic right
// shift, converted, and multiplied by the column's scale — float32(q)·scale,
// the float32 Unpack computes. Eight-bit codes are bytes and sign-extend on
// load. Nothing here checks bounds; the callers in packed_amd64.go do, and
// keep the 4-byte broadcast of a 2- or 3-bit row inside the stream. At the
// end, the AVX2 twin of the fake-quant strip kernel in quant.go, whose
// caller, fakeQuantInto, passes it whole rows of whole groups of 8 columns.

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

// MAC(w, x, acc): acc += x (a broadcast a[k]) × w; w is clobbered.
#define MAC(w, x, acc) \
	VMULPS w, x, w; \
	VADDPS w, acc, acc

// MAC2(w, t, acc0, acc1): acc0 += a0[k] (in Y9) × w and acc1 += a1[k] (in
// Y15) × w: one decoded block row, two activation rows. w and t are
// clobbered.
#define MAC2(w, t, acc0, acc1) \
	VMULPS w, Y9, t; \
	VADDPS t, acc0, acc0; \
	VMULPS w, Y15, w; \
	VADDPS w, acc1, acc1

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

// PAIR(loop, only0, zero0, next) opens the code-row loop of the two-row
// kernel: R11 walks a0 and a1 sits SI bytes past it. Each row keeps its own
// zero skip, with the integer test of ROWS: the code row is decoded once
// for both rows (the code after PAIR, a0 in Y9 and a1 in Y15), for a0
// alone (at only0, a0 in Y9) or for a1 alone (at zero0's end, a1 in Y15),
// and not at all when both are ±0.
#define PAIR(loop, only0, zero0, next) \
	MOVQ a+24(FP), R11; \
	MOVQ BX, R12; \
	MOVQ R10, R13; \
loop: \
	MOVL (R11), AX; \
	ADDL AX, AX; \
	JZ   zero0; \
	MOVL (R11)(SI*1), AX; \
	ADDL AX, AX; \
	JZ   only0; \
	PREFETCHT0 (R12)(R8*1); \
	VBROADCASTSS (R11), Y9; \
	VBROADCASTSS (R11)(SI*1), Y15

// ONLY0 and ZERO0 open the one-row bodies PAIR jumps to.
#define ONLY0(only0) \
only0: \
	PREFETCHT0 (R12)(R8*1); \
	VBROADCASTSS (R11), Y9

#define ZERO0(zero0, next) \
zero0: \
	MOVL (R11)(SI*1), AX; \
	ADDL AX, AX; \
	JZ   next; \
	PREFETCHT0 (R12)(R8*1); \
	VBROADCASTSS (R11)(SI*1), Y15

// LOAD4 and STORE4 move four blocks of sums of one row between memory at
// base and acc0 … acc3.
#define LOAD4(base, acc0, acc1, acc2, acc3) \
	VMOVUPS (base), acc0; \
	VMOVUPS 32(base), acc1; \
	VMOVUPS 64(base), acc2; \
	VMOVUPS 96(base), acc3

#define STORE4(base, acc0, acc1, acc2, acc3) \
	VMOVUPS acc0, (base); \
	VMOVUPS acc1, 32(base); \
	VMOVUPS acc2, 64(base); \
	VMOVUPS acc3, 96(base)

// func mulVecAVX2(out *float32, outStride, nBlocks int, a *float32, aRow, k, rows int, codes *byte, rowBytes int, scale *float32, bits int)
//
// out[r·outStride + 8b+j] += Σ_k a[r·aRow + k] · w[k][8b+j] for the rows
// (1 or 2) activation rows and the nBlocks blocks whose row-0 codes start at
// codes, k ≥ 1 code rows rowBytes apart, ascending k, skipping a == ±0 row
// by row; outStride and aRow in bytes. One row takes its blocks four at a
// time, scales in Y4-Y7, so four add chains overlap. Two rows take them
// four at a time as well, eight accumulators (Y0, Y2, Y4, Y6 row 0; Y1, Y3,
// Y5, Y7 row 1), each code word decoded once into Y10 or Y12 and multiplied
// into both rows; with a0 and a1 in Y9 and Y15 and the shift counts in Y8
// and Y14 that is all sixteen registers, so the scales are memory operands.
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ nBlocks+16(FP), CX
	MOVQ k+40(FP), R10
	MOVQ codes+56(FP), BX
	MOVQ rowBytes+64(FP), R9
	MOVQ scale+72(FP), DX
	MOVQ bits+80(FP), R14
	MOVQ R9, R8
	SHLQ $6, R8 // prefetch distance: 64 rows
	CMPQ rows+48(FP), $2
	JEQ  pair
	MOVQ a+24(FP), SI
	CMPQ R14, $8
	JEQ  b4
	SHIFTS

w4:
	CMPQ CX, $4
	JLT  w1
	LOAD4(DI, Y0, Y1, Y2, Y3)
	LOAD4(DX, Y4, Y5, Y6, Y7)
	ROWS(w4loop, w4next)
	WORD((R12), Y10, Y4)
	WORD((R12)(R14*1), Y11, Y5)
	WORD((R12)(R14*2), Y12, Y6)
	WORD((R12)(R15*1), Y13, Y7)
	MAC(Y10, Y9, Y0)
	MAC(Y11, Y9, Y1)
	MAC(Y12, Y9, Y2)
	MAC(Y13, Y9, Y3)
	ROWSEND(w4loop, w4next)
	STORE4(DI, Y0, Y1, Y2, Y3)
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
	MAC(Y10, Y9, Y0)
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
	LOAD4(DI, Y0, Y1, Y2, Y3)
	LOAD4(DX, Y4, Y5, Y6, Y7)
	ROWS(b4loop, b4next)
	BYTES((R12), Y10, Y4)
	BYTES(8(R12), Y11, Y5)
	BYTES(16(R12), Y12, Y6)
	BYTES(24(R12), Y13, Y7)
	MAC(Y10, Y9, Y0)
	MAC(Y11, Y9, Y1)
	MAC(Y12, Y9, Y2)
	MAC(Y13, Y9, Y3)
	ROWSEND(b4loop, b4next)
	STORE4(DI, Y0, Y1, Y2, Y3)
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
	MAC(Y10, Y9, Y0)
	ROWSEND(b1loop, b1next)
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $8, BX
	DECQ CX
	JMP  b1

// Two rows: SI is a1's offset from a0, and out row 1 sits outStride bytes
// past DI, read into AX around each group of blocks.
pair:
	MOVQ aRow+32(FP), SI
	CMPQ R14, $8
	JEQ  pb4
	SHIFTS

pw4:
	CMPQ CX, $4
	JLT  pw1
	MOVQ outStride+8(FP), AX
	LEAQ (DI)(AX*1), AX
	LOAD4(DI, Y0, Y2, Y4, Y6)
	LOAD4(AX, Y1, Y3, Y5, Y7)
	PAIR(pw4loop, pw4only0, pw4zero0, pw4next)
	WORD((R12), Y10, (DX))
	WORD((R12)(R14*1), Y12, 32(DX))
	MAC2(Y10, Y11, Y0, Y1)
	MAC2(Y12, Y13, Y2, Y3)
	WORD((R12)(R14*2), Y10, 64(DX))
	WORD((R12)(R15*1), Y12, 96(DX))
	MAC2(Y10, Y11, Y4, Y5)
	MAC2(Y12, Y13, Y6, Y7)
	JMP pw4next
	ONLY0(pw4only0)
	WORD((R12), Y10, (DX))
	WORD((R12)(R14*1), Y11, 32(DX))
	WORD((R12)(R14*2), Y12, 64(DX))
	WORD((R12)(R15*1), Y13, 96(DX))
	MAC(Y10, Y9, Y0)
	MAC(Y11, Y9, Y2)
	MAC(Y12, Y9, Y4)
	MAC(Y13, Y9, Y6)
	JMP pw4next
	ZERO0(pw4zero0, pw4next)
	WORD((R12), Y10, (DX))
	WORD((R12)(R14*1), Y11, 32(DX))
	WORD((R12)(R14*2), Y12, 64(DX))
	WORD((R12)(R15*1), Y13, 96(DX))
	MAC(Y10, Y15, Y1)
	MAC(Y11, Y15, Y3)
	MAC(Y12, Y15, Y5)
	MAC(Y13, Y15, Y7)
	ROWSEND(pw4loop, pw4next)
	MOVQ outStride+8(FP), AX
	LEAQ (DI)(AX*1), AX
	STORE4(DI, Y0, Y2, Y4, Y6)
	STORE4(AX, Y1, Y3, Y5, Y7)
	ADDQ $128, DI
	ADDQ $128, DX
	LEAQ (BX)(R14*4), BX
	SUBQ $4, CX
	JMP  pw4

pw1:
	TESTQ CX, CX
	JZ    finish
	MOVQ outStride+8(FP), AX
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(AX*1), Y1
	PAIR(pw1loop, pw1only0, pw1zero0, pw1next)
	WORD((R12), Y10, (DX))
	MAC2(Y10, Y11, Y0, Y1)
	JMP pw1next
	ONLY0(pw1only0)
	WORD((R12), Y10, (DX))
	MAC(Y10, Y9, Y0)
	JMP pw1next
	ZERO0(pw1zero0, pw1next)
	WORD((R12), Y10, (DX))
	MAC(Y10, Y15, Y1)
	ROWSEND(pw1loop, pw1next)
	MOVQ outStride+8(FP), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ R14, BX
	DECQ CX
	JMP  pw1

pb4:
	CMPQ CX, $4
	JLT  pb1
	MOVQ outStride+8(FP), AX
	LEAQ (DI)(AX*1), AX
	LOAD4(DI, Y0, Y2, Y4, Y6)
	LOAD4(AX, Y1, Y3, Y5, Y7)
	PAIR(pb4loop, pb4only0, pb4zero0, pb4next)
	BYTES((R12), Y10, (DX))
	BYTES(8(R12), Y12, 32(DX))
	MAC2(Y10, Y11, Y0, Y1)
	MAC2(Y12, Y13, Y2, Y3)
	BYTES(16(R12), Y10, 64(DX))
	BYTES(24(R12), Y12, 96(DX))
	MAC2(Y10, Y11, Y4, Y5)
	MAC2(Y12, Y13, Y6, Y7)
	JMP pb4next
	ONLY0(pb4only0)
	BYTES((R12), Y10, (DX))
	BYTES(8(R12), Y11, 32(DX))
	BYTES(16(R12), Y12, 64(DX))
	BYTES(24(R12), Y13, 96(DX))
	MAC(Y10, Y9, Y0)
	MAC(Y11, Y9, Y2)
	MAC(Y12, Y9, Y4)
	MAC(Y13, Y9, Y6)
	JMP pb4next
	ZERO0(pb4zero0, pb4next)
	BYTES((R12), Y10, (DX))
	BYTES(8(R12), Y11, 32(DX))
	BYTES(16(R12), Y12, 64(DX))
	BYTES(24(R12), Y13, 96(DX))
	MAC(Y10, Y15, Y1)
	MAC(Y11, Y15, Y3)
	MAC(Y12, Y15, Y5)
	MAC(Y13, Y15, Y7)
	ROWSEND(pb4loop, pb4next)
	MOVQ outStride+8(FP), AX
	LEAQ (DI)(AX*1), AX
	STORE4(DI, Y0, Y2, Y4, Y6)
	STORE4(AX, Y1, Y3, Y5, Y7)
	ADDQ $128, DI
	ADDQ $128, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  pb4

pb1:
	TESTQ CX, CX
	JZ    finish
	MOVQ outStride+8(FP), AX
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(AX*1), Y1
	PAIR(pb1loop, pb1only0, pb1zero0, pb1next)
	BYTES((R12), Y10, (DX))
	MAC2(Y10, Y11, Y0, Y1)
	JMP pb1next
	ONLY0(pb1only0)
	BYTES((R12), Y10, (DX))
	MAC(Y10, Y9, Y0)
	JMP pb1next
	ZERO0(pb1zero0, pb1next)
	BYTES((R12), Y10, (DX))
	MAC(Y10, Y15, Y1)
	ROWSEND(pb1loop, pb1next)
	MOVQ outStride+8(FP), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $8, BX
	DECQ CX
	JMP  pb1

finish:
	VZEROUPPER
	RET

// ZDEC(y, z, m0, m1, scale, t): z = the dequantized rows of two blocks, 16
// columns, whose code words are at m0 and m1: each lane shifts its code to
// the bottom (counts in Z8), the table in Z9 maps the low four bits to the
// level, float32 of the code sign-extended, and the level is multiplied by
// the column's scale — WORD's float32(q)·scale. y is z's low half; t, a ymm,
// is clobbered.
#define ZDEC(y, z, m0, m1, scale, t) \
	VPBROADCASTD m0, y; \
	VPBROADCASTD m1, t; \
	VINSERTI64X4 $1, t, z, z; \
	VPSRLVD      Z8, z, z; \
	VPERMPS      Z9, z, z; \
	VMULPS       scale, z, z

// ZMAC2(w, t, acc0, acc1): acc0 += a0[k] (in Z14) × w in the lanes of K1
// and acc1 += a1[k] (in Z15) × w in the lanes of K2. w and t are clobbered.
#define ZMAC2(w, t, acc0, acc1) \
	VMULPS w, Z14, t; \
	VADDPS t, acc0, K1, acc0; \
	VMULPS w, Z15, w; \
	VADDPS w, acc1, K2, acc1

// ZSKIP(mem, k): k = all lanes when the float32 at mem is not ±0, else none
// — the integer test of ROWS, as a write mask.
#define ZSKIP(mem, k) \
	MOVL  mem, AX; \
	SHLL  $1, AX; \
	NEGL  AX; \
	SBBL  AX, AX; \
	KMOVW AX, k

// func mulVec2AVX512(out *float32, outStride, nBlocks int, a *float32, aRow, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)
//
// mulVecAVX2 at two activation rows of 2-, 3- or 4-bit codes, nBlocks a
// positive multiple of 8: out[r·outStride + 8b+j] += Σ_k a[r·aRow + k] ·
// w[k][8b+j] for r in 0..1, ascending k, skipping a == ±0 row by row;
// outStride and aRow in bytes. Blocks go eight at a time, 64 columns in
// eight zmm accumulators (Z0-Z3 row 0, Z4-Z7 row 1); each pair of code words
// is decoded once, 16 lanes wide, and multiplied into both rows. A row's
// zero skip is a write mask on its adds (K1, K2), so the adds of a skipped
// activation leave its sums as they were. levels holds the 16-entry level
// table of this width (entry i the level of code i mod 2^bits) and shifts
// the lane shift counts bits·(j mod 8). Only Z0-Z15 and no BP are written.
TEXT ·mulVec2AVX512(SB), NOSPLIT, $0-96
	MOVQ out+0(FP), DI
	MOVQ nBlocks+16(FP), CX
	MOVQ aRow+32(FP), SI
	MOVQ codes+48(FP), BX
	MOVQ rowBytes+56(FP), R9
	MOVQ scale+64(FP), DX
	MOVQ bits+72(FP), R14
	MOVQ levels+80(FP), AX
	VMOVUPS (AX), Z9
	MOVQ shifts+88(FP), AX
	VMOVDQU32 (AX), Z8
	LEAQ (R14)(R14*2), R15
	MOVQ R9, R8
	SHLQ $6, R8 // prefetch distance: 64 rows

z8:
	MOVQ    outStride+8(FP), AX
	LEAQ    (DI)(AX*1), AX
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS (AX), Z4
	VMOVUPS 64(AX), Z5
	VMOVUPS 128(AX), Z6
	VMOVUPS 192(AX), Z7
	MOVQ    a+24(FP), R11
	MOVQ    BX, R12
	MOVQ    k+40(FP), R13

z8loop:
	ZSKIP((R11), K1)
	ZSKIP((R11)(SI*1), K2)
	PREFETCHT0   (R12)(R8*1)
	VBROADCASTSS (R11), Z14
	VBROADCASTSS (R11)(SI*1), Z15
	LEAQ         (R12)(R14*4), R10
	ZDEC(Y10, Z10, (R12), (R12)(R14*1), (DX), Y11)
	ZDEC(Y12, Z12, (R12)(R14*2), (R12)(R15*1), 64(DX), Y13)
	ZMAC2(Z10, Z11, Z0, Z4)
	ZMAC2(Z12, Z13, Z1, Z5)
	ZDEC(Y10, Z10, (R10), (R10)(R14*1), 128(DX), Y11)
	ZDEC(Y12, Z12, (R10)(R14*2), (R10)(R15*1), 192(DX), Y13)
	ZMAC2(Z10, Z11, Z2, Z6)
	ZMAC2(Z12, Z13, Z3, Z7)
	ADDQ $4, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  z8loop
	MOVQ    outStride+8(FP), AX
	LEAQ    (DI)(AX*1), AX
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (AX)
	VMOVUPS Z5, 64(AX)
	VMOVUPS Z6, 128(AX)
	VMOVUPS Z7, 192(AX)
	ADDQ $256, DI
	ADDQ $256, DX
	LEAQ (BX)(R14*8), BX
	SUBQ $8, CX
	JNZ  z8
	VZEROUPPER
	RET

// ZMAC1(w, acc): acc += a[k] (in Z14) × w; w is clobbered.
#define ZMAC1(w, acc) \
	VMULPS w, Z14, w; \
	VADDPS w, acc, acc

// func mulVec1AVX512(out *float32, nBlocks int, a *float32, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)
//
// mulVec2AVX512 at one activation row: out[8b+j] += Σ_k a[k] · w[k][8b+j],
// ascending k, nBlocks a positive multiple of 8. Blocks go eight at a time,
// 64 columns in four zmm accumulators (Z0-Z3) with their scales in Z16-Z19;
// each pair of code words is decoded 16 lanes wide and multiplied into the
// sums, VMULPS then VADDPS. A code row whose a[k] is ±0 is not decoded at
// all: the integer test of ROWS, as a branch. levels and shifts are
// mulVec2AVX512's. No BP is written.
TEXT ·mulVec1AVX512(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ nBlocks+8(FP), CX
	MOVQ codes+32(FP), BX
	MOVQ rowBytes+40(FP), R9
	MOVQ scale+48(FP), DX
	MOVQ bits+56(FP), R14
	MOVQ levels+64(FP), AX
	VMOVUPS (AX), Z9
	MOVQ shifts+72(FP), AX
	VMOVDQU32 (AX), Z8
	LEAQ (R14)(R14*2), R15
	MOVQ R9, R8
	SHLQ $6, R8 // prefetch distance: 64 rows

z1:
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS (DX), Z16
	VMOVUPS 64(DX), Z17
	VMOVUPS 128(DX), Z18
	VMOVUPS 192(DX), Z19
	MOVQ    a+16(FP), R11
	MOVQ    BX, R12
	MOVQ    k+24(FP), R13

z1loop:
	PREFETCHT0 (R12)(R8*1)
	MOVL       (R11), AX
	ADDL       AX, AX
	JZ         z1skip
	VBROADCASTSS (R11), Z14
	LEAQ         (R12)(R14*4), R10
	ZDEC(Y10, Z10, (R12), (R12)(R14*1), Z16, Y11)
	ZDEC(Y12, Z12, (R12)(R14*2), (R12)(R15*1), Z17, Y13)
	ZDEC(Y20, Z20, (R10), (R10)(R14*1), Z18, Y21)
	ZDEC(Y22, Z22, (R10)(R14*2), (R10)(R15*1), Z19, Y23)
	ZMAC1(Z10, Z0)
	ZMAC1(Z12, Z1)
	ZMAC1(Z20, Z2)
	ZMAC1(Z22, Z3)

z1skip:
	ADDQ $4, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  z1loop
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	LEAQ (BX)(R14*8), BX
	SUBQ $8, CX
	JNZ  z1
	VZEROUPPER
	RET

// ZDEC8(w, m0, m1, scale): w = the dequantized rows of two blocks, 16
// columns, whose code words are at m0 and m1 — ZDEC with the level table in
// Z16, the shift counts in Z17 and the scales in a register. Z25 is
// clobbered.
#define ZDEC8(w, m0, m1, scale) \
	VPBROADCASTD m0, w; \
	VPBROADCASTD m1, Z25; \
	VINSERTI64X4 $1, Y25, w, w; \
	VPSRLVD      Z17, w, w; \
	VPERMPS      Z16, w, w; \
	VMULPS       scale, w, w

// ROW8(row, lo, hi, skip): lo:hi += a[k] of one row (at row) × the 32
// decoded columns in Z20:Z21, unless a[k] is ±0 — the integer test of ROWS,
// taken per row, so each row skips exactly its own zeros and a row of
// padding costs a load and a branch.
#define ROW8(row, lo, hi, skip) \
	MOVL row, AX; \
	ADDL AX, AX; \
	JZ   skip; \
	VBROADCASTSS row, Z22; \
	VMULPS Z20, Z22, Z23; \
	VADDPS Z23, lo, lo; \
	VMULPS Z21, Z22, Z24; \
	VADDPS Z24, hi, hi; \
skip:

// OUT8LOAD and OUT8STORE move the eight rows of 32 sums at base, stride
// bytes apart, into and out of the accumulators Z0-Z15 (row r in
// Z2r:Z2r+1). R10, R12 and R13 are clobbered.
#define OUT8LOAD(base, stride) \
	LEAQ    (base)(stride*2), R12; \
	LEAQ    (base)(stride*4), R10; \
	LEAQ    (R10)(stride*2), R13; \
	VMOVUPS (base), Z0; \
	VMOVUPS 64(base), Z1; \
	VMOVUPS (base)(stride*1), Z2; \
	VMOVUPS 64(base)(stride*1), Z3; \
	VMOVUPS (R12), Z4; \
	VMOVUPS 64(R12), Z5; \
	VMOVUPS (R12)(stride*1), Z6; \
	VMOVUPS 64(R12)(stride*1), Z7; \
	VMOVUPS (R10), Z8; \
	VMOVUPS 64(R10), Z9; \
	VMOVUPS (R10)(stride*1), Z10; \
	VMOVUPS 64(R10)(stride*1), Z11; \
	VMOVUPS (R13), Z12; \
	VMOVUPS 64(R13), Z13; \
	VMOVUPS (R13)(stride*1), Z14; \
	VMOVUPS 64(R13)(stride*1), Z15

#define OUT8STORE(base, stride) \
	LEAQ    (base)(stride*2), R12; \
	LEAQ    (base)(stride*4), R10; \
	LEAQ    (R10)(stride*2), R13; \
	VMOVUPS Z0, (base); \
	VMOVUPS Z1, 64(base); \
	VMOVUPS Z2, (base)(stride*1); \
	VMOVUPS Z3, 64(base)(stride*1); \
	VMOVUPS Z4, (R12); \
	VMOVUPS Z5, 64(R12); \
	VMOVUPS Z6, (R12)(stride*1); \
	VMOVUPS Z7, 64(R12)(stride*1); \
	VMOVUPS Z8, (R10); \
	VMOVUPS Z9, 64(R10); \
	VMOVUPS Z10, (R10)(stride*1); \
	VMOVUPS Z11, 64(R10)(stride*1); \
	VMOVUPS Z12, (R13); \
	VMOVUPS Z13, 64(R13); \
	VMOVUPS Z14, (R13)(stride*1); \
	VMOVUPS Z15, 64(R13)(stride*1)

// func mulVec8AVX512(out *float32, outStride, nBlocks int, a *float32, aRow, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)
//
// mulVecAVX2 at eight activation rows of 2-, 3- or 4-bit codes, nBlocks a
// positive multiple of 4: out[r·outStride + 8b+j] += Σ_k a[r·aRow + k] ·
// w[k][8b+j] for r in 0..7, ascending k, skipping a == ±0 row by row;
// outStride and aRow in bytes. Blocks go four at a time, 32 columns of eight
// rows in sixteen zmm accumulators (Z0:Z1 row 0 … Z14:Z15 row 7) live across
// the whole k sweep; per k the four code words are decoded once, in
// registers (Z20:Z21), and multiplied into all eight rows, VMULPS then
// VADDPS. The scales of the 32 columns stay in Z18:Z19 for the sweep. levels
// and shifts are mulVec2AVX512's. Rows 0-3 are read at R11 plus 0-3 row
// strides, rows 4-7 at R10 plus the same (SI = aRow, DX = 3·aRow). No BP is
// written.
TEXT ·mulVec8AVX512(SB), NOSPLIT, $0-96
	MOVQ out+0(FP), DI
	MOVQ nBlocks+16(FP), CX
	MOVQ aRow+32(FP), SI
	LEAQ (SI)(SI*2), DX
	MOVQ codes+48(FP), BX
	MOVQ rowBytes+56(FP), R9
	MOVQ bits+72(FP), R14
	MOVQ levels+80(FP), AX
	VMOVUPS (AX), Z16
	MOVQ shifts+88(FP), AX
	VMOVDQU32 (AX), Z17
	LEAQ (R14)(R14*2), R15
	MOVQ R9, R8
	SHLQ $6, R8 // prefetch distance: 64 rows

z32:
	// This group's scales sit as far past scale as its sums past out.
	MOVQ    DI, AX
	SUBQ    out+0(FP), AX
	ADDQ    scale+64(FP), AX
	VMOVUPS (AX), Z18
	VMOVUPS 64(AX), Z19
	MOVQ    outStride+8(FP), AX
	OUT8LOAD(DI, AX)
	MOVQ    a+24(FP), R11
	LEAQ    (R11)(SI*4), R10
	MOVQ    BX, R12
	MOVQ    k+40(FP), R13

z32loop:
	PREFETCHT0 (R12)(R8*1)
	ZDEC8(Z20, (R12), (R12)(R14*1), Z18)
	ZDEC8(Z21, (R12)(R14*2), (R12)(R15*1), Z19)
	ROW8((R11), Z0, Z1, z32row0)
	ROW8((R11)(SI*1), Z2, Z3, z32row1)
	ROW8((R11)(SI*2), Z4, Z5, z32row2)
	ROW8((R11)(DX*1), Z6, Z7, z32row3)
	ROW8((R10), Z8, Z9, z32row4)
	ROW8((R10)(SI*1), Z10, Z11, z32row5)
	ROW8((R10)(SI*2), Z12, Z13, z32row6)
	ROW8((R10)(DX*1), Z14, Z15, z32row7)
	ADDQ $4, R11
	ADDQ $4, R10
	ADDQ R9, R12
	DECQ R13
	JNZ  z32loop
	MOVQ outStride+8(FP), AX
	OUT8STORE(DI, AX)
	ADDQ $128, DI
	LEAQ (BX)(R14*4), BX
	SUBQ $4, CX
	JNZ  z32
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

// FQ(x, s, t, r): x, four float64 values of a row, becomes their dequantized
// values at the four columns' scales in s: x/s + 0, rounded half away from
// zero as trunc(x) + trunc(2·(x − trunc(x))) — the remainder is exact, so
// that is math.Round's value, a −0 included — then clamped with x the second
// operand (VMAXPD/VMINPD return it when it is NaN, as the Go compares leave a
// NaN), then × s. t and r are clobbered; Y11 holds 0, Y14 −qmax, Y15 qmax.
#define FQ(x, s, t, r) \
	VDIVPD   s, x, x; \
	VADDPD   Y11, x, x; \
	VROUNDPD $3, x, t; \
	VSUBPD   t, x, r; \
	VADDPD   r, r, r; \
	VROUNDPD $3, r, r; \
	VADDPD   r, t, x; \
	VMAXPD   x, Y14, x; \
	VMINPD   x, Y15, x; \
	VMULPD   s, x, x

// func fakeQuantAVX2(dst, src *float32, rows, n, stride int, qmax float64)
//
// The twin of fakeQuantGo (quant.go) over n columns, n a multiple of 8, of
// rows rows stride elements apart; dst may be src. Eight columns at a time:
// their |max| down the rows — VMAXPS with |v| first, so a NaN keeps the
// running max as the Go compare does — then |max| (an all-NaN column's −Inf
// becomes +Inf) widened and divided by qmax into two ymm of float64 scales,
// then every row through FQ and VCVTPD2PS, the float32 conversion Go makes.
// A column whose |max| is 0 stores +0. The same operations in the same
// order as the Go loop, so the same bits.
TEXT ·fakeQuantAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         stride+32(FP), R8
	SHLQ         $2, R8
	VBROADCASTSD qmax+40(FP), Y15
	VXORPS       Y11, Y11, Y11
	VSUBPD       Y15, Y11, Y14 // −qmax
	VPCMPEQD     Y13, Y13, Y13
	VPSLLD       $23, Y13, Y12 // −Inf
	VPSRLD       $1, Y13, Y13  // the |·| mask

fqcol:
	VMOVAPS Y12, Y0
	MOVQ    SI, R9
	MOVQ    DX, R10

fqmax:
	VANDPS (R9), Y13, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ   R8, R9
	DECQ   R10
	JNZ    fqmax
	VANDPS       Y13, Y0, Y0
	VCMPPS       $0, Y11, Y0, Y10 // |max| == 0
	VCVTPS2PD    X0, Y2
	VEXTRACTF128 $1, Y0, X3
	VCVTPS2PD    X3, Y3
	VDIVPD       Y15, Y2, Y2 // columns 0-3's scales
	VDIVPD       Y15, Y3, Y3 // columns 4-7's
	MOVQ         SI, R9
	MOVQ         DI, R11
	MOVQ         DX, R10

fqrow:
	VCVTPS2PD   (R9), Y4
	VCVTPS2PD   16(R9), Y5
	FQ(Y4, Y2, Y6, Y7)
	FQ(Y5, Y3, Y8, Y9)
	VCVTPD2PSY  Y4, X4
	VCVTPD2PSY  Y5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VANDNPS     Y4, Y10, Y4
	VMOVUPS     Y4, (R11)
	ADDQ        R8, R9
	ADDQ        R8, R11
	DECQ        R10
	JNZ         fqrow
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JNZ         fqcol
	VZEROUPPER
	RET
