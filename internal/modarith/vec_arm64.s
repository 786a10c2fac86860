//go:build arm64 && !noasm

#include "textflag.h"

// arm64 row kernels (TierNEON). AArch64 SIMD has no 64-bit vector multiply,
// so the 64x64->128 products are scalar MUL/UMULH ladders; the tier's win
// over compiled Go is bounds-check-free inner loops with post-increment
// addressing, not lane parallelism. Only the kernels at or above parity are
// implemented: the Shoup-multiply family, butterflies, wide
// accumulation and the reductions. The Barrett-quotient family stays on the
// Go fallback (the compiler already emits the same MUL/UMULH sequence).
//
// Bit-identical contract as vec_go.go: same products, same conditional
// subtractions (CSEL on the HS/unsigned-no-borrow condition mirrors
// `if r >= bound { r -= bound }` exactly).
//
// Callers guarantee len > 0; scalar kernels need no lane alignment.

// func vecMulShoupNEON(out, a []uint64, w, wShoup, q uint64)
TEXT ·vecMulShoupNEON(SB), NOSPLIT, $0-72
	MOVD out_base+0(FP), R0
	MOVD a_base+24(FP), R1
	MOVD a_len+32(FP), R3
	MOVD w+48(FP), R10
	MOVD wShoup+56(FP), R11
	MOVD q+64(FP), R12
mulShoupLoop:
	MOVD.P 8(R1), R4
	UMULH R11, R4, R5      // hi64(a*wShoup)
	MUL R10, R4, R6        // a*w
	MUL R12, R5, R7        // hi*q
	SUB R7, R6, R4         // r in [0, 2q)
	SUBS R12, R4, R5
	CSEL HS, R5, R4, R4    // r cond-sub q
	MOVD.P R4, 8(R0)
	SUBS $1, R3
	BNE mulShoupLoop
	RET

// func vecSubMulShoupLazyNEON(out, a, b []uint64, w, wShoup, q, twoQ uint64)
TEXT ·vecSubMulShoupLazyNEON(SB), NOSPLIT, $0-104
	MOVD out_base+0(FP), R0
	MOVD a_base+24(FP), R1
	MOVD a_len+32(FP), R3
	MOVD b_base+48(FP), R2
	MOVD w+72(FP), R10
	MOVD wShoup+80(FP), R11
	MOVD q+88(FP), R12
	MOVD twoQ+96(FP), R13
subMulShoupLazyLoop:
	MOVD.P 8(R1), R4
	MOVD.P 8(R2), R5
	ADD R13, R4, R4
	SUB R5, R4, R4         // d = a + 2q - b
	UMULH R11, R4, R5      // hi64(d*wShoup)
	MUL R10, R4, R6        // d*w
	MUL R12, R5, R7        // hi*q
	SUB R7, R6, R4
	SUBS R12, R4, R5
	CSEL HS, R5, R4, R4
	MOVD.P R4, 8(R0)
	SUBS $1, R3
	BNE subMulShoupLazyLoop
	RET

// func vecMulWideNEON(accHi, accLo, row []uint64, w uint64)
TEXT ·vecMulWideNEON(SB), NOSPLIT, $0-80
	MOVD accHi_base+0(FP), R0
	MOVD accLo_base+24(FP), R1
	MOVD row_base+48(FP), R2
	MOVD row_len+56(FP), R3
	MOVD w+72(FP), R10
mulWideLoop:
	MOVD.P 8(R2), R4
	MUL R10, R4, R5        // plo
	UMULH R10, R4, R6      // phi
	MOVD.P R6, 8(R0)
	MOVD.P R5, 8(R1)
	SUBS $1, R3
	BNE mulWideLoop
	RET

// func vecMulAccWideNEON(accHi, accLo, row []uint64, w uint64)
TEXT ·vecMulAccWideNEON(SB), NOSPLIT, $0-80
	MOVD accHi_base+0(FP), R0
	MOVD accLo_base+24(FP), R1
	MOVD row_base+48(FP), R2
	MOVD row_len+56(FP), R3
	MOVD w+72(FP), R10
mulAccWideLoop:
	MOVD.P 8(R2), R4
	MUL R10, R4, R5        // plo
	UMULH R10, R4, R6      // phi
	MOVD (R1), R7
	ADDS R5, R7, R7        // accLo += plo, carry out
	MOVD (R0), R8
	ADC R6, R8, R8         // accHi += phi + carry
	MOVD.P R7, 8(R1)
	MOVD.P R8, 8(R0)
	SUBS $1, R3
	BNE mulAccWideLoop
	RET

// func vecReduceTwoQNEON(p []uint64, q uint64)
TEXT ·vecReduceTwoQNEON(SB), NOSPLIT, $0-32
	MOVD p_base+0(FP), R0
	MOVD p_len+8(FP), R3
	MOVD q+24(FP), R12
reduceTwoQLoop:
	MOVD (R0), R4
	SUBS R12, R4, R5
	CSEL HS, R5, R4, R4
	MOVD.P R4, 8(R0)
	SUBS $1, R3
	BNE reduceTwoQLoop
	RET

// func vecFwdButterflyNEON(x, y []uint64, w, wShoup, q, twoQ uint64)
TEXT ·vecFwdButterflyNEON(SB), NOSPLIT, $0-80
	MOVD x_base+0(FP), R0
	MOVD x_len+8(FP), R3
	MOVD y_base+24(FP), R1
	MOVD w+48(FP), R10
	MOVD wShoup+56(FP), R11
	MOVD q+64(FP), R12
	MOVD twoQ+72(FP), R13
fwdBlockLoop:
	MOVD (R0), R4          // u
	MOVD (R1), R5          // v
	SUBS R13, R4, R6
	CSEL HS, R6, R4, R4    // u cond-sub 2q
	UMULH R11, R5, R6      // h = hi64(v*wShoup)
	MUL R10, R5, R7        // v*w
	MUL R12, R6, R8        // h*q
	SUB R8, R7, R5         // v' in [0, 2q)
	ADD R5, R4, R6         // x' = u + v'
	SUB R5, R4, R7
	ADD R13, R7, R7        // y' = u - v' + 2q
	MOVD.P R6, 8(R0)
	MOVD.P R7, 8(R1)
	SUBS $1, R3
	BNE fwdBlockLoop
	RET

// func vecInvButterflyNEON(x, y []uint64, w, wShoup, q, twoQ uint64)
TEXT ·vecInvButterflyNEON(SB), NOSPLIT, $0-80
	MOVD x_base+0(FP), R0
	MOVD x_len+8(FP), R3
	MOVD y_base+24(FP), R1
	MOVD w+48(FP), R10
	MOVD wShoup+56(FP), R11
	MOVD q+64(FP), R12
	MOVD twoQ+72(FP), R13
invBlockLoop:
	MOVD (R0), R4          // u
	MOVD (R1), R5          // v
	ADD R5, R4, R6         // s = u + v
	SUBS R13, R6, R7
	CSEL HS, R7, R6, R6    // x' in [0, 2q)
	SUB R5, R4, R7
	ADD R13, R7, R7        // d = u - v + 2q
	UMULH R11, R7, R8      // h = hi64(d*wShoup)
	MUL R10, R7, R9        // d*w
	MUL R12, R8, R8        // h*q
	SUB R8, R9, R7         // y' in [0, 2q)
	MOVD.P R6, 8(R0)
	MOVD.P R7, 8(R1)
	SUBS $1, R3
	BNE invBlockLoop
	RET
