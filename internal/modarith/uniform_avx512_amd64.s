//go:build amd64 && !noasm

#include "textflag.h"

// The fused uniform expander of the AVX-512 tier (uniform.go states the
// stream): AES-256-CTR keystream on VAES, Lemire's map and the compress of
// the accepted words, without leaving registers. Requires AVX-512 F + DQ and
// VAES, checked by cpu_amd64.go before the kernel is registered.
//
// A batch is sixteen counter blocks in four ZMM states, thirty-two words.
// The loop is software-pipelined over two register sets: while the AES
// rounds of one batch run (VAESENC has one ZMM port), the words of the
// batch before are mapped on the other vector port, their instructions
// interleaved with the rounds so both are in the scheduler together. A
// word x maps by
//	x·q = hh·2^64 + (hl + lh)·2^32 + ll   (32×32 partial products)
//	mid = lh + ll>>32 + (hl mod 2^32)      (< 2^62: q < 2^61)
//	hi  = hh + hl>>32 + mid>>32,  lo = mid·2^32 + (ll mod 2^32)
// and is kept, as hi, where lo ≥ 2^64 mod q; the kept words of a state are
// packed to the front of its register (VPCOMPRESSQ) for one store. The
// 32-bit moves between halves are dword shuffles, zero-masked where a true
// shift is needed: ZMM shifts would take the AES port.
//
// One call fills a run of n words for each tile reference in turn, the runs
// back to back in dst. A full store writes eight lanes and may run up to
// seven words past the kept ones. While more than thirty-two words of the
// run are owed, every store of the mapped batch lands inside the run and the
// next store overwrites the excess, and one more batch of the run is
// generated. Once thirty-two or fewer are owed, the first batch of the next
// run is generated (in the other register set, while this run's last batch
// is mapped) and the last batch's states are stored masked to the words
// still owed, leaving as soon as none is; any still owed after it come one
// state at a time, from the run's counter saved on the stack. Keystream left
// over when a run is full is discarded, as the Go kernel discards it.
//
// Registers:
//	Z0–Z3, Z4–Z7 the two batches   Z8 next counter block   Z9 +4 blocks per lane
//	Z10 q   Z11 q>>32   Z12 2^64 mod q   Z13–Z16 scratch
//	Z17–Z31 the fifteen round keys   K2 / K3 the low / high dword of each word

// Counter block lanes of the first state: (tag, ctr+0) … (tag, ctr+3).
DATA expandCtrOff<>+0(SB)/8, $0
DATA expandCtrOff<>+8(SB)/8, $0
DATA expandCtrOff<>+16(SB)/8, $0
DATA expandCtrOff<>+24(SB)/8, $1
DATA expandCtrOff<>+32(SB)/8, $0
DATA expandCtrOff<>+40(SB)/8, $2
DATA expandCtrOff<>+48(SB)/8, $0
DATA expandCtrOff<>+56(SB)/8, $3
GLOBL expandCtrOff<>(SB), RODATA|NOPTR, $64

DATA expandCtrStep<>+0(SB)/8, $0
DATA expandCtrStep<>+8(SB)/8, $4
DATA expandCtrStep<>+16(SB)/8, $0
DATA expandCtrStep<>+24(SB)/8, $4
DATA expandCtrStep<>+32(SB)/8, $0
DATA expandCtrStep<>+40(SB)/8, $4
DATA expandCtrStep<>+48(SB)/8, $0
DATA expandCtrStep<>+56(SB)/8, $4
GLOBL expandCtrStep<>(SB), RODATA|NOPTR, $64

// expandHeadMask<>[c] keeps the first c lanes.
DATA expandHeadMask<>+0(SB)/8, $0x7f3f1f0f07030100
DATA expandHeadMask<>+8(SB)/1, $0xff
GLOBL expandHeadMask<>(SB), RODATA|NOPTR, $9

// START opens state X on the next four counter blocks (AES round 0).
#define START(X) \
	VPXORQ Z17, Z8, X \
	VPADDQ Z9, Z8, Z8

#define ROUND(K, A, B, C, D) \
	VAESENC K, A, A \
	VAESENC K, B, B \
	VAESENC K, C, C \
	VAESENC K, D, D

#define LAST(A, B, C, D) \
	VAESENCLAST Z31, A, A \
	VAESENCLAST Z31, B, B \
	VAESENCLAST Z31, C, C \
	VAESENCLAST Z31, D, D

// MAP1–MAP3 map the eight keystream words of X: X ends holding the kept
// values packed to its front, K1 the kept lanes. Clobbers Z13–Z16.
#define MAP1(X) \
	VPSHUFD $0xf5, X, Z13           \ // xh in the low dwords
	VPMULUDQ Z11, Z13, Z14          \ // hh = xh·qh
	VPMULUDQ Z10, Z13, Z13          \ // hl = xh·ql
	VPMULUDQ Z11, X, Z15            \ // lh = xl·qh
	VPMULUDQ Z10, X, X              \ // ll = xl·ql
	VPSHUFD.Z $0xf5, X, K2, Z16       // ll>>32

#define MAP2(X) \
	VPADDQ Z16, Z15, Z15            \
	VMOVDQA32.Z Z13, K2, Z16        \
	VPADDQ Z16, Z15, Z15            \ // mid = lh + ll>>32 + hl mod 2^32
	VPSHUFD.Z $0xf5, Z13, K2, Z13   \
	VPADDQ Z13, Z14, Z14            \ // hh + hl>>32
	VPSHUFD.Z $0xf5, Z15, K2, Z16     // mid>>32

#define MAP3(X) \
	VPADDQ Z16, Z14, Z14            \ // hi
	VPSHUFD $0xa0, Z15, K3, X       \ // lo = mid<<32 | ll mod 2^32
	VPCMPUQ $5, Z12, X, K1          \ // keep: lo ≥ 2^64 mod q
	VPCOMPRESSQ Z14, K1, X

// STORE writes the eight lanes of X at DI and advances DI and the count CX
// over the kept ones: the store of a batch mapped while more than thirty-two
// words are owed.
#define STORE(X) \
	VMOVDQU64 X, (DI)   \
	KMOVB K1, AX        \
	POPCNTL AX, AX      \
	LEAQ (DI)(AX*8), DI \
	SUBQ AX, CX

// STORE_LAST stores the kept words of X, at most the CX still owed, and
// leaves through done once none is owed.
#define STORE_LAST(X, masked, adv, done) \
	KMOVB K1, AX                  \
	POPCNTL AX, AX                \
	CMPQ CX, $8                   \
	JB masked                     \
	VMOVDQU64 X, (DI)             \
	JMP adv                       \
masked:                           \
	CMPQ AX, CX                   \
	CMOVQHI CX, AX                \
	LEAQ expandHeadMask<>(SB), BX \
	MOVBQZX (BX)(AX*1), BX        \
	KMOVB BX, K1                  \
	VMOVDQU64 X, K1, (DI)         \
adv:                              \
	LEAQ (DI)(AX*8), DI           \
	SUBQ AX, CX                   \
	JZ done

#define MAP_LAST(X, masked, adv, done) \
	MAP1(X) \
	MAP2(X) \
	MAP3(X) \
	STORE_LAST(X, masked, adv, done)

// COUNTER points Z8 at the first counter block of the tile reference at
// (R9): lanes (tag, block+0) … (tag, block+3).
#define COUNTER \
	VBROADCASTI32X4 (R9), Z8          \
	VPADDQ expandCtrOff<>(SB), Z8, Z8

// func expandUniformAVX512(dst []uint64, rk *[15][16]byte, tiles []TileRef, n int, q, rejectBelow uint64)
TEXT ·expandUniformAVX512(SB), NOSPLIT, $64-80
	MOVQ dst_base+0(FP), DI
	MOVQ rk+24(FP), SI
	MOVQ tiles_base+32(FP), R9
	MOVQ tiles_len+40(FP), R10
	MOVQ n+56(FP), R11
	VBROADCASTI32X4 0(SI), Z17
	VBROADCASTI32X4 16(SI), Z18
	VBROADCASTI32X4 32(SI), Z19
	VBROADCASTI32X4 48(SI), Z20
	VBROADCASTI32X4 64(SI), Z21
	VBROADCASTI32X4 80(SI), Z22
	VBROADCASTI32X4 96(SI), Z23
	VBROADCASTI32X4 112(SI), Z24
	VBROADCASTI32X4 128(SI), Z25
	VBROADCASTI32X4 144(SI), Z26
	VBROADCASTI32X4 160(SI), Z27
	VBROADCASTI32X4 176(SI), Z28
	VBROADCASTI32X4 192(SI), Z29
	VBROADCASTI32X4 208(SI), Z30
	VBROADCASTI32X4 224(SI), Z31
	VMOVDQU64 expandCtrStep<>(SB), Z9
	VPBROADCASTQ q+64(FP), Z10
	VPSRLQ $32, Z10, Z11
	VPBROADCASTQ rejectBelow+72(FP), Z12
	MOVQ $0x5555, AX
	KMOVW AX, K2
	MOVQ $0xaaaa, AX
	KMOVW AX, K3
	TESTQ R11, R11
	JZ expandDone
	DECQ R10                        // tile references after the current one
	JS expandDone
	MOVQ R11, CX
	COUNTER
// The first batch of the first run, into Z4–Z7.
	START(Z4)
	START(Z5)
	START(Z6)
	START(Z7)
	ROUND(Z18, Z4, Z5, Z6, Z7)
	ROUND(Z19, Z4, Z5, Z6, Z7)
	ROUND(Z20, Z4, Z5, Z6, Z7)
	ROUND(Z21, Z4, Z5, Z6, Z7)
	ROUND(Z22, Z4, Z5, Z6, Z7)
	ROUND(Z23, Z4, Z5, Z6, Z7)
	ROUND(Z24, Z4, Z5, Z6, Z7)
	ROUND(Z25, Z4, Z5, Z6, Z7)
	ROUND(Z26, Z4, Z5, Z6, Z7)
	ROUND(Z27, Z4, Z5, Z6, Z7)
	ROUND(Z28, Z4, Z5, Z6, Z7)
	ROUND(Z29, Z4, Z5, Z6, Z7)
	ROUND(Z30, Z4, Z5, Z6, Z7)
	LAST(Z4, Z5, Z6, Z7)
// Pending batch in Z4–Z7.
expandLoopB:
	CMPQ CX, $32
	JBE expandLastB
	START(Z0)
	START(Z1)
	START(Z2)
	START(Z3)
	ROUND(Z18, Z0, Z1, Z2, Z3)
	MAP1(Z4)
	MAP2(Z4)
	ROUND(Z19, Z0, Z1, Z2, Z3)
	MAP3(Z4)
	ROUND(Z20, Z0, Z1, Z2, Z3)
	STORE(Z4)
	ROUND(Z21, Z0, Z1, Z2, Z3)
	MAP1(Z5)
	ROUND(Z22, Z0, Z1, Z2, Z3)
	MAP2(Z5)
	ROUND(Z23, Z0, Z1, Z2, Z3)
	MAP3(Z5)
	ROUND(Z24, Z0, Z1, Z2, Z3)
	STORE(Z5)
	ROUND(Z25, Z0, Z1, Z2, Z3)
	MAP1(Z6)
	MAP2(Z6)
	ROUND(Z26, Z0, Z1, Z2, Z3)
	MAP3(Z6)
	ROUND(Z27, Z0, Z1, Z2, Z3)
	STORE(Z6)
	ROUND(Z28, Z0, Z1, Z2, Z3)
	MAP1(Z7)
	ROUND(Z29, Z0, Z1, Z2, Z3)
	MAP2(Z7)
	ROUND(Z30, Z0, Z1, Z2, Z3)
	MAP3(Z7)
	LAST(Z0, Z1, Z2, Z3)
	STORE(Z7)
	JMP expandLoopA
// Pending batch in Z0–Z3.
expandLoopA:
	CMPQ CX, $32
	JBE expandLastA
	START(Z4)
	START(Z5)
	START(Z6)
	START(Z7)
	ROUND(Z18, Z4, Z5, Z6, Z7)
	MAP1(Z0)
	MAP2(Z0)
	ROUND(Z19, Z4, Z5, Z6, Z7)
	MAP3(Z0)
	ROUND(Z20, Z4, Z5, Z6, Z7)
	STORE(Z0)
	ROUND(Z21, Z4, Z5, Z6, Z7)
	MAP1(Z1)
	ROUND(Z22, Z4, Z5, Z6, Z7)
	MAP2(Z1)
	ROUND(Z23, Z4, Z5, Z6, Z7)
	MAP3(Z1)
	ROUND(Z24, Z4, Z5, Z6, Z7)
	STORE(Z1)
	ROUND(Z25, Z4, Z5, Z6, Z7)
	MAP1(Z2)
	MAP2(Z2)
	ROUND(Z26, Z4, Z5, Z6, Z7)
	MAP3(Z2)
	ROUND(Z27, Z4, Z5, Z6, Z7)
	STORE(Z2)
	ROUND(Z28, Z4, Z5, Z6, Z7)
	MAP1(Z3)
	ROUND(Z29, Z4, Z5, Z6, Z7)
	MAP2(Z3)
	ROUND(Z30, Z4, Z5, Z6, Z7)
	MAP3(Z3)
	LAST(Z4, Z5, Z6, Z7)
	STORE(Z3)
	JMP expandLoopB
// At most thirty-two of the run owed: start the next run's first batch in
// Z0–Z3, then store the pending one masked.
expandLastB:
	VMOVDQU64 Z8, ctr-64(SP)        // the run's next counter block, for its tail
	TESTQ R10, R10
	JZ expandMapB
	ADDQ $16, R9
	COUNTER
	START(Z0)
	START(Z1)
	START(Z2)
	START(Z3)
	ROUND(Z18, Z0, Z1, Z2, Z3)
	ROUND(Z19, Z0, Z1, Z2, Z3)
	ROUND(Z20, Z0, Z1, Z2, Z3)
	ROUND(Z21, Z0, Z1, Z2, Z3)
	ROUND(Z22, Z0, Z1, Z2, Z3)
	ROUND(Z23, Z0, Z1, Z2, Z3)
	ROUND(Z24, Z0, Z1, Z2, Z3)
	ROUND(Z25, Z0, Z1, Z2, Z3)
	ROUND(Z26, Z0, Z1, Z2, Z3)
	ROUND(Z27, Z0, Z1, Z2, Z3)
	ROUND(Z28, Z0, Z1, Z2, Z3)
	ROUND(Z29, Z0, Z1, Z2, Z3)
	ROUND(Z30, Z0, Z1, Z2, Z3)
	LAST(Z0, Z1, Z2, Z3)
expandMapB:
	MAP_LAST(Z4, expandMaskedB4, expandAdvB4, expandRunDoneB)
	MAP_LAST(Z5, expandMaskedB5, expandAdvB5, expandRunDoneB)
	MAP_LAST(Z6, expandMaskedB6, expandAdvB6, expandRunDoneB)
	MAP_LAST(Z7, expandMaskedB7, expandAdvB7, expandRunDoneB)
// Still owed after the last batch: one state at a time, in Z4.
expandTailB:
	VMOVDQU64 ctr-64(SP), Z13
	VPXORQ Z17, Z13, Z4
	VPADDQ Z9, Z13, Z13
	VMOVDQU64 Z13, ctr-64(SP)
	VAESENC Z18, Z4, Z4
	VAESENC Z19, Z4, Z4
	VAESENC Z20, Z4, Z4
	VAESENC Z21, Z4, Z4
	VAESENC Z22, Z4, Z4
	VAESENC Z23, Z4, Z4
	VAESENC Z24, Z4, Z4
	VAESENC Z25, Z4, Z4
	VAESENC Z26, Z4, Z4
	VAESENC Z27, Z4, Z4
	VAESENC Z28, Z4, Z4
	VAESENC Z29, Z4, Z4
	VAESENC Z30, Z4, Z4
	VAESENCLAST Z31, Z4, Z4
	MAP_LAST(Z4, expandMaskedTB, expandAdvTB, expandRunDoneB)
	JMP expandTailB
expandRunDoneB:
	DECQ R10
	JS expandDone
	MOVQ R11, CX
	JMP expandLoopA
// At most thirty-two of the run owed: start the next run's first batch in
// Z4–Z7, then store the pending one masked.
expandLastA:
	VMOVDQU64 Z8, ctr-64(SP)        // the run's next counter block, for its tail
	TESTQ R10, R10
	JZ expandMapA
	ADDQ $16, R9
	COUNTER
	START(Z4)
	START(Z5)
	START(Z6)
	START(Z7)
	ROUND(Z18, Z4, Z5, Z6, Z7)
	ROUND(Z19, Z4, Z5, Z6, Z7)
	ROUND(Z20, Z4, Z5, Z6, Z7)
	ROUND(Z21, Z4, Z5, Z6, Z7)
	ROUND(Z22, Z4, Z5, Z6, Z7)
	ROUND(Z23, Z4, Z5, Z6, Z7)
	ROUND(Z24, Z4, Z5, Z6, Z7)
	ROUND(Z25, Z4, Z5, Z6, Z7)
	ROUND(Z26, Z4, Z5, Z6, Z7)
	ROUND(Z27, Z4, Z5, Z6, Z7)
	ROUND(Z28, Z4, Z5, Z6, Z7)
	ROUND(Z29, Z4, Z5, Z6, Z7)
	ROUND(Z30, Z4, Z5, Z6, Z7)
	LAST(Z4, Z5, Z6, Z7)
expandMapA:
	MAP_LAST(Z0, expandMaskedA0, expandAdvA0, expandRunDoneA)
	MAP_LAST(Z1, expandMaskedA1, expandAdvA1, expandRunDoneA)
	MAP_LAST(Z2, expandMaskedA2, expandAdvA2, expandRunDoneA)
	MAP_LAST(Z3, expandMaskedA3, expandAdvA3, expandRunDoneA)
// Still owed after the last batch: one state at a time, in Z0.
expandTailA:
	VMOVDQU64 ctr-64(SP), Z13
	VPXORQ Z17, Z13, Z0
	VPADDQ Z9, Z13, Z13
	VMOVDQU64 Z13, ctr-64(SP)
	VAESENC Z18, Z0, Z0
	VAESENC Z19, Z0, Z0
	VAESENC Z20, Z0, Z0
	VAESENC Z21, Z0, Z0
	VAESENC Z22, Z0, Z0
	VAESENC Z23, Z0, Z0
	VAESENC Z24, Z0, Z0
	VAESENC Z25, Z0, Z0
	VAESENC Z26, Z0, Z0
	VAESENC Z27, Z0, Z0
	VAESENC Z28, Z0, Z0
	VAESENC Z29, Z0, Z0
	VAESENC Z30, Z0, Z0
	VAESENCLAST Z31, Z0, Z0
	MAP_LAST(Z0, expandMaskedTA, expandAdvTA, expandRunDoneA)
	JMP expandTailA
expandRunDoneA:
	DECQ R10
	JS expandDone
	MOVQ R11, CX
	JMP expandLoopB
expandDone:
	VZEROUPPER
	RET
