//go:build amd64 && !noasm

#include "textflag.h"

// AVX-512 row kernels (TierAVX512). Eight 64-bit lanes per step; requires
// AVX-512 F + DQ (VPMULLQ, VPMOVM2Q-free masked adds) and OS ZMM state
// support, both checked by cpu_amd64.go before the tier is registered.
//
// Every kernel is BIT-IDENTICAL to its pure-Go oracle in vec_go.go /
// wide_go.go: the Barrett quotient is the same three-partial-product sum
// with the same dropped low-word carries, and the conditional folds use the
// unsigned-min trick (min_u(r, r-bound) == r - bound iff r >= bound, since
// the subtraction wraps otherwise), which matches the scalar
// `if r >= bound { r -= bound }` exactly.
//
// Callers (vec_asm_amd64.go wrappers) guarantee len > 0 and len % 8 == 0;
// remainders run on the pure-Go kernel.
//
// Register conventions (constants broadcast once per call):
//	Z25 = 1 per lane      Z26 = 2^32 per lane
//	Z27 = q               Z28 = 2q
//	Z29 = u0 (BRedHi)     Z30 = u1 (BRedLo)
//	Z23, Z24 = per-call fixed operands (w, wShoup)
//	K1 = scratch mask

// PREFETCH_DIST is how far ahead, in bytes, a PREFETCHT0 touches each
// stream the hardware prefetcher does not follow: the tail stages' twiddle
// rows, which are read through masked loads (TAIL_LOOP: one prefetch per
// stream and chain, so one per cache line at span 1, where a step pair takes
// two lines of each row), the group conversion's source rows, more concurrent
// row streams than it tracks (vecConvertRowsAVX512), and the key rows of the
// key switch's dot (vecDotKeyLazyAVX512). 1 KiB is the one distance for all
// of them (DESIGN.md §3.8.1). A prefetch is a hint that never faults, so one
// past a row's end is harmless and no word computed depends on it.
#define PREFETCH_DIST 1024

// MUL128x8: (HI, LO) = full 128-bit product A*B per lane, via four 32x32
// partial products and explicit carry propagation:
//	product = hh<<64 + (lh+hl)<<32 + ll
// with mid = lh+hl mod 2^64 (carry cm contributes 2^32 to HI) and
// LO = ll + mid<<32 (carry cl contributes 1 to HI).
// Clobbers T0, T1, T2, K1. A and B are preserved.
#define MUL128x8(A, B, HI, LO, T0, T1, T2) \
	VPSRLQ $32, A, T0       \ // ah
	VPSRLQ $32, B, T1       \ // bh
	VPMULUDQ T1, T0, HI     \ // hh = ah*bh
	VPMULUDQ B, T0, T2      \ // hl = ah*b0
	VPMULUDQ T1, A, T1      \ // lh = a0*bh
	VPMULUDQ B, A, LO       \ // ll = a0*b0
	VPADDQ T2, T1, T0       \ // mid = hl + lh
	VPCMPUQ $1, T1, T0, K1  \ // cm: mid <u lh
	VPADDQ Z26, HI, K1, HI  \ // HI += cm<<32
	VPSLLQ $32, T0, T1      \ // mid<<32
	VPSRLQ $32, T0, T0      \ // mid>>32
	VPADDQ T0, HI, HI       \
	VPADDQ T1, LO, LO       \ // LO = ll + mid<<32
	VPCMPUQ $1, T1, LO, K1  \ // cl: LO <u mid<<32
	VPADDQ Z25, HI, K1, HI

// BARRETT_T: T = quotient approximation for the 128-bit value XHI:XLO —
//	t = lo64(xhi*u0) + hi64(xlo*u0) + hi64(xhi*u1)
// (wrapping adds), identical to MulBarrettLazy / ReduceWide128Lazy.
// Clobbers H, L, T0, T1, T2, K1. XHI and XLO are preserved.
#define BARRETT_T(XHI, XLO, T, H, L, T0, T1, T2) \
	VPMULLQ Z29, XHI, T               \
	MUL128x8(XLO, Z29, H, L, T0, T1, T2) \
	VPADDQ H, T, T                    \
	MUL128x8(XHI, Z30, H, L, T0, T1, T2) \
	VPADDQ H, T, T

// CONDSUB: R = R - BOUND if R >= BOUND (unsigned-min fold). Clobbers T0.
#define CONDSUB(R, BOUND, T0) \
	VPSUBQ BOUND, R, T0 \
	VPMINUQ T0, R, R

// BCASTCONSTS loads the shared Barrett constants from the canonical stub
// argument layout (q, twoQ, u0, u1 at OFF..OFF+24) plus the 1 and 2^32
// lane constants.
#define BARRETT_CONSTS(QOFF) \
	VPBROADCASTQ q+QOFF(FP), Z27     \
	VPBROADCASTQ twoQ+(QOFF+8)(FP), Z28 \
	VPBROADCASTQ u0+(QOFF+16)(FP), Z29  \
	VPBROADCASTQ u1+(QOFF+24)(FP), Z30  \
	MOVQ $1, AX                      \
	VPBROADCASTQ AX, Z25             \
	MOVQ $0x100000000, AX            \
	VPBROADCASTQ AX, Z26

// NTT stage kernels (the TEXT bodies are at the end of the file). One call
// runs a whole stage, or one worker's slice of it, so the constant broadcasts
// are paid once per stage, not once per twiddle block. Every loop carries two
// independent butterfly chains per iteration, A and B, so the out-of-order
// core overlaps one chain's load → MULHI8 → VPMULLQ → store latency with the
// other's; a loop whose count is odd ends in one chain-A step. They keep
// Z27 = q and Z28 = 2q from the conventions above (Z25/Z26 are chain-B
// scratch here: MULHI8 needs no carry constants) and add:
//	Z23, Z24 = w, wShoup per butterfly lane, Z14 = wShoup>>32 (chain A)
//	Z29, Z30, Z31 = the same for chain B where its twiddle differs from A's
//	Z15 = 2^32-1 per lane
//	Z16..Z20 = tail permutations (gather x, gather y, scatter lo, scatter hi,
//	           twiddle spread), K2 = twiddle load mask
//	Z21, Z22 = forward: exit-fold bounds (0 makes CONDSUB the identity:
//	           min_u(r, r-0)); inverse: q and all ones, for MIRROR
// Chain A holds x, y, x', y' in Z0..Z3 with scratch Z4..Z7; chain B in
// Z8..Z11 with scratch Z12, Z13, Z25, Z26. The narrow kernels (q < 2^50, the
// ...NarrowAVX512 bodies) run the same loops on the IFMA butterflies with
// Z27 = 2^52 − q, Z15 = 2^52 − 1, and each wShoup split into its radix-2^52
// limbs: WS = wShoup mod 2^52, WSH = wShoup>>52.

// MULHI8: HI = hi64(A*B) per lane, given BH = B>>32, without forming the
// low word. With ll, hl, lh, hh the 32x32 partial products,
//	t = hl + (ll>>32),  u = lh + lo32(t),  HI = hh + (t>>32) + (u>>32)
// and no sum can wrap (each is at most (2^32-1)^2 + 2^32-1). The high word
// is exact, so this is the same value bits.Mul64 and MUL128x8 produce.
// Clobbers T0, T1, T2. A, B and BH are preserved.
#define MULHI8(A, B, BH, HI, T0, T1, T2) \
	VPSRLQ $32, A, T0      \ // ah
	VPMULUDQ B, A, T1      \ // ll
	VPMULUDQ BH, T0, HI    \ // hh
	VPMULUDQ B, T0, T0     \ // hl
	VPSRLQ $32, T1, T1     \
	VPADDQ T1, T0, T0      \ // t
	VPMULUDQ BH, A, T1     \ // lh
	VPANDQ Z15, T0, T2     \
	VPADDQ T2, T1, T1      \ // u
	VPSRLQ $32, T0, T0     \
	VPADDQ T0, HI, HI      \
	VPSRLQ $32, T1, T1     \
	VPADDQ T1, HI, HI

// MULHI_CONSTS loads Z27 = q and Z15 = 2^32 − 1 from the argument Q;
// IFMA_CONSTS loads their narrow forms, Z27 = 2^52 − q and Z15 = 2^52 − 1.
#define MULHI_CONSTS(Q) \
	VPBROADCASTQ Q, Z27          \
	MOVL $0xffffffff, AX         \
	VPBROADCASTQ AX, Z15
#define IFMA_CONSTS(Q) \
	MOVQ $0x10000000000000, AX   \
	SUBQ Q, AX                   \
	VPBROADCASTQ AX, Z27         \
	MOVQ $0xfffffffffffff, AX    \
	VPBROADCASTQ AX, Z15

// SPLIT32 and SPLIT52 split a wShoup vector WS for MULHI8 and for SHOUP52.
#define SPLIT32(WS, WSH) \
	VPSRLQ $32, WS, WSH
#define SPLIT52(WS, WSH) \
	VPSRLQ $52, WS, WSH \
	VPANDQ Z15, WS, WS

// SHOUP32 sets Y to MulShoupLazy(y, w) = y·w − hi64(y·wShoup)·q in [0, 2q),
// with WS = wShoup, WSH = wShoup>>32. Clobbers T0..T3.
#define SHOUP32(Y, W, WS, WSH, T0, T1, T2, T3) \
	MULHI8(Y, WS, WSH, T0, T1, T2, T3) \
	VPMULLQ W, Y, Y                    \
	VPMULLQ Z27, T0, T0                \
	VPSUBQ T0, Y, Y

// SHOUP52 is SHOUP32 on the IFMA multiply-adds for y, w, q < 2^52 (so
// q < 2^50 in the butterflies, whose y is below 4q), with WS = wShoup mod
// 2^52 and WSH = wShoup>>52. With y·wShoup = lo52(y·WS) + S·2^52, the same
// quotient MULHI8 forms is
//	h = hi64(y·wShoup) = S>>12,  S = hi52(y·WS) + lo52(y·WSH) + hi52(y·WSH)·2^52
// (S < 2^64 since y·wShoup < 2^116), and h < y < 2^52, so
//	y·w − h·q = (lo52(y·w) + lo52(h·(2^52 − q))) mod 2^52
// as the result lies in [0, 2q): eight uops and two zeroing idioms where
// SHOUP32 takes 20 (MULHI8's 13, two 3-uop VPMULLQ and a subtract).
// Clobbers T0, T1.
#define SHOUP52(Y, W, WS, WSH, T0, T1, T2, T3) \
	VPXORQ T0, T0, T0     \
	VPMADD52HUQ WSH, Y, T0 \ // hi52(y·WSH)
	VPXORQ T1, T1, T1     \
	VPMADD52LUQ W, Y, T1  \ // lo52(y·w)
	VPSLLQ $52, T0, T0    \
	VPMADD52HUQ WS, Y, T0 \
	VPMADD52LUQ WSH, Y, T0 \ // S
	VPSRLQ $12, T0, T0    \ // h
	VPMADD52LUQ Z27, T0, T1 \ // − h·q
	VPANDQ Z15, T1, Y

// FWD_BFLY: Harvey CT butterfly on x = X, y = Y (both in [0, 4q)) with the
// twiddle W, WS = wShoup, WSH = wShoup>>32: XO = x' = u + v', YO = y' =
// u - v' + 2q, with u = x cond-sub 2q and v' = MulShoupLazy(y, w) in [0, 2q).
// Clobbers X, Y, T0..T3.
#define FWD_BFLY(X, Y, XO, YO, W, WS, WSH, T0, T1, T2, T3) \
	CONDSUB(X, Z28, T1)                  \
	MULHI8(Y, WS, WSH, XO, T1, T2, T3)   \ // h = hi64(v*wShoup)
	VPMULLQ W, Y, YO                     \ // v*w
	VPMULLQ Z27, XO, T0                  \ // h*q
	VPSUBQ T0, YO, Y                     \ // v'
	VPADDQ Y, X, XO                      \
	VPSUBQ Y, X, YO                      \
	VPADDQ Z28, YO, YO

// INV_BFLY: Harvey GS butterfly on x = X, y = Y (both in [0, 2q)):
// XO = x' = (u+v) cond-sub 2q, YO = y' = MulShoupLazy(u - v + 2q, w).
// Clobbers T0..T3.
#define INV_BFLY(X, Y, XO, YO, W, WS, WSH, T0, T1, T2, T3) \
	VPADDQ Y, X, XO                      \
	CONDSUB(XO, Z28, T1)                 \
	VPSUBQ Y, X, YO                      \
	VPADDQ Z28, YO, YO                   \ // d = u - v + 2q
	MULHI8(YO, WS, WSH, T0, T1, T2, T3)  \ // h = hi64(d*wShoup)
	VPMULLQ W, YO, T1                    \ // d*w
	VPMULLQ Z27, T0, T2                  \ // h*q
	VPSUBQ T2, T1, YO

// MIRROR turns twiddles read from a forward block into the inverse stage's:
// W = q − W and WS = ^WS, wShoup before its split, with Z21 = q and Z22 =
// all ones (vec.go, VecInvStage: ^wShoup is the companion of q − w). The
// inverse kernels walk the forward block from its end, so block i reads
// entry len−1−i. NOMIRROR is the forward kernels' identity.
#define MIRROR(W, WS) \
	VPSUBQ W, Z21, W \
	VPXORQ Z22, WS, WS
#define NOMIRROR(W, WS)

// MIRROR_CONSTS loads MIRROR's Z21 = q and Z22 = all ones.
#define MIRROR_CONSTS(Q) \
	VPBROADCASTQ Q, Z21 \
	VPTERNLOGQ $0xff, Z22, Z22, Z22

// FWD_BFLY52 and INV_BFLY52 are FWD_BFLY and INV_BFLY for q < 2^50 on
// SHOUP52, with WS, WSH its split of wShoup: 13 uops a butterfly where the
// MULHI8 forms take 25, and the same output words.
#define FWD_BFLY52(X, Y, XO, YO, W, WS, WSH, T0, T1, T2, T3) \
	CONDSUB(X, Z28, T1)                        \
	SHOUP52(Y, W, WS, WSH, T0, T1, T2, T3)     \ // v'
	VPADDQ Y, X, XO                            \
	VPSUBQ Y, X, YO                            \
	VPADDQ Z28, YO, YO
#define INV_BFLY52(X, Y, XO, YO, W, WS, WSH, T0, T1, T2, T3) \
	VPADDQ Y, X, XO                            \
	CONDSUB(XO, Z28, T1)                       \
	VPSUBQ Y, X, YO                            \
	VPADDQ Z28, YO, YO                         \
	SHOUP52(YO, W, WS, WSH, T0, T1, T2, T3)

// WIDE_STAGE: span >= 8. DI = a, SI = psi, BX = psiShoup, R8 = blocks,
// R9 = span; x halves at DI, y halves at R10. A span-8 block is one vector
// with no second to pair with, so that loop runs two blocks per iteration,
// each with its own twiddle broadcast, and an odd last block runs alone as
// one vector. The block loop of a wider span broadcasts its twiddle once per
// block and runs two vectors per iteration: span/8 is even there. SI and BX
// move STEP bytes a block (STEP2 a block pair): 8 forward, −8 in the inverse
// kernels, which start them at the block's last twiddle and MIRROR what
// they read.
#define WIDE_STAGE(BFLY, SPLIT, TWFIX, STEP, STEP2, PAIR, LASTBLOCK, BLOCK, LOOP, DONE) \
	MOVQ R9, R11                                               \
	SHLQ $3, R9                                                \ // span in bytes
	LEAQ (DI)(R9*1), R10                                       \
	SUBQ $8, R11                                               \ // two vectors remain while DX < span-8
	JNZ BLOCK                                                  \
	MOVQ R8, R12                                               \
	SHRQ $1, R12                                               \ // block pairs
	JZ LASTBLOCK                                               \
PAIR:                                                          \
	VPBROADCASTQ (SI), Z23                                     \
	VPBROADCASTQ (BX), Z24                                     \
	TWFIX(Z23, Z24)                                            \
	SPLIT(Z24, Z14)                                            \
	VPBROADCASTQ STEP(SI), Z29                                 \
	VPBROADCASTQ STEP(BX), Z30                                 \
	TWFIX(Z29, Z30)                                            \
	SPLIT(Z30, Z31)                                            \
	VMOVDQU64 (DI), Z0                                         \
	VMOVDQU64 (R10), Z1                                        \
	VMOVDQU64 (DI)(R9*2), Z8                                   \
	VMOVDQU64 (R10)(R9*2), Z9                                  \
	BFLY(Z0, Z1, Z2, Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)        \
	BFLY(Z8, Z9, Z10, Z11, Z29, Z30, Z31, Z12, Z13, Z25, Z26)  \
	VMOVDQU64 Z2, (DI)                                         \
	VMOVDQU64 Z3, (R10)                                        \
	VMOVDQU64 Z10, (DI)(R9*2)                                  \
	VMOVDQU64 Z11, (R10)(R9*2)                                 \
	LEAQ (DI)(R9*4), DI                                        \
	LEAQ (R10)(R9*4), R10                                      \
	ADDQ $STEP2, SI                                            \
	ADDQ $STEP2, BX                                            \
	DECQ R12                                                   \
	JNZ PAIR                                                   \
LASTBLOCK:                                                     \
	TESTQ $1, R8                                               \
	JZ DONE                                                    \
	VPBROADCASTQ (SI), Z23                                     \
	VPBROADCASTQ (BX), Z24                                     \
	TWFIX(Z23, Z24)                                            \
	SPLIT(Z24, Z14)                                            \
	VMOVDQU64 (DI), Z0                                         \ // the odd last span-8 block
	VMOVDQU64 (R10), Z1                                        \
	BFLY(Z0, Z1, Z2, Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)        \
	VMOVDQU64 Z2, (DI)                                         \
	VMOVDQU64 Z3, (R10)                                        \
	JMP DONE                                                   \
BLOCK:                                                         \
	VPBROADCASTQ (SI), Z23                                     \
	VPBROADCASTQ (BX), Z24                                     \
	TWFIX(Z23, Z24)                                            \
	SPLIT(Z24, Z14)                                            \
	XORQ DX, DX                                                \
LOOP:                                                          \
	VMOVDQU64 (DI)(DX*8), Z0                                   \
	VMOVDQU64 (R10)(DX*8), Z1                                  \
	VMOVDQU64 64(DI)(DX*8), Z8                                 \
	VMOVDQU64 64(R10)(DX*8), Z9                                \
	BFLY(Z0, Z1, Z2, Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)        \
	BFLY(Z8, Z9, Z10, Z11, Z23, Z24, Z14, Z12, Z13, Z25, Z26)  \
	VMOVDQU64 Z2, (DI)(DX*8)                                   \
	VMOVDQU64 Z3, (R10)(DX*8)                                  \
	VMOVDQU64 Z10, 64(DI)(DX*8)                                \
	VMOVDQU64 Z11, 64(R10)(DX*8)                               \
	ADDQ $16, DX                                               \
	CMPQ DX, R11                                               \
	JL LOOP                                                    \
	LEAQ (DI)(R9*2), DI                                        \
	LEAQ (R10)(R9*2), R10                                      \
	ADDQ $STEP, SI                                             \
	ADDQ $STEP, BX                                             \
	DECQ R8                                                    \
	JNZ BLOCK                                                  \
DONE:

// TAIL_SETUP: span 4, 2, 1. R10 = idx, CX = tw (twiddles per step). Expands
// four byte-index permutations and the twiddle spread at SPREAD(R10) (the
// forward one at 32, the inverse kernels' reversed one at 40), builds the
// mask selecting the tw twiddles one step consumes — a masked load reads
// exactly the bytes it selects, so the kernels never touch memory past the
// twiddles they use — and leaves R9 = twiddle bytes per step.
#define TAIL_SETUP(SPREAD) \
	VPMOVZXBQ 0(R10), Z16     \
	VPMOVZXBQ 8(R10), Z17     \
	VPMOVZXBQ 16(R10), Z18    \
	VPMOVZXBQ 24(R10), Z19    \
	VPMOVZXBQ SPREAD(R10), Z20 \
	MOVQ $1, AX               \
	SHLQ CX, AX               \
	DECQ AX                   \
	KMOVW AX, K2              \
	LEAQ (CX*8), R9

// TAIL_LOAD gathers one step: the 16 consecutive coefficients at OFF(DI)
// split into x = X and y = Y, and the step's twiddles at (PSI), (PSISH)
// spread over the lanes into W and WS, which TWFIX fixes up and SPLIT splits
// into WS, WSH. Clobbers T.
#define TAIL_LOAD(SPLIT, TWFIX, OFF, PSI, PSISH, X, Y, W, WS, WSH, T) \
	VMOVDQU64 OFF(DI), X          \
	VMOVDQU64 OFF(DI), Y          \
	VPERMT2Q (OFF+64)(DI), Z16, X \ // x
	VPERMT2Q (OFF+64)(DI), Z17, Y \ // y
	VMOVDQU64.Z (PSI), K2, T      \
	VPERMQ T, Z20, W              \
	VMOVDQU64.Z (PSISH), K2, T    \
	VPERMQ T, Z20, WS             \
	TWFIX(W, WS)                  \
	SPLIT(WS, WSH)

// TAIL_STORE scatters x' = XO, y' = YO back to the step's 16 coefficients at
// OFF(DI). Clobbers XO and T.
#define TAIL_STORE(OFF, XO, YO, T) \
	VMOVDQA64 XO, T               \
	VPERMT2Q YO, Z18, T           \
	VPERMT2Q YO, Z19, XO          \
	VMOVDQU64 T, OFF(DI)          \
	VMOVDQU64 XO, (OFF+64)(DI)

// TAIL_LOOP runs R8 = steps tail steps, two per iteration — chain A at DI with
// its twiddles at SI/BX, chain B at 128(DI) with its twiddles at R12/R13,
// one step's twiddles (R9 bytes) further on, all four twiddle pointers
// prefetched PF bytes ahead — and, when steps is odd, one chain-A step at
// the end. The inverse kernels walk the twiddles backwards: R9 and PF are
// negative there. BFLY is the butterfly, SPLIT its twiddle split, TWFIX its
// twiddle fix-up and FOLDS its exit folds on the chain's x', y' (the empty
// macro NOFOLD where there are none).
#define TAIL_LOOP(BFLY, SPLIT, TWFIX, PF, FOLDS, PAIR, LAST, DONE) \
	LEAQ (SI)(R9*1), R12                                       \
	LEAQ (BX)(R9*1), R13                                       \
	MOVQ R8, R11                                               \
	SHRQ $1, R11                                               \ // step pairs
	JZ LAST                                                    \
PAIR:                                                          \
	PREFETCHT0 PF(SI)                                          \
	PREFETCHT0 PF(BX)                                          \
	PREFETCHT0 PF(R12)                                         \
	PREFETCHT0 PF(R13)                                         \
	TAIL_LOAD(SPLIT, TWFIX, 0, SI, BX, Z0, Z1, Z23, Z24, Z14, Z4) \
	TAIL_LOAD(SPLIT, TWFIX, 128, R12, R13, Z8, Z9, Z29, Z30, Z31, Z12) \
	BFLY(Z0, Z1, Z2, Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)        \
	BFLY(Z8, Z9, Z10, Z11, Z29, Z30, Z31, Z12, Z13, Z25, Z26)  \
	FOLDS(Z2, Z3, Z5)                                          \
	FOLDS(Z10, Z11, Z13)                                       \
	TAIL_STORE(0, Z2, Z3, Z0)                                  \
	TAIL_STORE(128, Z10, Z11, Z8)                              \
	ADDQ $256, DI                                              \
	LEAQ (SI)(R9*2), SI                                        \
	LEAQ (BX)(R9*2), BX                                        \
	LEAQ (R12)(R9*2), R12                                      \
	LEAQ (R13)(R9*2), R13                                      \
	DECQ R11                                                   \
	JNZ PAIR                                                   \
LAST:                                                          \
	TESTQ $1, R8                                               \
	JZ DONE                                                    \
	TAIL_LOAD(SPLIT, TWFIX, 0, SI, BX, Z0, Z1, Z23, Z24, Z14, Z4) \
	BFLY(Z0, Z1, Z2, Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)        \
	FOLDS(Z2, Z3, Z5)                                          \
	TAIL_STORE(0, Z2, Z3, Z0)                                  \
DONE:                                                          \
	VZEROUPPER                                                 \
	RET

// The forward tail's exit folds (see vecFwdTailAVX512): none, the 2q pair of
// a lazy span 1, both pairs of an exact one. Each clobbers T.
#define NOFOLD(XO, YO, T)
#define LAZYFOLD(XO, YO, T) \
	CONDSUB(XO, Z21, T)           \
	CONDSUB(YO, Z21, T)
#define EXACTFOLD(XO, YO, T) \
	LAZYFOLD(XO, YO, T)           \
	CONDSUB(XO, Z22, T)           \
	CONDSUB(YO, Z22, T)

// func vecMulBarrettAVX512(out, a, b []uint64, q, twoQ, u0, u1 uint64)
TEXT ·vecMulBarrettAVX512(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	BARRETT_CONSTS(72)
	XORQ DX, DX
mulBarrettLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	VMOVDQU64 (BX)(DX*8), Z1
	MUL128x8(Z0, Z1, Z2, Z3, Z5, Z6, Z7)
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	CONDSUB(Z0, Z27, Z5)                      // exact [0, q)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulBarrettLoop
	VZEROUPPER
	RET

// func vecMulAddBarrettAVX512(out, a, b []uint64, q, twoQ, u0, u1 uint64)
TEXT ·vecMulAddBarrettAVX512(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	BARRETT_CONSTS(72)
	XORQ DX, DX
mulAddBarrettLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	VMOVDQU64 (BX)(DX*8), Z1
	MUL128x8(Z0, Z1, Z2, Z3, Z5, Z6, Z7)
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 (DI)(DX*8), Z1
	VPADDQ Z1, Z0, Z0                         // s = out + r (both < q)
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulAddBarrettLoop
	VZEROUPPER
	RET

// func vecMulShoupAVX512(out, a []uint64, w, wShoup, q uint64)
TEXT ·vecMulShoupAVX512(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	VPBROADCASTQ w+48(FP), Z23
	VPBROADCASTQ wShoup+56(FP), Z24
	VPBROADCASTQ q+64(FP), Z27
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
mulShoupLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	MUL128x8(Z0, Z24, Z2, Z3, Z5, Z6, Z7)     // Z2 = hi64(a*wShoup)
	VPMULLQ Z23, Z0, Z3                       // a*w
	VPMULLQ Z27, Z2, Z4                       // hi*q
	VPSUBQ Z4, Z3, Z0                         // r in [0, 2q)
	CONDSUB(Z0, Z27, Z5)                      // exact (a < q)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulShoupLoop
	VZEROUPPER
	RET

// func vecMulShoupAddLazyAVX512(out, a []uint64, w, wShoup, q, twoQ uint64)
// vecMulShoupAVX512's lazy product r in [0, 2q), added onto out in [0, 2q)
// and folded once by 2q, as MulShoupLazy plus a lazy add does.
TEXT ·vecMulShoupAddLazyAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	VPBROADCASTQ w+48(FP), Z23
	VPBROADCASTQ wShoup+56(FP), Z24
	VPBROADCASTQ q+64(FP), Z27
	VPBROADCASTQ twoQ+72(FP), Z28
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
mulShoupAddLazyLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	MUL128x8(Z0, Z24, Z2, Z3, Z5, Z6, Z7)     // Z2 = hi64(a*wShoup)
	VPMULLQ Z23, Z0, Z3                       // a*w
	VPMULLQ Z27, Z2, Z4                       // hi*q
	VPSUBQ Z4, Z3, Z0                         // r in [0, 2q)
	VPADDQ (DI)(DX*8), Z0, Z0                 // s = out + r
	CONDSUB(Z0, Z28, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulShoupAddLazyLoop
	VZEROUPPER
	RET

// func vecSubMulShoupLazyAVX512(out, a, b []uint64, w, wShoup, q, twoQ uint64)
TEXT ·vecSubMulShoupLazyAVX512(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ w+72(FP), Z23
	VPBROADCASTQ wShoup+80(FP), Z24
	VPBROADCASTQ q+88(FP), Z27
	VPBROADCASTQ twoQ+96(FP), Z28
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
subMulShoupLazyLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	VMOVDQU64 (BX)(DX*8), Z1
	VPADDQ Z28, Z0, Z0                        // a + 2q
	VPSUBQ Z1, Z0, Z0                         // d = a + 2q - b, in (0, 3q)
	MUL128x8(Z0, Z24, Z2, Z3, Z5, Z6, Z7)     // hi64(d*wShoup)
	VPMULLQ Z23, Z0, Z3                       // d*w
	VPMULLQ Z27, Z2, Z4
	VPSUBQ Z4, Z3, Z0                         // r in [0, 2q)
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL subMulShoupLazyLoop
	VZEROUPPER
	RET

// func vecRescaleStepAVX512(row, t []uint64, hf4, w, wShoup, q, u0 uint64)
// hf4 = halfModQ + 4q, precomputed by the wrapper (the same wrapping sum the
// scalar kernel forms per element).
TEXT ·vecRescaleStepAVX512(SB), NOSPLIT, $0-88
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ t_base+24(FP), SI
	VPBROADCASTQ hf4+48(FP), Z22
	VPBROADCASTQ w+56(FP), Z23
	VPBROADCASTQ wShoup+64(FP), Z24
	VPBROADCASTQ q+72(FP), Z27
	VPBROADCASTQ u0+80(FP), Z29
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
rescaleStepLoop:
	VMOVDQU64 (SI)(DX*8), Z0                  // t[j]
	MUL128x8(Z0, Z29, Z2, Z3, Z5, Z6, Z7)     // th = hi64(t*u0) -> Z2
	VPMULLQ Z27, Z2, Z4                       // th*q
	VPSUBQ Z4, Z0, Z0                         // tm = t - th*q, in [0, 4q)
	VMOVDQU64 (DI)(DX*8), Z1                  // row[j]
	VPADDQ Z22, Z1, Z1                        // row + halfModQ + 4q
	VPSUBQ Z0, Z1, Z0                         // v in (0, 6q)
	MUL128x8(Z0, Z24, Z2, Z3, Z5, Z6, Z7)     // hi64(v*wShoup)
	VPMULLQ Z23, Z0, Z3                       // v*w
	VPMULLQ Z27, Z2, Z4
	VPSUBQ Z4, Z3, Z0                         // r in [0, 2q)
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL rescaleStepLoop
	VZEROUPPER
	RET

// func vecMulWideAVX512(accHi, accLo, row []uint64, w uint64)
TEXT ·vecMulWideAVX512(SB), NOSPLIT, $0-80
	MOVQ accHi_base+0(FP), DI
	MOVQ accLo_base+24(FP), BX
	MOVQ row_base+48(FP), SI
	MOVQ row_len+56(FP), CX
	VPBROADCASTQ w+72(FP), Z23
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
mulWideLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	MUL128x8(Z0, Z23, Z2, Z3, Z5, Z6, Z7)
	VMOVDQU64 Z2, (DI)(DX*8)
	VMOVDQU64 Z3, (BX)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulWideLoop
	VZEROUPPER
	RET

// func vecMulAccWideAVX512(accHi, accLo, row []uint64, w uint64)
TEXT ·vecMulAccWideAVX512(SB), NOSPLIT, $0-80
	MOVQ accHi_base+0(FP), DI
	MOVQ accLo_base+24(FP), BX
	MOVQ row_base+48(FP), SI
	MOVQ row_len+56(FP), CX
	VPBROADCASTQ w+72(FP), Z23
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
mulAccWideLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	MUL128x8(Z0, Z23, Z2, Z3, Z5, Z6, Z7)     // phi:plo
	VMOVDQU64 (BX)(DX*8), Z1                  // accLo
	VPADDQ Z3, Z1, Z1                         // accLo += plo
	VPCMPUQ $1, Z3, Z1, K1                    // carry: new accLo <u plo
	VMOVDQU64 (DI)(DX*8), Z0                  // accHi
	VPADDQ Z2, Z0, Z0                         // accHi += phi
	VPADDQ Z25, Z0, K1, Z0                    // accHi += carry
	VMOVDQU64 Z0, (DI)(DX*8)
	VMOVDQU64 Z1, (BX)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL mulAccWideLoop
	VZEROUPPER
	RET

// Block-permutation kernels (perm.go): each step reads one BlockPerm entry,
// source block << 3 | shuffle id, loads that shuffle's lane-index vector from
// the 512-byte table and the source block with one VPERMQ, so a block of
// eight permuted words costs one load and one in-register shuffle. DX walks
// the entries, R12 the output block's byte offset.
#define PERM_ENTRY(BLOCKS, SHUF, IDX) \
	MOVL (BLOCKS)(DX*4), AX \
	MOVL AX, R10            \
	ANDL $7, R10            \
	SHLQ $6, R10            \
	VMOVDQU64 (SHUF)(R10*1), IDX \
	ANDQ $-8, AX              // source block × 8 words; scale 8 makes it bytes

// func vecMulAccWidePermAVX512(accHi, accLo, a, b []uint64, blocks []uint32, shuf *[8][8]uint64)
// vecMulAccWideAVX512 with the fixed operand replaced by the row b and the
// row operand permuted: (accHi, accLo) += a[π(j)]·b[j].
TEXT ·vecMulAccWidePermAVX512(SB), NOSPLIT, $0-128
	MOVQ accHi_base+0(FP), DI
	MOVQ accLo_base+24(FP), BX
	MOVQ a_base+48(FP), SI
	MOVQ b_base+72(FP), R9
	MOVQ blocks_base+96(FP), R8
	MOVQ blocks_len+104(FP), CX
	MOVQ shuf+120(FP), R11
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	XORQ DX, DX
	XORQ R12, R12
mulAccWidePermLoop:
	PERM_ENTRY(R8, R11, Z10)
	VPERMQ (SI)(AX*8), Z10, Z0                // a[π(j)]
	VMOVDQU64 (R9)(R12*1), Z1                 // b[j]
	MUL128x8(Z0, Z1, Z2, Z3, Z5, Z6, Z7)      // phi:plo
	VMOVDQU64 (BX)(R12*1), Z1                 // accLo
	VPADDQ Z3, Z1, Z1                         // accLo += plo
	VPCMPUQ $1, Z3, Z1, K1                    // carry: new accLo <u plo
	VMOVDQU64 (DI)(R12*1), Z0                 // accHi
	VPADDQ Z2, Z0, Z0                         // accHi += phi
	VPADDQ Z25, Z0, K1, Z0                    // accHi += carry
	VMOVDQU64 Z0, (DI)(R12*1)
	VMOVDQU64 Z1, (BX)(R12*1)
	ADDQ $64, R12
	INCQ DX
	CMPQ DX, CX
	JL mulAccWidePermLoop
	VZEROUPPER
	RET

// func vecPermuteAVX512(out, a []uint64, blocks []uint32, shuf *[8][8]uint64)
TEXT ·vecPermuteAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ blocks_base+48(FP), R8
	MOVQ blocks_len+56(FP), CX
	MOVQ shuf+72(FP), R11
	XORQ DX, DX
	XORQ R12, R12
permuteLoop:
	PERM_ENTRY(R8, R11, Z10)
	VPERMQ (SI)(AX*8), Z10, Z0
	VMOVDQU64 Z0, (DI)(R12*1)
	ADDQ $64, R12
	INCQ DX
	CMPQ DX, CX
	JL permuteLoop
	VZEROUPPER
	RET

// func vecAddPermuteAVX512(out, a, b []uint64, blocks []uint32, shuf *[8][8]uint64, q uint64)
// The sum is element-wise, so the source blocks are added and folded as
// vecAddAVX512 does, then permuted once.
TEXT ·vecAddPermuteAVX512(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ blocks_base+72(FP), R8
	MOVQ blocks_len+80(FP), CX
	MOVQ shuf+96(FP), R11
	VPBROADCASTQ q+104(FP), Z27
	XORQ DX, DX
	XORQ R12, R12
addPermuteLoop:
	PERM_ENTRY(R8, R11, Z10)
	VMOVDQU64 (SI)(AX*8), Z0
	VPADDQ (BX)(AX*8), Z0, Z0
	CONDSUB(Z0, Z27, Z5)
	VPERMQ Z0, Z10, Z0
	VMOVDQU64 Z0, (DI)(R12*1)
	ADDQ $64, R12
	INCQ DX
	CMPQ DX, CX
	JL addPermuteLoop
	VZEROUPPER
	RET

// func vecFoldWide128LazyAVX512(accHi, accLo []uint64, q, twoQ, u0, u1 uint64)
TEXT ·vecFoldWide128LazyAVX512(SB), NOSPLIT, $0-80
	MOVQ accHi_base+0(FP), DI
	MOVQ accLo_base+24(FP), BX
	MOVQ accLo_len+32(FP), CX
	BARRETT_CONSTS(48)
	VPXORQ Z21, Z21, Z21                      // zeros for accHi
	XORQ DX, DX
foldWideLoop:
	VMOVDQU64 (DI)(DX*8), Z2                  // hi
	VMOVDQU64 (BX)(DX*8), Z3                  // lo
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	VMOVDQU64 Z0, (BX)(DX*8)                  // accLo = lazy residue
	VMOVDQU64 Z21, (DI)(DX*8)                 // accHi = 0
	ADDQ $8, DX
	CMPQ DX, CX
	JL foldWideLoop
	VZEROUPPER
	RET

// func vecReduceWide128AVX512(dst, accHi, accLo []uint64, q, twoQ, u0, u1 uint64)
TEXT ·vecReduceWide128AVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ accHi_base+24(FP), SI
	MOVQ accLo_base+48(FP), BX
	BARRETT_CONSTS(72)
	XORQ DX, DX
reduceWideLoop:
	VMOVDQU64 (SI)(DX*8), Z2
	VMOVDQU64 (BX)(DX*8), Z3
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL reduceWideLoop
	VZEROUPPER
	RET

// func vecReduceWide128LazyAVX512(dst, accHi, accLo []uint64, q, twoQ, u0, u1 uint64)
TEXT ·vecReduceWide128LazyAVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ accHi_base+24(FP), SI
	MOVQ accLo_base+48(FP), BX
	BARRETT_CONSTS(72)
	XORQ DX, DX
reduceWideLazyLoop:
	VMOVDQU64 (SI)(DX*8), Z2
	VMOVDQU64 (BX)(DX*8), Z3
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL reduceWideLazyLoop
	VZEROUPPER
	RET

// func vecReduceTwoQAVX512(p []uint64, q uint64)
TEXT ·vecReduceTwoQAVX512(SB), NOSPLIT, $0-32
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	VPBROADCASTQ q+24(FP), Z27
	XORQ DX, DX
reduceTwoQLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (SI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL reduceTwoQLoop
	VZEROUPPER
	RET

// func vecDotLazyAVX512(out []uint64, a, b [][]uint64, accMask, q, twoQ, u0, u1 uint64)
// Per 8 coefficients: the 128-bit sum Z2:Z3 starts from out (or from 0: a
// load under the all-zero mask touches no memory), takes one MUL128x8 and a
// carry-propagating add per term, and pays a single Barrett reduction. a and
// b are walked as arrays of 24-byte slice headers; only the base words are read.
TEXT ·vecDotLazyAVX512(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), R8
	MOVQ a_len+32(FP), R10
	MOVQ b_base+48(FP), R9
	MOVQ accMask+72(FP), AX
	KMOVW AX, K3
	BARRETT_CONSTS(80)
	XORQ DX, DX
dotLazyLoop:
	VPXORQ Z2, Z2, Z2                         // hi
	VMOVDQU64.Z (DI)(DX*8), K3, Z3            // lo = out or 0
	MOVQ R8, R11
	MOVQ R9, R12
	MOVQ R10, R13
dotLazyTerm:
	MOVQ (R11), SI
	MOVQ (R12), BX
	VMOVDQU64 (SI)(DX*8), Z0
	VMOVDQU64 (BX)(DX*8), Z1
	MUL128x8(Z0, Z1, Z10, Z11, Z5, Z6, Z7)    // phi:plo
	VPADDQ Z11, Z3, Z3                        // lo += plo
	VPCMPUQ $1, Z11, Z3, K1                   // carry: new lo <u plo
	VPADDQ Z10, Z2, Z2                        // hi += phi
	VPADDQ Z25, Z2, K1, Z2                    // hi += carry
	ADDQ $24, R11
	ADDQ $24, R12
	DECQ R13
	JNZ dotLazyTerm
	BARRETT_T(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7)
	VPMULLQ Z27, Z4, Z5
	VPSUBQ Z5, Z3, Z0
	CONDSUB(Z0, Z28, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL dotLazyLoop
	VZEROUPPER
	RET

// IFMA_TERM adds a·b into the radix-2^52 accumulator L, M1, M2, H1, H2 of one
// output, with A1 = a>>52 and B1 = b>>52 (the 52-bit multipliers read only
// the low 52 bits of A and B):
//	a·b = a0b0 + (a0b1 + a1b0)·2^52 + a1b1·2^104
// lo52 and hi52 of each partial product land in the accumulator of their
// weight — L at 1, M at 2^52, H at 2^104 — split over two registers where a
// weight takes two products, so no accumulator chains more than two 4-cycle
// multiply-adds per term.
#define IFMA_TERM(A, A1, B, B1, L, M1, M2, H1, H2) \
	VPMADD52LUQ B, A, L     \ // lo(a0b0)
	VPMADD52HUQ B, A, M1    \ // hi(a0b0)
	VPMADD52LUQ B, A1, M1   \ // lo(a1b0)
	VPMADD52LUQ B1, A, M2   \ // lo(a0b1)
	VPMADD52HUQ B1, A, H1   \ // hi(a0b1)
	VPMADD52LUQ B1, A1, H1  \ // lo(a1b1)
	VPMADD52HUQ B, A1, H2     // hi(a1b0)

// IFMA_OPEN opens an accumulator on the eight words at ADDR under mask K
// (all-zero: on nothing): L = out mod 2^52, M1 = out>>52, the rest 0.
// IFMA_OPEN3 opens the three-register form L, M, H the group kernel keeps.
#define IFMA_OPEN3(ADDR, K, L, M, H) \
	VMOVDQU64.Z ADDR, K, Z4 \
	VPANDQ Z24, Z4, L       \
	VPSRLQ $52, Z4, M       \
	VPXORQ H, H, H

#define IFMA_OPEN(ADDR, K, L, M1, M2, H1, H2) \
	IFMA_OPEN3(ADDR, K, L, M1, H1) \
	VPXORQ M2, M2, M2              \
	VPXORQ H2, H2, H2

// IFMA_CLOSE turns the accumulator into the 128-bit HI:LO it stands for,
// L + M·2^52 + H·2^104 with M = M1 + M2 and H = H1 + H2:
//	LO = L + (M mod 2^12)·2^52   (one carry out)
//	HI = M>>12 + H·2^40 + carry
// then reduces it to [0, 2q) in Z0 as vecDotLazyAVX512 does. With every
// register below 2^64, HI:LO is the sum mod 2^128, which the callers' term
// bounds keep below 2^128. IFMA_CLOSE3 closes the three-register form.
// Clobbers Z0–Z9, K1.
#define IFMA_CLOSE3(BARRETT, L, M, H) \
	VPSLLQ $52, M, Z5                       \
	VPADDQ Z5, L, Z3                        \ // LO
	VPCMPUQ $1, Z5, Z3, K1                  \ // carry: LO <u (M<<52)
	VPSRLQ $12, M, Z2                       \
	VPSLLQ $40, H, Z6                       \
	VPADDQ Z6, Z2, Z2                       \
	VPADDQ Z25, Z2, K1, Z2                  \ // HI
	BARRETT(Z2, Z3, Z4, Z8, Z9, Z5, Z6, Z7) \
	VPMULLQ Z27, Z4, Z5                     \
	VPSUBQ Z5, Z3, Z0                       \
	CONDSUB(Z0, Z28, Z5)

#define IFMA_CLOSE(L, M1, M2, H1, H2) \
	VPADDQ M2, M1, M1                \
	VPADDQ H2, H1, H1                \
	IFMA_CLOSE3(BARRETT_T, L, M1, H1)

// BARRETT_T52 is BARRETT_T for u0 < 2^40 (q > 2^24), whose term
// hi64(xlo·u0) it forms on two multiply-adds, with Z24 = 2^52 − 1: for
// xlo = x0 + x1·2^52 and S = hi52(x0·u0) + x1·u0 (x1·u0 < 2^52, so its low
// 52 bits are all of it), xlo·u0 = lo52(x0·u0) + S·2^52 and
//	hi64(xlo·u0) = S>>12 ,
// the dropped lo52(x0·u0)/2^64 < 2^-12 never carrying past the fraction of
// S/2^12. The same quotient, so the same words.
#define BARRETT_T52(XHI, XLO, T, H, L, T0, T1, T2) \
	VPMULLQ Z29, XHI, T                  \
	VPANDQ Z24, XLO, T0                  \
	VPSRLQ $52, XLO, T1                  \
	VPXORQ H, H, H                       \
	VPMADD52HUQ Z29, T0, H               \
	VPMADD52LUQ Z29, T1, H               \
	VPSRLQ $12, H, H                     \
	VPADDQ H, T, T                       \
	MUL128x8(XHI, Z30, H, L, T0, T1, T2) \
	VPADDQ H, T, T

// func vecDotKeyLazyAVX512(outB, outA []uint64, a, b, u [][]uint64, accMaskB, accMaskA, q, twoQ, u0, u1, narrow uint64)
// The two dots of a gadget product against one key, out of one pass over the
// digit rows, on the 52-bit multiply-adds (AVX-512 IFMA): per 8
// coefficients, each term loads and splits a[k] once and adds a[k]·b[k] into
// the B accumulator Z10–Z14 and a[k]·u[k] into the A accumulator Z15–Z19 at
// seven multiply-adds each, where a 64×64 product costs vecDotLazyAVX512 four
// 32×32 multiplies and eleven carry operations. On a narrow modulus (narrow
// ≠ 0: q < 2^51, so a < 2q and b, u < q all fit 52 bits) a term is one
// product of two 52-bit limbs, lo52 into L and hi52 into M1 — two
// multiply-adds per output, the same sums with the zero limbs' products left
// out. Each output then pays vecDotLazyAVX512's single Barrett reduction, so
// the bytes are its bytes. Term bounds (a < 2^62, b < 2^61, at most
// MaxDotTerms terms) keep every register below 2^64.
TEXT ·vecDotKeyLazyAVX512(SB), NOSPLIT, $0-176
	MOVQ outB_base+0(FP), DI
	MOVQ outB_len+8(FP), CX
	MOVQ outA_base+24(FP), BX
	MOVQ a_base+48(FP), R8
	MOVQ a_len+56(FP), R13
	IMULQ $24, R13                            // end offset of the row headers
	MOVQ b_base+72(FP), R9
	MOVQ u_base+96(FP), R10
	MOVQ accMaskB+120(FP), AX
	KMOVW AX, K3
	MOVQ accMaskA+128(FP), AX
	KMOVW AX, K4
	MOVQ narrow+168(FP), R14
	BARRETT_CONSTS(136)
	MOVQ $0xfffffffffffff, AX
	VPBROADCASTQ AX, Z24                      // 2^52 − 1
	XORQ DX, DX
dotKeyLoop:
	IFMA_OPEN((DI)(DX*8), K3, Z10, Z11, Z12, Z13, Z14)
	IFMA_OPEN((BX)(DX*8), K4, Z15, Z16, Z17, Z18, Z19)
	XORQ R12, R12
	TESTQ R14, R14
	JNZ dotKeyNarrow
dotKeyTerm:
	MOVQ (R8)(R12*1), SI
	VMOVDQU64 (SI)(DX*8), Z0
	VPSRLQ $52, Z0, Z1                        // a1
	MOVQ (R9)(R12*1), SI
	PREFETCHT0 PREFETCH_DIST(SI)(DX*8)
	VMOVDQU64 (SI)(DX*8), Z2
	VPSRLQ $52, Z2, Z3                        // b1
	IFMA_TERM(Z0, Z1, Z2, Z3, Z10, Z11, Z12, Z13, Z14)
	MOVQ (R10)(R12*1), SI
	VMOVDQU64 (SI)(DX*8), Z20
	VPSRLQ $52, Z20, Z21                      // u1
	IFMA_TERM(Z0, Z1, Z20, Z21, Z15, Z16, Z17, Z18, Z19)
	ADDQ $24, R12
	CMPQ R12, R13
	JL dotKeyTerm
	JMP dotKeyClose
dotKeyNarrow:
	MOVQ (R8)(R12*1), SI
	VMOVDQU64 (SI)(DX*8), Z0
	MOVQ (R9)(R12*1), SI
	PREFETCHT0 PREFETCH_DIST(SI)(DX*8)
	VMOVDQU64 (SI)(DX*8), Z2
	VPMADD52LUQ Z2, Z0, Z10                   // lo(ab)
	VPMADD52HUQ Z2, Z0, Z11                   // hi(ab)
	MOVQ (R10)(R12*1), SI
	VMOVDQU64 (SI)(DX*8), Z20
	VPMADD52LUQ Z20, Z0, Z15                  // lo(au)
	VPMADD52HUQ Z20, Z0, Z16                  // hi(au)
	ADDQ $24, R12
	CMPQ R12, R13
	JL dotKeyNarrow
dotKeyClose:
	IFMA_CLOSE(Z10, Z11, Z12, Z13, Z14)
	VMOVDQU64 Z0, (DI)(DX*8)
	IFMA_CLOSE(Z15, Z16, Z17, Z18, Z19)
	VMOVDQU64 Z0, (BX)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL dotKeyLoop
	VZEROUPPER
	RET

// func vecConvertRowAVX512(out []uint64, rows [][]uint64, terms []convTerm, accMask, exitQ, q, twoQ, u0, u1 uint64)
// The base-conversion row Σ_k rows[k]·w[k] on the 52-bit multiply-adds, two
// output vectors per step: the first eight coefficients accumulate in
// Z10–Z14, the next eight in Z15–Z19, all in registers for the whole step.
// A narrow term (terms[k].wide == 0: row and constant below 2^52) is one
// product of two 52-bit limbs, lo52 into L and hi52 into M1 — two
// multiply-adds per vector; any other takes IFMA_TERM's seven. The branch
// goes the same way for a term at every step. Each vector then closes as the
// dot's do, and exitQ (q, or 0 to stay lazy) takes the last fold to [0, q).
// rows and terms are walked with one offset: a row header and a convTerm
// are both 24 bytes.
TEXT ·vecConvertRowAVX512(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ rows_base+24(FP), R8
	MOVQ rows_len+32(FP), R13
	IMULQ $24, R13                            // end offset of the row headers
	MOVQ terms_base+48(FP), R9
	MOVQ accMask+72(FP), AX
	KMOVW AX, K3
	VPBROADCASTQ exitQ+80(FP), Z31
	BARRETT_CONSTS(88)
	MOVQ $0xfffffffffffff, AX
	VPBROADCASTQ AX, Z24                      // 2^52 − 1
	XORQ DX, DX
convRowLoop:
	IFMA_OPEN((DI)(DX*8), K3, Z10, Z11, Z12, Z13, Z14)
	IFMA_OPEN(64(DI)(DX*8), K3, Z15, Z16, Z17, Z18, Z19)
	XORQ R12, R12
convRowTerm:
	MOVQ (R8)(R12*1), SI
	VMOVDQU64 (SI)(DX*8), Z0
	VMOVDQU64 64(SI)(DX*8), Z20
	VPBROADCASTQ (R9)(R12*1), Z2              // w
	CMPQ 16(R9)(R12*1), $0
	JNE convRowWide
	VPMADD52LUQ Z2, Z0, Z10
	VPMADD52HUQ Z2, Z0, Z11
	VPMADD52LUQ Z2, Z20, Z15
	VPMADD52HUQ Z2, Z20, Z16
	JMP convRowNext
convRowWide:
	VPBROADCASTQ 8(R9)(R12*1), Z3             // w1
	VPSRLQ $52, Z0, Z1                        // a1
	VPSRLQ $52, Z20, Z21
	IFMA_TERM(Z0, Z1, Z2, Z3, Z10, Z11, Z12, Z13, Z14)
	IFMA_TERM(Z20, Z21, Z2, Z3, Z15, Z16, Z17, Z18, Z19)
convRowNext:
	ADDQ $24, R12
	CMPQ R12, R13
	JL convRowTerm
	IFMA_CLOSE(Z10, Z11, Z12, Z13, Z14)
	CONDSUB(Z0, Z31, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	IFMA_CLOSE(Z15, Z16, Z17, Z18, Z19)
	CONDSUB(Z0, Z31, Z5)
	VMOVDQU64 Z0, 64(DI)(DX*8)
	ADDQ $16, DX
	CMPQ DX, CX
	JL convRowLoop
	VZEROUPPER
	RET

// The group conversion's per-target steps. A target's convTarget sits at
// OFF(DI) (out +0, terms +8, q, twoQ, u0, u1 at +16..+40, exitQ +48) and its
// terms pointer in a register of its own; its accumulator is L, M, H.
#define GROUP_OPEN(OFF, L, M, H) \
	MOVQ OFF(DI), SI \
	IFMA_OPEN3((SI)(DX*8), K3, L, M, H)

// GROUP_TERM adds the term at R12 of TERMS to the accumulator, for the
// source vector Z0 and Z1 = Z0>>52: two multiply-adds if narrow, IFMA_TERM's
// seven into L, M, M, H, H if not.
#define GROUP_TERM(TERMS, L, M, H, WIDE, NEXT) \
	CMPQ 16(TERMS)(R12*1), $0                \
	JNE WIDE                                 \
	VPMADD52LUQ.BCST (TERMS)(R12*1), Z0, L   \ // w
	VPMADD52HUQ.BCST (TERMS)(R12*1), Z0, M   \
	JMP NEXT                                 \
WIDE:                                        \
	VPBROADCASTQ (TERMS)(R12*1), Z2          \ // w
	VPBROADCASTQ 8(TERMS)(R12*1), Z3         \ // w1
	IFMA_TERM(Z0, Z1, Z2, Z3, L, M, M, H, H) \
NEXT:

// GROUP_CLOSE closes the accumulator on the target's own constants, the
// quotient by BARRETT_T52 (the caller keeps targets with q ≤ 2^24 out), and
// stores it at DX.
#define GROUP_CLOSE(OFF, L, M, H) \
	VPBROADCASTQ (OFF+16)(DI), Z27    \
	VPBROADCASTQ (OFF+24)(DI), Z28    \
	VPBROADCASTQ (OFF+32)(DI), Z29    \
	VPBROADCASTQ (OFF+40)(DI), Z30    \
	VPBROADCASTQ (OFF+48)(DI), Z31    \
	IFMA_CLOSE3(BARRETT_T52, L, M, H) \
	CONDSUB(Z0, Z31, Z5)              \
	MOVQ OFF(DI), SI                  \
	VMOVDQU64 Z0, (SI)(DX*8)

// func vecConvertRowsAVX512(tg *[ConvertGroup]convTarget, ng int, rows [][]uint64, n int, accMask uint64)
// vecConvertRowAVX512 for 2 ≤ ng ≤ 4 targets per pass over the rows, eight
// coefficients a step: each source vector is loaded once and feeds target
// t's accumulator Z(10+3t)–Z(12+3t), held in three registers, as the weights
// 2^52 and 2^104 each take at most three of a term's multiply-adds and the
// four targets give the core twelve independent chains. The targets past ng
// are skipped at every step, on branches that go the same way each time.
// (A lone target runs vecConvertRowAVX512, two vectors a step.)
TEXT ·vecConvertRowsAVX512(SB), NOSPLIT, $0-56
	MOVQ tg+0(FP), DI
	MOVQ ng+8(FP), R11
	MOVQ rows_base+16(FP), R8
	MOVQ rows_len+24(FP), R13
	IMULQ $24, R13                            // end offset of the row headers
	MOVQ n+40(FP), CX
	MOVQ accMask+48(FP), AX
	KMOVW AX, K3
	MOVQ 8(DI), R9                            // the four targets' terms
	MOVQ 64(DI), R10
	MOVQ 120(DI), R14
	MOVQ 176(DI), BX
	MOVQ $1, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x100000000, AX
	VPBROADCASTQ AX, Z26
	MOVQ $0xfffffffffffff, AX
	VPBROADCASTQ AX, Z24                      // 2^52 − 1
	XORQ DX, DX
convRowsLoop:
	GROUP_OPEN(0, Z10, Z11, Z12)
	GROUP_OPEN(56, Z13, Z14, Z15)
	CMPQ R11, $2
	JEQ convRowsOpen
	GROUP_OPEN(112, Z16, Z17, Z18)
	CMPQ R11, $3
	JEQ convRowsOpen
	GROUP_OPEN(168, Z19, Z20, Z21)
convRowsOpen:
	XORQ R12, R12
convRowsTerm:
	MOVQ (R8)(R12*1), SI
	PREFETCHT0 PREFETCH_DIST(SI)(DX*8)
	VMOVDQU64 (SI)(DX*8), Z0
	VPSRLQ $52, Z0, Z1                        // a1
	GROUP_TERM(R9, Z10, Z11, Z12, convRowsWide0, convRowsNext0)
	GROUP_TERM(R10, Z13, Z14, Z15, convRowsWide1, convRowsNext1)
	CMPQ R11, $2
	JEQ convRowsNext
	GROUP_TERM(R14, Z16, Z17, Z18, convRowsWide2, convRowsNext2)
	CMPQ R11, $3
	JEQ convRowsNext
	GROUP_TERM(BX, Z19, Z20, Z21, convRowsWide3, convRowsNext3)
convRowsNext:
	ADDQ $24, R12
	CMPQ R12, R13
	JL convRowsTerm
	GROUP_CLOSE(0, Z10, Z11, Z12)
	GROUP_CLOSE(56, Z13, Z14, Z15)
	CMPQ R11, $2
	JEQ convRowsStored
	GROUP_CLOSE(112, Z16, Z17, Z18)
	CMPQ R11, $3
	JEQ convRowsStored
	GROUP_CLOSE(168, Z19, Z20, Z21)
convRowsStored:
	ADDQ $8, DX
	CMPQ DX, CX
	JL convRowsLoop
	VZEROUPPER
	RET

// func vecAddAVX512(out, a, b []uint64, q uint64)
TEXT ·vecAddAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ q+72(FP), Z27
	XORQ DX, DX
addLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	VPADDQ (BX)(DX*8), Z0, Z0
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL addLoop
	VZEROUPPER
	RET

// func vecAddScalarAVX512(out, a []uint64, c, q uint64)
TEXT ·vecAddScalarAVX512(SB), NOSPLIT, $0-64
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	VPBROADCASTQ c+48(FP), Z1
	VPBROADCASTQ q+56(FP), Z27
	XORQ DX, DX
addScalarLoop:
	VPADDQ (SI)(DX*8), Z1, Z0
	CONDSUB(Z0, Z27, Z5)
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL addScalarLoop
	VZEROUPPER
	RET

// func vecSubAVX512(out, a, b []uint64, q uint64)
// The fold is the scalar kernel's borrow test (d >u a), not an unsigned min:
// the two agree on residues, and this one also does on arbitrary words.
TEXT ·vecSubAVX512(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	VPBROADCASTQ q+72(FP), Z27
	XORQ DX, DX
subLoop:
	VMOVDQU64 (SI)(DX*8), Z0
	VPSUBQ (BX)(DX*8), Z0, Z1                 // d = a - b
	VPCMPUQ $6, Z0, Z1, K1                    // borrow: d >u a
	VPADDQ Z27, Z1, K1, Z1                    // d += q
	VMOVDQU64 Z1, (DI)(DX*8)
	ADDQ $8, DX
	CMPQ DX, CX
	JL subLoop
	VZEROUPPER
	RET

// The stage kernels come in two forms over the same loops: MULHI8's
// (...AVX512) for every modulus, and the IFMA one (...NarrowAVX512) for
// q < 2^50, whose output words are the same. Labels are local to a TEXT
// body, so the two forms share the loop macros' label names.

// FWD_TAIL_LOOPS: the span-1 stage is the transform's last: exit2Q = 2q
// (in DX and Z21) folds its outputs to [0, 2q) and exitQ = q (in AX and Z22)
// on to [0, q); both are 0 at spans 4 and 2. A fold by 0 is the identity, so
// the call branches once to the loop that runs only the folds whose bound is
// set: none at spans 4 and 2, the 2q pair in a lazy span 1, both pairs in an
// exact one.
#define FWD_TAIL_LOOPS(BFLY, SPLIT) \
	TESTQ DX, DX                                               \
	JZ fwdTail                                                 \
	TESTQ AX, AX                                               \
	JZ fwdTailLazy                                             \
	TAIL_LOOP(BFLY, SPLIT, NOMIRROR, PREFETCH_DIST, EXACTFOLD, fwdTailExactPair, fwdTailExactLast, fwdTailExactDone) \
fwdTailLazy:                                                   \
	TAIL_LOOP(BFLY, SPLIT, NOMIRROR, PREFETCH_DIST, LAZYFOLD, fwdTailLazyPair, fwdTailLazyLast, fwdTailLazyDone) \
fwdTail:                                                       \
	TAIL_LOOP(BFLY, SPLIT, NOMIRROR, PREFETCH_DIST, NOFOLD, fwdTailPair, fwdTailLast, fwdTailDone)

// INV_FINAL_LOOP: the last inverse stage with 1/N fused, x' =
// MulShoupLazy(u + v, nInv), y' = MulShoupLazy(u - v + 2q, w); exitQ = q
// folds both to [0, q). nInv, nInvShoup are in Z21, Z20 and w, wShoup in
// Z23, Z24, which SPLIT splits into Z20, Z13 and Z24, Z14 for SHOUP.
#define INV_FINAL_LOOP(SHOUP, SPLIT) \
	SPLIT(Z20, Z13)                                            \
	SPLIT(Z24, Z14)                                            \
	XORQ DX, DX                                                \
invFinalLoop:                                                  \
	VMOVDQU64 (DI)(DX*8), Z0                                   \ // u
	VMOVDQU64 (BX)(DX*8), Z1                                   \ // v
	VPADDQ Z1, Z0, Z2                                          \ // s = u + v, in [0, 4q)
	VPSUBQ Z1, Z0, Z3                                          \
	VPADDQ Z28, Z3, Z3                                         \ // d = u - v + 2q
	SHOUP(Z2, Z21, Z20, Z13, Z4, Z5, Z6, Z7)                   \ // x' in [0, 2q)
	SHOUP(Z3, Z23, Z24, Z14, Z4, Z5, Z6, Z7)                   \ // y' in [0, 2q)
	CONDSUB(Z2, Z22, Z5)                                       \
	CONDSUB(Z3, Z22, Z5)                                       \
	VMOVDQU64 Z2, (DI)(DX*8)                                   \
	VMOVDQU64 Z3, (BX)(DX*8)                                   \
	ADDQ $8, DX                                                \
	CMPQ DX, CX                                                \
	JL invFinalLoop                                            \
	VZEROUPPER                                                 \
	RET

// func vecFwdStageAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)
TEXT ·vecFwdStageAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psi_len+32(FP), R8
	MOVQ psiShoup_base+48(FP), BX
	MOVQ span+72(FP), R9
	MULHI_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	WIDE_STAGE(FWD_BFLY, SPLIT32, NOMIRROR, 8, 16, fwdStagePair, fwdStageLastBlock, fwdStageBlock, fwdStageLoop, fwdStageDone)
	VZEROUPPER
	RET

// func vecInvStageAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)
TEXT ·vecInvStageAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psi_len+32(FP), R8
	MOVQ psiShoup_base+48(FP), BX
	MOVQ span+72(FP), R9
	LEAQ -8(SI)(R8*8), SI // block 0 reads the last twiddle
	LEAQ -8(BX)(R8*8), BX
	MULHI_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	MIRROR_CONSTS(q+80(FP))
	WIDE_STAGE(INV_BFLY, SPLIT32, MIRROR, -8, -16, invStagePair, invStageLastBlock, invStageBlock, invStageLoop, invStageDone)
	VZEROUPPER
	RET

// func vecFwdTailAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ, exit2Q, exitQ uint64)
TEXT ·vecFwdTailAVX512(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), BX
	MOVQ idx+72(FP), R10
	MOVQ tw+80(FP), CX
	MOVQ steps+88(FP), R8
	MULHI_CONSTS(q+96(FP))
	VPBROADCASTQ twoQ+104(FP), Z28
	VPBROADCASTQ exit2Q+112(FP), Z21
	VPBROADCASTQ exitQ+120(FP), Z22
	TAIL_SETUP(32)
	MOVQ exit2Q+112(FP), DX
	MOVQ exitQ+120(FP), AX
	FWD_TAIL_LOOPS(FWD_BFLY, SPLIT32)

// func vecInvTailAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ uint64)
// psi holds exactly steps·tw twiddles; step 0 reads the last tw of them.
TEXT ·vecInvTailAVX512(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), BX
	MOVQ idx+72(FP), R10
	MOVQ tw+80(FP), CX
	MOVQ steps+88(FP), R8
	MULHI_CONSTS(q+96(FP))
	VPBROADCASTQ twoQ+104(FP), Z28
	MIRROR_CONSTS(q+96(FP))
	TAIL_SETUP(40)
	LEAQ -1(R8), AX
	IMULQ R9, AX
	ADDQ AX, SI
	ADDQ AX, BX
	NEGQ R9
	TAIL_LOOP(INV_BFLY, SPLIT32, MIRROR, -PREFETCH_DIST, NOFOLD, invTailPair, invTailLast, invTailDone)

// func vecInvFinalAVX512(x, y []uint64, nInv, nInvShoup, w, wShoup, q, twoQ, exitQ uint64)
TEXT ·vecInvFinalAVX512(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), BX
	VPBROADCASTQ nInv+48(FP), Z21
	VPBROADCASTQ nInvShoup+56(FP), Z20
	VPBROADCASTQ w+64(FP), Z23
	VPBROADCASTQ wShoup+72(FP), Z24
	MULHI_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	VPBROADCASTQ exitQ+96(FP), Z22
	INV_FINAL_LOOP(SHOUP32, SPLIT32)

// func vecFwdStageNarrowAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)
TEXT ·vecFwdStageNarrowAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psi_len+32(FP), R8
	MOVQ psiShoup_base+48(FP), BX
	MOVQ span+72(FP), R9
	IFMA_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	WIDE_STAGE(FWD_BFLY52, SPLIT52, NOMIRROR, 8, 16, fwdStagePair, fwdStageLastBlock, fwdStageBlock, fwdStageLoop, fwdStageDone)
	VZEROUPPER
	RET

// func vecInvStageNarrowAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)
TEXT ·vecInvStageNarrowAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psi_len+32(FP), R8
	MOVQ psiShoup_base+48(FP), BX
	MOVQ span+72(FP), R9
	LEAQ -8(SI)(R8*8), SI // block 0 reads the last twiddle
	LEAQ -8(BX)(R8*8), BX
	IFMA_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	MIRROR_CONSTS(q+80(FP))
	WIDE_STAGE(INV_BFLY52, SPLIT52, MIRROR, -8, -16, invStagePair, invStageLastBlock, invStageBlock, invStageLoop, invStageDone)
	VZEROUPPER
	RET

// func vecFwdTailNarrowAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ, exit2Q, exitQ uint64)
TEXT ·vecFwdTailNarrowAVX512(SB), NOSPLIT, $0-128
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), BX
	MOVQ idx+72(FP), R10
	MOVQ tw+80(FP), CX
	MOVQ steps+88(FP), R8
	IFMA_CONSTS(q+96(FP))
	VPBROADCASTQ twoQ+104(FP), Z28
	VPBROADCASTQ exit2Q+112(FP), Z21
	VPBROADCASTQ exitQ+120(FP), Z22
	TAIL_SETUP(32)
	MOVQ exit2Q+112(FP), DX
	MOVQ exitQ+120(FP), AX
	FWD_TAIL_LOOPS(FWD_BFLY52, SPLIT52)

// func vecInvTailNarrowAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ uint64)
// psi holds exactly steps·tw twiddles; step 0 reads the last tw of them.
TEXT ·vecInvTailNarrowAVX512(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), DI
	MOVQ psi_base+24(FP), SI
	MOVQ psiShoup_base+48(FP), BX
	MOVQ idx+72(FP), R10
	MOVQ tw+80(FP), CX
	MOVQ steps+88(FP), R8
	IFMA_CONSTS(q+96(FP))
	VPBROADCASTQ twoQ+104(FP), Z28
	MIRROR_CONSTS(q+96(FP))
	TAIL_SETUP(40)
	LEAQ -1(R8), AX
	IMULQ R9, AX
	ADDQ AX, SI
	ADDQ AX, BX
	NEGQ R9
	TAIL_LOOP(INV_BFLY52, SPLIT52, MIRROR, -PREFETCH_DIST, NOFOLD, invTailPair, invTailLast, invTailDone)

// func vecInvFinalNarrowAVX512(x, y []uint64, nInv, nInvShoup, w, wShoup, q, twoQ, exitQ uint64)
TEXT ·vecInvFinalNarrowAVX512(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), BX
	VPBROADCASTQ nInv+48(FP), Z21
	VPBROADCASTQ nInvShoup+56(FP), Z20
	VPBROADCASTQ w+64(FP), Z23
	VPBROADCASTQ wShoup+72(FP), Z24
	IFMA_CONSTS(q+80(FP))
	VPBROADCASTQ twoQ+88(FP), Z28
	VPBROADCASTQ exitQ+96(FP), Z22
	INV_FINAL_LOOP(SHOUP52, SPLIT52)
