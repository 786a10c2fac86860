//go:build amd64 && !noasm

package modarith

// amd64 assembly tier. Each raw asm row kernel processes a multiple of its
// lane count (8) and requires a non-empty input; the wrappers below run the
// largest aligned prefix through assembly and hand the remainder to the
// pure-Go kernel, which keeps the bit-identical contract trivially (the Go
// kernel IS the spec). The block-permutation kernels take whole rows: a
// BlockPerm's entries address its source row absolutely, and a row of
// eight words or more is whole blocks. The NTT stage kernels split by whole
// 16-coefficient steps instead (see fwdStage below), and the dot kernel, whose
// operands are arrays of rows, takes a whole call or none of it.

// AVX-512 kernels (8 lanes, F+DQ). vec_avx512_amd64.s.
//
//go:noescape
func vecMulBarrettAVX512(out, a, b []uint64, q, twoQ, u0, u1 uint64)

//go:noescape
func vecMulAddBarrettAVX512(out, a, b []uint64, q, twoQ, u0, u1 uint64)

//go:noescape
func vecMulShoupAVX512(out, a []uint64, w, wShoup, q uint64)

//go:noescape
func vecMulShoupAddLazyAVX512(out, a []uint64, w, wShoup, q, twoQ uint64)

//go:noescape
func vecSubMulShoupLazyAVX512(out, a, b []uint64, w, wShoup, q, twoQ uint64)

//go:noescape
func vecRescaleStepAVX512(row, t []uint64, hf4, w, wShoup, q, u0 uint64)

//go:noescape
func vecMulWideAVX512(accHi, accLo, row []uint64, w uint64)

//go:noescape
func vecMulAccWideAVX512(accHi, accLo, row []uint64, w uint64)

// The block-permutation kernels take a BlockPerm's entries and lane table,
// blocks of eight words only.
//
//go:noescape
func vecMulAccWidePermAVX512(accHi, accLo, a, b []uint64, blocks []uint32, shuf *[8][8]uint64)

//go:noescape
func vecPermuteAVX512(out, a []uint64, blocks []uint32, shuf *[8][8]uint64)

//go:noescape
func vecAddPermuteAVX512(out, a, b []uint64, blocks []uint32, shuf *[8][8]uint64, q uint64)

// vecExpandAVX512 broadcasts each of the len(c) ≥ 1 words of c to k
// consecutive words of out, k a positive multiple of 8.
//
//go:noescape
func vecExpandAVX512(out, c []uint64, k int)

//go:noescape
func vecFoldWide128LazyAVX512(accHi, accLo []uint64, q, twoQ, u0, u1 uint64)

//go:noescape
func vecReduceWide128AVX512(dst, accHi, accLo []uint64, q, twoQ, u0, u1 uint64)

//go:noescape
func vecReduceWide128LazyAVX512(dst, accHi, accLo []uint64, q, twoQ, u0, u1 uint64)

//go:noescape
func vecReduceTwoQAVX512(p []uint64, q uint64)

// vecDotLazyAVX512 reads the first len(out) words of every a[k] / b[k] row
// (len(a) >= 1 rows each); accMask is the lane mask of the load of out, 0xff to
// accumulate onto it and 0 to leave it unread.
//
//go:noescape
func vecDotLazyAVX512(out []uint64, a, b [][]uint64, accMask, q, twoQ, u0, u1 uint64)

// vecDotKeyLazyAVX512 is vecDotLazyAVX512 for two outputs over one a, on the
// AVX-512 IFMA multiply-adds: outB from the b rows, outA from the u rows,
// each with its own accumulate mask. narrow ≠ 0 (q < narrowModulus) takes
// each term on one 52-bit product.
//
//go:noescape
func vecDotKeyLazyAVX512(outB, outA []uint64, a, b, u [][]uint64, accMaskB, accMaskA, q, twoQ, u0, u1, narrow uint64)

// vecConvertRowAVX512 sets out (a multiple of 16 words) to the row conversion
// over rows, one terms entry per row (len(rows) ≥ 1, at most maxIFMATerms),
// on the AVX-512 IFMA multiply-adds: the sum opens on out under accMask (0xff:
// the addend of a fold, 0: nothing) and closes to [0, 2q), then to [0, q)
// when exitQ is q (0 leaves it lazy).
//
//go:noescape
func vecConvertRowAVX512(out []uint64, rows [][]uint64, terms []convTerm, accMask, exitQ, q, twoQ, u0, u1 uint64)

// vecConvertRowsAVX512 is vecConvertRowAVX512 for the first ng targets of tg
// at once, 2 ≤ ng ≤ ConvertGroup, over n (a multiple of 8) words: each
// eight-word load of a source row feeds every target's accumulator, each
// target with its own output, terms, modulus and exit.
//
//go:noescape
func vecConvertRowsAVX512(tg *[ConvertGroup]convTarget, ng int, rows [][]uint64, n int, accMask uint64)

// convTarget is one target of vecConvertRowsAVX512, laid out for the
// assembly (56 bytes, the offsets GROUP_OPEN and GROUP_CLOSE read).
type convTarget struct {
	out             *uint64
	terms           *convTerm // the first term of the call's run
	q, twoQ, u0, u1 uint64
	exitQ           uint64 // q for an exact exit, 0 for a lazy one
}

// maxIFMATerms is the most terms one vecConvertRowAVX512 call may sum. A
// term adds below 2^52 to each accumulator register at most twice, and to
// the two weight-2^52 registers three times together, which the close adds
// up: with the opening addend, 3·1024·2^52 + 2^52 < 2^64 keeps that sum, and
// every register, exact for any operands.
const maxIFMATerms = 1024

// expandUniformAVX512 fills dst with len(tiles) runs of n ≥ 1 words, run r
// the accepted words of the counter blocks of tiles[r]: uniform.go's stream,
// fused in registers.
//
//go:noescape
func expandUniformAVX512(dst []uint64, rk *[15][16]byte, tiles []TileRef, n int, q, rejectBelow uint64)

//go:noescape
func vecAddAVX512(out, a, b []uint64, q uint64)

//go:noescape
func vecSubAVX512(out, a, b []uint64, q uint64)

//go:noescape
func vecAddScalarAVX512(out, a []uint64, c, q uint64)

// NTT stage kernels. The wide forms (span ≥ 8) loop over len(psi) blocks
// and span/8 vector steps per block; the tail forms (span 4, 2, 1) run `steps`
// 16-coefficient steps, each covering tw = 8/span whole blocks, with x and y
// gathered in registers through the idx permutations. The inverse forms read
// psi mirrored and negated (VecInvStage): block i takes q − psi[len−1−i].
// exit2Q/exitQ are the forward last-stage folds (0 disables a fold); exitQ
// likewise in invFinal.
// Each has a Narrow form for q < nttNarrowModulus on the AVX-512 IFMA
// multiply-adds, with the same arguments and the same output words.

//go:noescape
func vecFwdStageAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)

//go:noescape
func vecFwdTailAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ, exit2Q, exitQ uint64)

//go:noescape
func vecInvStageAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)

//go:noescape
func vecInvTailAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ uint64)

//go:noescape
func vecInvFinalAVX512(x, y []uint64, nInv, nInvShoup, w, wShoup, q, twoQ, exitQ uint64)

//go:noescape
func vecFwdStageNarrowAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)

//go:noescape
func vecFwdTailNarrowAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ, exit2Q, exitQ uint64)

//go:noescape
func vecInvStageNarrowAVX512(a, psi, psiShoup []uint64, span int, q, twoQ uint64)

//go:noescape
func vecInvTailNarrowAVX512(a, psi, psiShoup []uint64, idx *[6]uint64, tw, steps int, q, twoQ uint64)

//go:noescape
func vecInvFinalNarrowAVX512(x, y []uint64, nInv, nInvShoup, w, wShoup, q, twoQ, exitQ uint64)

// tailIdx holds, per tail span (indexed by span>>1), the six lane
// permutations of one 16-coefficient step as byte vectors (lane 0 in the low
// byte): gather x, gather y (indices into the two loaded vectors, 0–15),
// scatter to the first and second stored vector (indices into x' ‖ y'), and
// the spread of the step's tw twiddles over the eight butterfly lanes, in
// load order for the forward kernels and reversed for the inverse ones,
// which load a step's twiddles from the mirrored end of the block.
var tailIdx = [3][6]uint64{
	{0x0e0c0a0806040200, 0x0f0d0b0907050301, 0x0b030a0209010800, 0x0f070e060d050c04, 0x0706050403020100, 0x0001020304050607}, // span 1
	{0x0d0c090805040100, 0x0f0e0b0a07060302, 0x0b0a030209080100, 0x0f0e07060d0c0504, 0x0303020201010000, 0x0000010102020303}, // span 2
	{0x0b0a090803020100, 0x0f0e0d0c07060504, 0x0b0a090803020100, 0x0f0e0d0c07060504, 0x0101010100000000, 0x0000000001010101}, // span 4
}

// stageBounds panics unless a holds every coefficient a stage call touches
// and psiShoup covers psi: the assembly does no bounds checking of its own.
func stageBounds(a, psi, psiShoup []uint64, span int) {
	_ = psiShoup[len(psi)-1]
	_ = a[2*span*len(psi)-1]
}

// asmKernelTable returns the AVX-512 table, or nil if this CPU lacks AVX-512.
// ifma selects the entries that run on the 52-bit multiply-adds; production
// passes what CPUID reports, and tests pass false to reach, on an IFMA host,
// the table a host without IFMA runs.
func asmKernelTable(ifma bool) *kernelTable {
	if !hasAVX512 {
		return nil
	}
	t := avx512Kernels(ifma)
	// Without IFMA the key switch's two dots are two calls of the one-output
	// kernel, and the row conversion is the tiled loop on the MUL128x8
	// kernels; with it, each is one register-held pass on the 52-bit
	// multiply-adds. (avx512Kernels puts the NTT butterflies of a modulus
	// below nttNarrowModulus on them too.)
	t.dotKeyLazy = func(m Modulus, outB, outA []uint64, a, b, u [][]uint64, accB, accA bool) {
		dotLazyAVX512(m, outB, a, b, accB)
		dotLazyAVX512(m, outA[:len(outB)], a, u, accA)
	}
	t.convertRow = convertRowTiled
	t.convertRows = convertRowsLoop
	if ifma {
		t.dotKeyLazy = func(m Modulus, outB, outA []uint64, a, b, u [][]uint64, accB, accA bool) {
			n := len(outB)
			if n == 0 || n%8 != 0 || len(a) == 0 {
				vecDotKeyLazyGo(m, outB, outA, a, b, u, accB, accA)
				return
			}
			_ = outA[n-1]
			for k := range a {
				_, _, _ = a[k][n-1], b[k][n-1], u[k][n-1]
			}
			var maskB, maskA, narrow uint64
			if accB {
				maskB = 0xff
			}
			if accA {
				maskA = 0xff
			}
			if m.Q < narrowModulus {
				narrow = 1
			}
			vecDotKeyLazyAVX512(outB, outA, a, b[:len(a)], u[:len(a)], maskB, maskA, m.Q, m.TwoQ, m.BRedHi, m.BRedLo, narrow)
		}
		t.convertRow = convertRowIFMA
		t.convertRows = convertRowsIFMA
	}
	t.expandUniform = expandUniformGo
	if hasVAES {
		t.expandUniform = func(m Modulus, dst []uint64, k *StreamKey, tiles []TileRef, n int) {
			_ = dst[len(tiles)*n-1]
			expandUniformAVX512(dst, &k.rk, tiles, n, m.Q, m.rejectBelow)
		}
	}
	return &t
}

// convertRowIFMA runs the row's whole multiple of 16 coefficients through
// vecConvertRowAVX512, one call per run of terms between folds — the tiled
// loop's fold points, so the lazy words agree too — and the rest through the
// tiled loop on t's MUL128x8 kernels. So does a row longer than one call may
// sum without a fold, which no parameter set comes near.
func convertRowIFMA(t *kernelTable, m Modulus, out []uint64, rows [][]uint64, c *ConvRow, fold int, lazy bool, hi []uint64) {
	k, n := len(rows), len(out)&^15
	if n == 0 || (k > maxIFMATerms && fold > maxIFMATerms) {
		convertRowTiles(t, m, out, rows, 0, c, fold, lazy, hi)
		return
	}
	for _, row := range rows {
		_ = row[n-1] // the assembly does its own addressing
	}
	var exitQ uint64
	if !lazy {
		exitQ = m.Q
	}
	// The first call sums fold terms; each later one opens on the folded
	// [0, 2q) residue and sums fold−1 more, as the tiled loop does.
	var accMask uint64
	for k0, k1 := 0, min(fold, k); ; k0, k1 = k1, min(k1+fold-1, k) {
		exit := exitQ
		if k1 < k {
			exit = 0
		}
		vecConvertRowAVX512(out[:n], rows[k0:k1], c.terms[k0:k1], accMask, exit, m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
		if k1 == k {
			break
		}
		accMask = 0xff
	}
	if n < len(out) {
		convertRowTiles(t, m, out[n:], rows, n, c, fold, lazy, hi)
	}
}

// convertRowsIFMA runs the targets' whole multiple of 8 coefficients through
// vecConvertRowsAVX512, ConvertGroup targets a call, at convertRowIFMA's fold
// points, and the rest of each row through the tiled loop. A lone target, two
// targets with a wide term (whose chains of three multiply-adds two targets
// cannot hide), a target of at most 24 bits (past BARRETT_T52's bound) and a
// shape convertRowIFMA hands the tiled loop go to convertRowIFMA, whose two
// vectors a step outrun them.
func convertRowsIFMA(t *kernelTable, outs [][]uint64, ms []Modulus, cs []ConvRow, js []int, rows [][]uint64, fold int, lazy bool, hi []uint64) {
	k, n := len(rows), len(outs[0])&^7
	if n == 0 || (k > maxIFMATerms && fold > maxIFMATerms) {
		convertRowsLoop(t, outs, ms, cs, js, rows, fold, lazy, hi)
		return
	}
	for _, row := range rows {
		_ = row[n-1] // the assembly does its own addressing
	}
	for len(js) > 0 {
		g := min(len(js), ConvertGroup)
		var tg [ConvertGroup]convTarget
		for i, j := range js[:g] {
			m := ms[j]
			if m.BRedHi >= 1<<40 {
				g = 1 // q ≤ 2^24: BARRETT_T52 does not hold
			}
			tg[i] = convTarget{out: &outs[i][0], q: m.Q, twoQ: m.TwoQ, u0: m.BRedHi, u1: m.BRedLo}
		}
		if g == 2 && (cs[js[0]].wide || cs[js[1]].wide) {
			g = 1
		}
		if g == 1 {
			convertRowIFMA(t, ms[js[0]], outs[0], rows, &cs[js[0]], fold, lazy, hi)
			outs, js = outs[1:], js[1:]
			continue
		}
		var accMask uint64
		for k0, k1 := 0, min(fold, k); ; k0, k1 = k1, min(k1+fold-1, k) {
			for i, j := range js[:g] {
				tg[i].terms, tg[i].exitQ = &cs[j].terms[k0], 0
				if k1 == k && !lazy {
					tg[i].exitQ = tg[i].q
				}
			}
			vecConvertRowsAVX512(&tg, g, rows[k0:k1], n, accMask)
			if k1 == k {
				break
			}
			accMask = 0xff
		}
		if n < len(outs[0]) {
			for i, j := range js[:g] {
				convertRowTiles(t, ms[j], outs[i][n:], rows, n, &cs[j], fold, lazy, hi)
			}
		}
		outs, js = outs[g:], js[g:]
	}
}

// avx512Kernels returns the AVX-512 table without the entries asmKernelTable
// sets; with ifma, the NTT stages of a modulus below nttNarrowModulus run the
// Narrow kernels.
func avx512Kernels(ifma bool) kernelTable {
	return kernelTable{
		tier: TierAVX512,
		name: "avx512",
		mulBarrett: func(m Modulus, out, a, b []uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecMulBarrettAVX512(out[:n], a[:n], b[:n], m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
			}
			if n < len(a) {
				vecMulBarrettGo(m, out[n:], a[n:], b[n:])
			}
		},
		mulAddBarrett: func(m Modulus, out, a, b []uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecMulAddBarrettAVX512(out[:n], a[:n], b[:n], m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
			}
			if n < len(a) {
				vecMulAddBarrettGo(m, out[n:], a[n:], b[n:])
			}
		},
		mulShoup: func(m Modulus, out, a []uint64, w, wShoup uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecMulShoupAVX512(out[:n], a[:n], w, wShoup, m.Q)
			}
			if n < len(a) {
				vecMulShoupGo(m, out[n:], a[n:], w, wShoup)
			}
		},
		mulShoupAddLazy: func(m Modulus, out, a []uint64, w, wShoup uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecMulShoupAddLazyAVX512(out[:n], a[:n], w, wShoup, m.Q, m.TwoQ)
			}
			if n < len(a) {
				vecMulShoupAddLazyGo(m, out[n:], a[n:], w, wShoup)
			}
		},
		subMulShoupLazy: func(m Modulus, out, a, b []uint64, w, wShoup uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecSubMulShoupLazyAVX512(out[:n], a[:n], b[:n], w, wShoup, m.Q, m.TwoQ)
			}
			if n < len(a) {
				vecSubMulShoupLazyGo(m, out[n:], a[n:], b[n:], w, wShoup)
			}
		},
		rescaleStep: func(m Modulus, row, t []uint64, halfModQ, w, wShoup uint64) {
			n := len(row) &^ 7
			if n > 0 {
				// halfModQ+4q folded once; wrapping adds commute, so the
				// per-element sum matches the scalar kernel exactly.
				vecRescaleStepAVX512(row[:n], t[:n], halfModQ+4*m.Q, w, wShoup, m.Q, m.BRedHi)
			}
			if n < len(row) {
				vecRescaleStepGo(m, row[n:], t[n:], halfModQ, w, wShoup)
			}
		},
		mulWide: func(accHi, accLo, row []uint64, w uint64) {
			n := len(row) &^ 7
			if n > 0 {
				vecMulWideAVX512(accHi[:n], accLo[:n], row[:n], w)
			}
			if n < len(row) {
				vecMulWideGo(accHi[n:], accLo[n:], row[n:], w)
			}
		},
		mulAccWide: func(accHi, accLo, row []uint64, w uint64) {
			n := len(row) &^ 7
			if n > 0 {
				vecMulAccWideAVX512(accHi[:n], accLo[:n], row[:n], w)
			}
			if n < len(row) {
				vecMulAccWideGo(accHi[n:], accLo[n:], row[n:], w)
			}
		},
		mulAccWidePerm: func(accHi, accLo, a, b []uint64, p *BlockPerm) {
			if p.lanes < permLanes {
				vecMulAccWidePermGo(accHi, accLo, a, b, p)
				return
			}
			n := p.Len()
			vecMulAccWidePermAVX512(accHi[:n], accLo[:n], a[:n], b[:n], p.blocks, &p.shuf)
		},
		foldWide128Lazy: func(m Modulus, accHi, accLo []uint64) {
			n := len(accLo) &^ 7
			if n > 0 {
				vecFoldWide128LazyAVX512(accHi[:n], accLo[:n], m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
			}
			if n < len(accLo) {
				vecFoldWide128LazyGo(m, accHi[n:], accLo[n:])
			}
		},
		reduceWide128: func(m Modulus, dst, accHi, accLo []uint64) {
			n := len(dst) &^ 7
			if n > 0 {
				vecReduceWide128AVX512(dst[:n], accHi[:n], accLo[:n], m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
			}
			if n < len(dst) {
				vecReduceWide128Go(m, dst[n:], accHi[n:], accLo[n:])
			}
		},
		reduceWide128Lazy: func(m Modulus, dst, accHi, accLo []uint64) {
			n := len(dst) &^ 7
			if n > 0 {
				vecReduceWide128LazyAVX512(dst[:n], accHi[:n], accLo[:n], m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
			}
			if n < len(dst) {
				vecReduceWide128LazyGo(m, dst[n:], accHi[n:], accLo[n:])
			}
		},
		reduceTwoQ: func(m Modulus, p []uint64) {
			n := len(p) &^ 7
			if n > 0 {
				vecReduceTwoQAVX512(p[:n], m.Q)
			}
			if n < len(p) {
				vecReduceTwoQGo(m, p[n:])
			}
		},
		add: func(m Modulus, out, a, b []uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecAddAVX512(out[:n], a[:n], b[:n], m.Q)
			}
			if n < len(a) {
				vecAddGo(m, out[n:], a[n:], b[n:])
			}
		},
		sub: func(m Modulus, out, a, b []uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecSubAVX512(out[:n], a[:n], b[:n], m.Q)
			}
			if n < len(a) {
				vecSubGo(m, out[n:], a[n:], b[n:])
			}
		},
		addScalar: func(m Modulus, out, a []uint64, c uint64) {
			n := len(a) &^ 7
			if n > 0 {
				vecAddScalarAVX512(out[:n], a[:n], c, m.Q)
			}
			if n < len(a) {
				vecAddScalarGo(m, out[n:], a[n:], c)
			}
		},
		permute: func(out, a []uint64, p *BlockPerm) {
			if p.lanes < permLanes {
				vecPermuteGo(out, a, p)
				return
			}
			n := p.Len()
			vecPermuteAVX512(out[:n], a[:n], p.blocks, &p.shuf)
		},
		addPermute: func(m Modulus, out, a, b []uint64, p *BlockPerm) {
			if p.lanes < permLanes {
				vecAddPermuteGo(m, out, a, b, p)
				return
			}
			n := p.Len()
			vecAddPermuteAVX512(out[:n], a[:n], b[:n], p.blocks, &p.shuf, m.Q)
		},
		expand: func(out, c []uint64) {
			if k := len(out) / len(c); k >= 8 && k%8 == 0 {
				vecExpandAVX512(out, c, k)
				return
			}
			vecExpandGo(out, c)
		},
		fwdStage: func(m Modulus, a, psi, psiShoup []uint64, span int, lazy bool) {
			fwdStageAVX512(m, a, psi, psiShoup, span, lazy, ifma && m.Q < nttNarrowModulus)
		},
		invStage: func(m Modulus, a, psi, psiShoup []uint64, span int) {
			invStageAVX512(m, a, psi, psiShoup, span, ifma && m.Q < nttNarrowModulus)
		},
		invFinal: func(m Modulus, x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy bool) {
			invFinalAVX512(m, x, y, nInv, nInvShoup, w, wShoup, lazy, ifma && m.Q < nttNarrowModulus)
		},
	}
}

// dotLazyAVX512 is the one-output gadget-product dot on the AVX-512 kernel:
// out = [accumulate]·out + Σ_k a[k]·b[k] mod q in [0, 2q), for at most
// MaxDotTerms rows a[k] < 2q, b[k] < q of at least len(out) words, the bytes
// of vecDotLazyGo. Without IFMA a key switch's two dots are two calls of it.
func dotLazyAVX512(m Modulus, out []uint64, a, b [][]uint64, accumulate bool) {
	n := len(out)
	if n == 0 || n%8 != 0 || len(a) == 0 {
		// No prefix/tail split here: a tail would need row headers of its
		// own, and the rows are whole polynomials (N a power of two), so a
		// ragged length only ever comes from a test.
		vecDotLazyGo(m, out, a, b, accumulate)
		return
	}
	// The assembly does its own addressing: every row must cover out.
	for k := range a {
		_, _ = a[k][n-1], b[k][n-1]
	}
	var accMask uint64
	if accumulate {
		accMask = 0xff
	}
	vecDotLazyAVX512(out, a, b[:len(a)], accMask, m.Q, m.TwoQ, m.BRedHi, m.BRedLo)
}

// fwdStageAVX512, invStageAVX512 and invFinalAVX512 run a stage on the
// assembly kernels, the Narrow ones when narrow is set, and what is left of
// less than one vector step on the Go kernel.
func fwdStageAVX512(m Modulus, a, psi, psiShoup []uint64, span int, lazy, narrow bool) {
	stageBounds(a, psi, psiShoup, span)
	if span >= 8 {
		if narrow {
			vecFwdStageNarrowAVX512(a, psi, psiShoup, span, m.Q, m.TwoQ)
		} else {
			vecFwdStageAVX512(a, psi, psiShoup, span, m.Q, m.TwoQ)
		}
		return
	}
	tw := 8 / span
	if steps := len(psi) / tw; steps > 0 {
		var exit2Q, exitQ uint64
		if span == 1 {
			exit2Q = m.TwoQ
			if !lazy {
				exitQ = m.Q
			}
		}
		if narrow {
			vecFwdTailNarrowAVX512(a, psi, psiShoup, &tailIdx[span>>1], tw, steps, m.Q, m.TwoQ, exit2Q, exitQ)
		} else {
			vecFwdTailAVX512(a, psi, psiShoup, &tailIdx[span>>1], tw, steps, m.Q, m.TwoQ, exit2Q, exitQ)
		}
		a, psi, psiShoup = a[16*steps:], psi[tw*steps:], psiShoup[tw*steps:]
	}
	if len(psi) > 0 { // less than one vector step
		vecFwdStageGo(m, a, psi, psiShoup, span, lazy)
	}
}

func invStageAVX512(m Modulus, a, psi, psiShoup []uint64, span int, narrow bool) {
	stageBounds(a, psi, psiShoup, span)
	if span >= 8 {
		if narrow {
			vecInvStageNarrowAVX512(a, psi, psiShoup, span, m.Q, m.TwoQ)
		} else {
			vecInvStageAVX512(a, psi, psiShoup, span, m.Q, m.TwoQ)
		}
		return
	}
	// The first tw·steps blocks read the last tw·steps twiddles.
	tw := 8 / span
	if steps := len(psi) / tw; steps > 0 {
		k := len(psi) - tw*steps
		if narrow {
			vecInvTailNarrowAVX512(a, psi[k:], psiShoup[k:], &tailIdx[span>>1], tw, steps, m.Q, m.TwoQ)
		} else {
			vecInvTailAVX512(a, psi[k:], psiShoup[k:], &tailIdx[span>>1], tw, steps, m.Q, m.TwoQ)
		}
		a, psi, psiShoup = a[16*steps:], psi[:k], psiShoup[:k]
	}
	if len(psi) > 0 {
		vecInvStageGo(m, a, psi, psiShoup, span)
	}
}

func invFinalAVX512(m Modulus, x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy, narrow bool) {
	n := len(x) &^ 7
	if n > 0 {
		exitQ := m.Q
		if lazy {
			exitQ = 0
		}
		if narrow {
			vecInvFinalNarrowAVX512(x[:n], y[:n], nInv, nInvShoup, w, wShoup, m.Q, m.TwoQ, exitQ)
		} else {
			vecInvFinalAVX512(x[:n], y[:n], nInv, nInvShoup, w, wShoup, m.Q, m.TwoQ, exitQ)
		}
	}
	if n < len(x) {
		vecInvFinalGo(m, x[n:], y[n:], nInv, nInvShoup, w, wShoup, lazy)
	}
}
