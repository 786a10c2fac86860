package modarith

import (
	"fmt"
	"math/bits"
)

// Wide-accumulation primitives for the BConv matrix product (internal/rns),
// the gadget product's dot kernel and the linear-transform sweep's diagonal
// MACs (internal/ring's AutMulAccWide stage). BConv computes, per output
// coefficient, an inner product of k terms tmp_i · qHat_i with both factors
// < 2^61. Instead of k modular multiplies and k modular additions, the terms
// are accumulated exactly as a 128-bit (hi, lo) pair and reduced once per
// output with the 128-bit Barrett reciprocal BRedHi:BRedLo = floor(2^128/q)
// that Modulus already carries.
//
// The row forms dispatch through the Modulus's kernel table (dispatch.go)
// like the vec.go kernels; pure-Go bodies live in wide_go.go.
//
// # Domain contracts
//
//   - Mul64AddWide, the tables' mulWide / mulAccWide and VecMulAccWidePerm take
//     arbitrary uint64 factors and perform NO reduction: the caller must
//     bound the number of accumulated products so the 128-bit pair cannot
//     overflow (with b1-bit and b2-bit factors, 2^(128-b1-b2) products always
//     fit; see rns.BasisConverter.foldEvery and ring.Lane.AutMulAccWide for
//     the guards).
//   - VecDotKeyLazy bounds its own chains: a[k] lazy (< 2q), b[k] and u[k]
//     exact (< q) and an optional lazy addend give, at MaxModulusBits = 61,
//     k·(2^62−1)(2^61−1) + 2^62 < 2^128 for k ≤ MaxDotTerms = 32. Longer sums
//     are folded every MaxDotTerms terms (the partial sum re-enters as the
//     addend), so callers never count terms.
//   - VecConvertRow and VecConvertRows bound their own chain: the caller
//     passes the fold bound (rns.BasisConverter.foldEvery) and the kernel
//     folds at it, in every table at the same terms, so the lazy outputs
//     agree word for word.
//   - ReduceWide128 / VecReduceWide128 accept ANY 128-bit value and return
//     the exact residue in [0, q).
//   - ReduceWide128Lazy, VecFoldWide128Lazy and the tables'
//     reduceWide128Lazy return the lazy domain [0, 2q) (one fewer
//     conditional subtraction), matching the [0, 2q) discipline of
//     DESIGN.md §3.8.1.

// Mul64AddWide returns (hi, lo) + a·b as a 128-bit pair. The caller is
// responsible for the no-overflow bound on the accumulation chain.
func Mul64AddWide(a, b, hi, lo uint64) (uint64, uint64) {
	phi, plo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, plo, 0)
	hi, _ = bits.Add64(hi, phi, carry)
	return hi, lo
}

// ReduceWide128Lazy reduces a 128-bit value hi:lo to [0, 2q). The quotient
// approximation is the same three-partial-product sum as MulBarrettLazy and
// its bound derivation holds for any x < 2^128: the raw remainder is in
// [0, 4q), and one conditional 2q-subtraction lands in [0, 2q).
func (m Modulus) ReduceWide128Lazy(hi, lo uint64) uint64 {
	t := hi * m.BRedHi
	hhi, _ := bits.Mul64(lo, m.BRedHi)
	t += hhi
	hhi, _ = bits.Mul64(hi, m.BRedLo)
	t += hhi
	r := lo - t*m.Q
	if r >= m.TwoQ {
		r -= m.TwoQ
	}
	return r
}

// ReduceWide128 reduces a 128-bit value hi:lo to its exact residue in [0, q).
func (m Modulus) ReduceWide128(hi, lo uint64) uint64 {
	r := m.ReduceWide128Lazy(hi, lo)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MaxDotTerms is the number of products one dot reduction may sum: the
// largest k with k·(2q−1)(q−1) + 2q < 2^128 at MaxModulusBits.
const MaxDotTerms = 1 << (128 - 2*MaxModulusBits - 1)

// VecDotKeyLazy is the two inner products of a gadget product against one
// switching key, out of one pass over the digit rows a, with ONE reduction
// per output coefficient:
//
//	outB = [accB]·outB + Σ_k a[k]·b[k]  (mod q), in [0, 2q)
//	outA = [accA]·outA + Σ_k a[k]·u[k]  (mod q), in [0, 2q)
//
// for len(a) rows a[k] < 2q and as many b[k], u[k] < q, each of at least
// len(outB) words; len(outA) ≥ len(outB) words are written, and an output
// whose flag is set is read as an addend < 2q (otherwise it is written and
// never read). Each sum's products and addend are summed exactly as a
// 128-bit (hi, lo) pair and reduced once (ReduceWide128Lazy), where a
// VecMulAddBarrett chain pays a Barrett reduction per term. Each a[k] word is
// loaded and split once for both sums.
func (m Modulus) VecDotKeyLazy(outB, outA []uint64, a, b, u [][]uint64, accB, accA bool) {
	dot := m.k.dotKeyLazy
	for len(a) > MaxDotTerms {
		dot(m, outB, outA, a[:MaxDotTerms], b[:MaxDotTerms], u[:MaxDotTerms], accB, accA)
		a, b, u, accB, accA = a[MaxDotTerms:], b[MaxDotTerms:], u[MaxDotTerms:], true, true
	}
	dot(m, outB, outA, a, b, u, accB, accA)
}

// VecFoldWide128Lazy folds each accumulator pair back into a single word:
// accLo[j] becomes the lazy residue in [0, 2q) and accHi[j] is cleared. This
// is the mid-chain overflow guard for accumulations longer than the 128-bit
// capacity; the folded value re-enters the chain as one (tiny) term.
func (m Modulus) VecFoldWide128Lazy(accHi, accLo []uint64) {
	m.k.foldWide128Lazy(m, accHi, accLo)
}

// VecReduceWide128 reduces each accumulator pair to its exact residue:
// dst[j] = (accHi[j]:accLo[j]) mod q ∈ [0, q).
func (m Modulus) VecReduceWide128(dst, accHi, accLo []uint64) {
	m.k.reduceWide128(m, dst, accHi, accLo)
}

// ConvertTile is the coefficient-tile width of the tiled row conversion, and
// the length of the accumulator scratch VecConvertRow takes: the tables
// without IFMA accumulate a tile's 128-bit sums as a ConvertTile-word row of
// high words next to the output tile's low words, both L1-resident while the
// source tiles stream past (4 KiB against the 32–64 KiB of a core's L1d).
// The IFMA kernel holds its sums in registers and leaves the scratch unused.
const ConvertTile = 256

// ConvRow is one output row of a base conversion,
//
//	out[j] = Σ_k rows[k][j]·w[k]  mod q ,
//
// with its terms classified once, at construction, for the 52-bit
// multiply-adds: a term whose source row and constant both fit 52 bits costs
// the IFMA kernel two of them, any other term seven (see IFMA_TERM in
// vec_avx512_amd64.s). The classification picks instructions, never values:
// every table computes the same exact 128-bit sums.
type ConvRow struct {
	terms []convTerm
	wide  bool // some term is wide
}

// convTerm is one term of a ConvRow, laid out for the assembly: 24 bytes,
// the stride of the row headers, so one offset walks both.
type convTerm struct {
	w    uint64 // the constant
	w1   uint64 // w >> 52, the constant's high limb in radix 2^52
	wide uint64 // 0 when the source row and w both fit 52 bits
}

// NewConvRow returns the conversion row with constants w[k] over source rows
// holding residues of from[k], exact or lazy (below 2·from[k].Q).
func NewConvRow(from []Modulus, w []uint64) ConvRow {
	if len(from) != len(w) {
		panic("modarith: NewConvRow needs one constant per source modulus")
	}
	c := ConvRow{terms: make([]convTerm, len(w))}
	for k, x := range w {
		c.terms[k] = convTerm{w: x, w1: x >> 52, wide: 1}
		if from[k].Q < narrowModulus && x < 1<<52 {
			c.terms[k].wide = 0
		}
		c.wide = c.wide || c.terms[k].wide != 0
	}
	return c
}

// VecConvertRow sets out to the conversion row c over rows, one source row
// per term, each at least len(out) words and below twice its modulus:
//
//	out[j] = Σ_k rows[k][j]·w[k]  mod q ,
//
// exact in [0, q), or with lazy in [0, 2q). The products are summed exactly
// in 128 bits and reduced once per coefficient; every fold terms (fold ≥ 2,
// the most products the 128-bit sum may take) the sum is folded to [0, 2q)
// and re-enters as one term. hi is accumulator scratch of at least
// min(len(out), ConvertTile) words. out must alias neither rows nor hi; only
// rows and c are read, so concurrent calls may share them.
func (m Modulus) VecConvertRow(out []uint64, rows [][]uint64, c *ConvRow, fold int, lazy bool, hi []uint64) {
	if len(rows) != len(c.terms) || len(rows) == 0 {
		panic(fmt.Sprintf("modarith: VecConvertRow has %d source rows for %d terms", len(rows), len(c.terms)))
	}
	if fold < 2 {
		panic(fmt.Sprintf("modarith: VecConvertRow fold bound %d makes no progress", fold))
	}
	if len(out) == 0 {
		return
	}
	_ = hi[min(len(out), ConvertTile)-1]
	m.k.convertRow(m.k, m, out, rows, c, fold, lazy, hi)
}

// ConvertGroup is the most target rows the IFMA kernel converts per pass over
// the source rows, a register budget: each target's 128-bit sum of an 8-word
// vector takes three accumulator registers, and four targets' twelve leave the
// source words, the close's scratch and its constants the rest of the 32.
// VecConvertRows takes any number of targets and hands the kernel at most
// this many at a time.
const ConvertGroup = 4

// VecConvertRows sets outs[t] to the conversion row cs[js[t]] onto
// ms[js[t]] over rows, for every t: the words VecConvertRow sets, exact or
// lazy alike, with one pass over the source rows per ConvertGroup targets
// where VecConvertRow takes one per target. The outs are of one length and
// alias neither rows, hi nor each other; js may list any targets of cs, in
// any order. The other arguments are VecConvertRow's. The kernels are those
// of ms[js[0]]'s table.
func VecConvertRows(outs [][]uint64, ms []Modulus, cs []ConvRow, js []int, rows [][]uint64, fold int, lazy bool, hi []uint64) {
	if len(outs) != len(js) {
		panic(fmt.Sprintf("modarith: VecConvertRows has %d outputs for %d targets", len(outs), len(js)))
	}
	if len(js) == 0 {
		return
	}
	n := len(outs[0])
	for t, j := range js {
		if len(outs[t]) != n {
			panic(fmt.Sprintf("modarith: VecConvertRows output %d has length %d, want %d", t, len(outs[t]), n))
		}
		if len(rows) != len(cs[j].terms) || len(rows) == 0 {
			panic(fmt.Sprintf("modarith: VecConvertRows has %d source rows for %d terms", len(rows), len(cs[j].terms)))
		}
	}
	if fold < 2 {
		panic(fmt.Sprintf("modarith: VecConvertRows fold bound %d makes no progress", fold))
	}
	if n == 0 {
		return
	}
	_ = hi[min(n, ConvertTile)-1]
	t := ms[js[0]].k
	t.convertRows(t, outs, ms, cs, js, rows, fold, lazy, hi)
}
