package modarith

import "math/bits"

// Wide-accumulation primitives for the BConv matrix product (internal/rns),
// the gadget product's dot kernel and the linear-transform sweep's diagonal
// MACs (internal/ring's AutMulAccWide stage). BConv computes, per output
// coefficient, an inner product of k terms tmp_i · qHat_i with both factors
// < 2^61. Instead of k modular multiplies and k modular additions, the terms
// are accumulated exactly as a 128-bit (hi, lo) pair and reduced once per
// output with the 128-bit Barrett reciprocal BRedHi:BRedLo = floor(2^128/q)
// that Modulus already carries.
//
// The row forms dispatch through the runtime kernel table (dispatch.go)
// like the vec.go kernels; pure-Go bodies live in wide_go.go.
//
// # Domain contracts
//
//   - Mul64AddWide / VecMulWide / VecMulAccWide / VecMulAccWideIdx take
//     arbitrary uint64 factors and perform NO reduction: the caller must
//     bound the number of accumulated products so the 128-bit pair cannot
//     overflow (with b1-bit and b2-bit factors, 2^(128-b1-b2) products always
//     fit; see rns.BasisConverter.foldEvery and ring.Lane.AutMulAccWide for
//     the guards).
//   - VecDotLazy bounds its own chain: a[k] lazy (< 2q), b[k] exact (< q) and
//     an optional lazy addend give, at MaxModulusBits = 61,
//     k·(2^62−1)(2^61−1) + 2^62 < 2^128 for k ≤ MaxDotTerms = 32. Longer sums
//     are folded every MaxDotTerms terms (the partial sum re-enters as the
//     addend), so callers never count terms.
//   - ReduceWide128 / VecReduceWide128 accept ANY 128-bit value and return
//     the exact residue in [0, q).
//   - ReduceWide128Lazy / VecReduceWide128Lazy / VecFoldWide128Lazy return
//     the lazy domain [0, 2q) (one fewer conditional subtraction), matching
//     the [0, 2q) discipline of DESIGN.md §3.8.1.

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

// VecMulWide starts an accumulation chain: (accHi[j], accLo[j]) = row[j]·w.
// No reduction; factors are arbitrary uint64.
func VecMulWide(accHi, accLo, row []uint64, w uint64) {
	active.Load().mulWide(accHi, accLo, row, w)
}

// VecMulAccWide continues an accumulation chain:
// (accHi[j], accLo[j]) += row[j]·w. No reduction; the caller bounds the
// chain length (see the package comment).
func VecMulAccWide(accHi, accLo, row []uint64, w uint64) {
	active.Load().mulAccWide(accHi, accLo, row, w)
}

// VecMulAccWideIdx continues a gather accumulation chain:
// (accHi[j], accLo[j]) += a[idx[j]]·b[j] — the NTT-domain automorphism σ
// fused into a multiply-accumulate (AutAccum) whose sum stays exact in 128
// bits. No reduction; the caller bounds the chain as for VecMulAccWide (with
// a < 2q, b < q and an addend below 2q, MaxDotTerms products always fit).
// Indices are uint32 (N ≤ 2^31): the permutation table is half the size of
// an []int one, so it displaces less of the coefficient data from cache.
func VecMulAccWideIdx(accHi, accLo, a, b []uint64, idx []uint32) {
	active.Load().mulAccWideIdx(accHi, accLo, a, b, idx)
}

// MaxDotTerms is the number of products one VecDotLazy reduction may sum: the
// largest k with k·(2q−1)(q−1) + 2q < 2^128 at MaxModulusBits.
const MaxDotTerms = 1 << (128 - 2*MaxModulusBits - 1)

// VecDotLazy is the gadget-product inner product with ONE reduction per
// output coefficient:
//
//	out[j] = [accumulate]·out[j] + Σ_k a[k][j]·b[k][j]  (mod q), in [0, 2q)
//
// for len(a) == len(b) rows of at least len(out) words, a[k] < 2q, b[k] < q
// and, when accumulate is set, out < 2q. The products and the addend are
// summed exactly as a 128-bit (hi, lo) pair held in registers and reduced
// once (ReduceWide128Lazy), where a VecMulAddLazy chain pays a Barrett
// reduction per term. Without accumulate, out is written and never read.
func (m Modulus) VecDotLazy(out []uint64, a, b [][]uint64, accumulate bool) {
	dot := active.Load().dotLazy
	for len(a) > MaxDotTerms {
		dot(m, out, a[:MaxDotTerms], b[:MaxDotTerms], accumulate)
		a, b, accumulate = a[MaxDotTerms:], b[MaxDotTerms:], true
	}
	dot(m, out, a, b, accumulate)
}

// VecFoldWide128Lazy folds each accumulator pair back into a single word:
// accLo[j] becomes the lazy residue in [0, 2q) and accHi[j] is cleared. This
// is the mid-chain overflow guard for accumulations longer than the 128-bit
// capacity; the folded value re-enters the chain as one (tiny) term.
func (m Modulus) VecFoldWide128Lazy(accHi, accLo []uint64) {
	active.Load().foldWide128Lazy(m, accHi, accLo)
}

// VecReduceWide128 reduces each accumulator pair to its exact residue:
// dst[j] = (accHi[j]:accLo[j]) mod q ∈ [0, q).
func (m Modulus) VecReduceWide128(dst, accHi, accLo []uint64) {
	active.Load().reduceWide128(m, dst, accHi, accLo)
}

// VecReduceWide128Lazy reduces each accumulator pair to the lazy domain:
// dst[j] = (accHi[j]:accLo[j]) mod q up to one multiple of q, in [0, 2q).
func (m Modulus) VecReduceWide128Lazy(dst, accHi, accLo []uint64) {
	active.Load().reduceWide128Lazy(m, dst, accHi, accLo)
}
