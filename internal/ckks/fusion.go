package ckks

import (
	"fmt"
	"time"
)

// The scheme-level PAccum/CAccum (paper §V's fused element-wise blocks): a
// constant multiply-accumulate chain runs through the lazy single-pass ring
// kernels (ring.MulByLimbScalarsAddLazy and friends) instead of discrete
// multiply-then-add passes with temporary polynomials, and the sum is
// rescaled once. Nothing rewrites a chain into this form behind its caller's
// back: the rounding of one rescale differs from that of one rescale per
// term, so MulConstAccum runs only where it is asked for — the engine's
// lincomb op and the Chebyshev leaf. Every constant multiply (MultConst,
// the Chebyshev map, the comparator) is its one-term case.

// MulConstAccum returns Σ_i consts[i]·cts[i] rescaled: every constant is
// encoded at the prime the rescale drops, q_ℓ of the lowest operand level ℓ,
// times cts[0]'s scale over its operand's, so the result keeps cts[0]'s scale
// at level ℓ−1 and operand scales that agree only within the add tolerance
// still land on it exactly. The first term is written into the accumulator,
// every other one added onto it by one lazy constant-multiply-accumulate
// pass, and the sum reduced once — instead of len(cts) constant-product
// temporaries plus len(cts)-1 Add passes. Operands above the lowest level
// contribute their limb prefix. Mismatched lengths are an error, and so are
// ℓ = 0 (ErrLevel) and operand scales that disagree (ErrScale); all come
// before anything is borrowed.
func (ev *Evaluator) MulConstAccum(cts []*Ciphertext, consts []float64) (*Ciphertext, error) {
	if len(cts) == 0 || len(cts) != len(consts) {
		return nil, fmt.Errorf("ckks: MulConstAccum needs matching non-empty ciphertexts and constants, got %d and %d", len(cts), len(consts))
	}
	for _, ct := range cts {
		if ct.Level() == 0 {
			return nil, errLevelZero
		}
	}
	if err := CheckScales(cts...); err != nil {
		return nil, err
	}
	return ev.mulConstAccum(cts, consts, cts[0].Scale), nil
}

// mulConstAccum is MulConstAccum for operands above level 0, declared to
// land at scale: term i is encoded at q_ℓ·(scale/cts[i].Scale), so the sum
// rescales to exactly scale. Summing callers pass cts[0].Scale; a single
// constant multiply passes the scale it wants its product at, and skips the
// closing reduction, as its one product is already exact.
func (ev *Evaluator) mulConstAccum(cts []*Ciphertext, consts []float64, scale float64) *Ciphertext {
	start := time.Now()
	rq := ev.params.RingQ()
	lvl := cts[0].Level()
	for _, ct := range cts[1:] {
		ev.checkScales(cts[0].Scale, ct.Scale)
		lvl = min(lvl, ct.Level())
	}
	q := float64(rq.Moduli[lvl].Q)
	out := ev.newCiphertext(lvl, scale*q)
	scalars := make([]uint64, lvl+1)
	for i, ct := range cts {
		rq.ScaledResidues(scalars, consts[i], q*(scale/ct.Scale))
		if i == 0 {
			rq.MulByLimbScalars(out.C0, ct.C0, scalars, lvl)
			rq.MulByLimbScalars(out.C1, ct.C1, scalars, lvl)
			continue
		}
		rq.MulByLimbScalarsAddLazy(out.C0, ct.C0, scalars, lvl)
		rq.MulByLimbScalarsAddLazy(out.C1, ct.C1, scalars, lvl)
	}
	if len(cts) > 1 {
		rq.ReduceLazy(out.C0, lvl)
		rq.ReduceLazy(out.C1, lvl)
	}
	obsMulConstAccum.done(start)
	return ev.rescaleOwned(out)
}
