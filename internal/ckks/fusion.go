package ckks

import (
	"time"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// Fused element-wise ladders: multiply-accumulate chains run through the lazy
// single-pass ring kernels (ring.MulCoeffsAddLazy and friends, paper §V's
// fused element-wise blocks) instead of discrete multiply-then-add passes with
// temporary polynomials. Results are congruent mod q either way — fusion
// changes memory traffic and reduction strategy, not arithmetic.

// AddMany returns ct0 + ct1 + ... in a single pass per limb (the collapsed
// form of an HADD ladder).
func (ev *Evaluator) AddMany(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 0 {
		panic("ckks: AddMany needs at least one ciphertext")
	}
	if len(cts) == 1 {
		return ev.copyAt(cts[0], cts[0].Level())
	}
	defer obsAddMany.done(time.Now())
	rq := ev.params.RingQ()
	lvl := cts[0].Level()
	for _, ct := range cts[1:] {
		ev.checkScales(cts[0].Scale, ct.Scale)
		lvl = min(lvl, ct.Level())
	}
	c0s := make([]*ring.Poly, len(cts))
	c1s := make([]*ring.Poly, len(cts))
	for i, ct := range cts {
		c0s[i] = ct.C0.Truncated(lvl)
		c1s[i] = ct.C1.Truncated(lvl)
	}
	out := ev.newCiphertext(lvl, cts[0].Scale)
	rq.AddMany(out.C0, c0s, lvl)
	rq.AddMany(out.C1, c1s, lvl)
	return out
}

// MulConstAccum returns Σ_i consts[i]·cts[i], with every constant encoded at
// scale constScale (as in MultConst; callers follow with Rescale). This is
// the scheme-level PAccum/CAccum: the first term is written into the
// accumulator, every other term added onto it by one lazy
// constant-multiply-accumulate pass, and the sum reduced once — instead of
// len(cts) MultConst temporaries plus len(cts)-1 Add passes. Operands above
// the lowest level contribute their limb prefix.
func (ev *Evaluator) MulConstAccum(cts []*Ciphertext, consts []float64, constScale float64) *Ciphertext {
	if len(cts) == 0 || len(cts) != len(consts) {
		panic("ckks: MulConstAccum needs matching non-empty ciphertexts and constants")
	}
	defer obsMulConstAccum.done(time.Now())
	rq := ev.params.RingQ()
	lvl := cts[0].Level()
	for _, ct := range cts[1:] {
		ev.checkScales(cts[0].Scale, ct.Scale)
		lvl = min(lvl, ct.Level())
	}
	out := ev.newCiphertext(lvl, cts[0].Scale*constScale)
	scalars := make([]uint64, lvl+1)
	for i, ct := range cts {
		rq.ScaledResidues(scalars, consts[i], constScale)
		if i == 0 {
			rq.MulByLimbScalars(out.C0, ct.C0, scalars, lvl)
			rq.MulByLimbScalars(out.C1, ct.C1, scalars, lvl)
			continue
		}
		rq.MulByLimbScalarsAddLazy(out.C0, ct.C0, scalars, lvl)
		rq.MulByLimbScalarsAddLazy(out.C1, ct.C1, scalars, lvl)
	}
	rq.ReduceLazy(out.C0, lvl)
	rq.ReduceLazy(out.C1, lvl)
	return out
}
