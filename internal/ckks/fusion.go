package ckks

import (
	"math/big"
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
		return cts[0].CopyNew()
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
	out := &Ciphertext{C0: rq.NewPoly(lvl), C1: rq.NewPoly(lvl), Scale: cts[0].Scale}
	rq.AddMany(out.C0, c0s, lvl)
	rq.AddMany(out.C1, c1s, lvl)
	return out
}

// MulConstAccum returns Σ_i consts[i]·cts[i], with every constant encoded at
// scale constScale (as in MultConst; callers follow with Rescale). This is
// the scheme-level PAccum/CAccum: one lazy accumulator per component and
// len(cts) constant-multiply-accumulate passes, instead of len(cts) MultConst
// temporaries plus len(cts)-1 Add passes.
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
	acc0, acc1 := rq.NewPoly(lvl), rq.NewPoly(lvl)
	scalars := make([]uint64, lvl+1)
	for i, ct := range cts {
		k := bigScaled(big.NewFloat(consts[i]), constScale)
		for l := 0; l <= lvl; l++ {
			scalars[l] = new(big.Int).Mod(k, new(big.Int).SetUint64(rq.Moduli[l].Q)).Uint64()
		}
		rq.MulByLimbScalarsAddLazy(acc0, ct.C0.Truncated(lvl), scalars, lvl)
		rq.MulByLimbScalarsAddLazy(acc1, ct.C1.Truncated(lvl), scalars, lvl)
	}
	rq.ReduceLazy(acc0, lvl)
	rq.ReduceLazy(acc1, lvl)
	acc0.IsNTT, acc1.IsNTT = true, true
	return &Ciphertext{C0: acc0, C1: acc1, Scale: cts[0].Scale * constScale}
}
