package ring

import (
	"math"
	"math/bits"
)

// Limb-wise ring operations. Each is a one-stage chain on the limb pipeline
// (pipeline.go) over limbs 0..level — the same executor, parallel dispatch,
// limb-transform counters and traffic model as the multi-stage chains, just
// with one stage. out may alias any input unless stated otherwise. Domain
// flags follow the first input; element-wise operations are valid in either
// domain (they are coefficient-wise in both).

// run records one chain over limbs 0..level of r with rec and executes it.
func (r *Ring) run(level int, rec func(ln *Lane)) {
	pl := GetPipeline()
	rec(pl.Lane(r, level))
	pl.Run()
	pl.Release()
}

// Add sets out = a + b.
func (r *Ring) Add(out, a, b *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.Add(out, a, b) })
}

// Sub sets out = a - b.
func (r *Ring) Sub(out, a, b *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.Sub(out, a, b) })
}

// Neg sets out = -a.
func (r *Ring) Neg(out, a *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.Neg(out, a) })
}

// MulCoeffs sets out = a ⊙ b (element-wise product). In the NTT domain this
// is the ring product. Runs on the Barrett-reciprocal row kernel — no
// hardware division per coefficient.
func (r *Ring) MulCoeffs(out, a, b *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.MulCoeffs(out, a, b) })
}

// MulCoeffsAdd sets out += a ⊙ b.
func (r *Ring) MulCoeffsAdd(out, a, b *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.MulCoeffsAdd(out, a, b) })
}

// MulByLimbScalars sets out[i] = a[i] * s[i] where s carries one scalar per
// limb (already reduced). Used for gadget factors and rescaling constants.
func (r *Ring) MulByLimbScalars(out, a *Poly, s []uint64, level int) {
	r.run(level, func(ln *Lane) { ln.MulByLimbScalars(out, a, s) })
}

// MulByLimbScalarsAddLazy sets out += a * s[i] per limb (s already reduced),
// keeping out in the lazy [0, 2q) domain: the constant-multiply-accumulate
// step of a CMULT+ADD ladder, whose chain must end with ReduceLazy before an
// exact kernel sees out.
func (r *Ring) MulByLimbScalarsAddLazy(out, a *Poly, s []uint64, level int) {
	r.run(level, func(ln *Lane) { ln.MulByLimbScalarsAddLazy(out, a, s) })
}

// ReduceLazy normalizes a lazy accumulator from [0, 2q) back to exact
// residues in [0, q).
func (r *Ring) ReduceLazy(p *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.ReduceLazy(p) })
}

// NTT transforms p in place to the NTT domain (all limbs up to level).
func (r *Ring) NTT(p *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.NTT(p) })
}

// INTT transforms p in place back to the coefficient domain.
func (r *Ring) INTT(p *Poly, level int) {
	r.run(level, func(ln *Lane) { ln.INTT(p) })
}

// INTTLimb inverse-transforms one row of limb i in place, for the callers
// that need a single row out of the NTT domain: the dropped prime of rescale
// and of modDownRescale, and ModRaise's q0 row. A limb prefix goes through
// INTT. It is the one transform outside a pipeline chain, so it charges the
// counters itself.
func (r *Ring) INTTLimb(row []uint64, i int) {
	r.Tables[i].Inverse(row)
	r.inttLimbs.Add(1)
	accountWords(bytesMoved, 2*r.N)
}

// ScaledResidues sets res[i] = round(c·scale) mod q_i in [0, q_i) for the
// first len(res) limbs, rounding half away from zero, and returns res. It is
// how a real constant becomes a ring scalar: bootstrapping's constants scale
// with q0 and exceed int64, but c·scale is exact as the 106-bit product of the
// two 53-bit mantissas times a power of two, so word arithmetic suffices — a
// rounded right shift of the product when the exponent is negative, a
// multiplication by 2^e mod q_i when it is not. Nothing is allocated.
func (r *Ring) ScaledResidues(res []uint64, c, scale float64) []uint64 {
	if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic("ring: ScaledResidues of a non-finite value")
	}
	fc, ec := math.Frexp(math.Abs(c))
	fs, es := math.Frexp(math.Abs(scale))
	// |c·scale| = hi·2^64 + lo, times 2^e.
	hi, lo := bits.Mul64(uint64(fc*(1<<53)), uint64(fs*(1<<53)))
	e := ec + es - 106
	if e < 0 {
		if k := uint(-e); k > 106 {
			hi, lo = 0, 0 // hi·2^64 + lo < 2^106: below 1/2, rounds to 0
		} else {
			// Add half an output unit, then shift the 128-bit sum right by k.
			var carry uint64
			if k <= 64 {
				lo, carry = bits.Add64(lo, 1<<(k-1), 0)
				hi += carry
			} else {
				hi += 1 << (k - 65)
			}
			if k >= 64 {
				hi, lo = 0, hi>>(k-64)
			} else {
				hi, lo = hi>>k, lo>>k|hi<<(64-k)
			}
		}
		e = 0
	}
	neg := (c < 0) != (scale < 0)
	for i := range res {
		mod := r.Moduli[i]
		_, v := bits.Div64(hi%mod.Q, lo, mod.Q)
		if e > 0 {
			v = mod.Mul(v, mod.Pow(2, uint64(e)))
		}
		if neg {
			v = mod.Neg(v)
		}
		res[i] = v
	}
	return res
}

// AddLimbScalars sets out = a + c with one residue c[i] per limb, added to
// every slot of the NTT-domain a.
func (r *Ring) AddLimbScalars(out, a *Poly, c []uint64, level int) {
	r.run(level, func(ln *Lane) { ln.AddLimbScalars(out, a, c) })
}
