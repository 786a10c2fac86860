package ring

import (
	"math"
	"math/bits"
)

// Limb-wise ring operations. All operate on limbs 0..level and write into
// out, which may alias either input. Domain flags are propagated from the
// first input; element-wise operations are valid in either domain (they are
// coefficient-wise in both).
//
// Every loop body touches only its own limb, so the loops are spread over
// the shared worker pool (forEachLimb) once the limb count crosses the
// parallel threshold — the same pattern as the per-limb NTT batches.

// Add sets out = a + b.
func (r *Ring) Add(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecAdd(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 3, level+1, r.N)
}

// Sub sets out = a - b.
func (r *Ring) Sub(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecSub(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 3, level+1, r.N)
}

// Neg sets out = -a.
func (r *Ring) Neg(out, a *Poly, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		oa, oo := a.Coeffs[i], out.Coeffs[i]
		for j := range oo {
			oo[j] = mod.Neg(oa[j])
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
}

// MulCoeffs sets out = a ⊙ b (element-wise product). In the NTT domain this
// is the ring product. Runs on the Barrett-reciprocal row kernel — no
// hardware division per coefficient.
func (r *Ring) MulCoeffs(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecMulBarrett(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesMac, 3, level+1, r.N)
}

// MulCoeffsAdd sets out += a ⊙ b.
func (r *Ring) MulCoeffsAdd(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecMulAddBarrett(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	accountRows(bytesMac, 4, level+1, r.N)
}

// MulByLimbScalars sets out[i] = a[i] * s[i] where s carries one scalar per
// limb (already reduced). Used for gadget factors and rescaling constants.
func (r *Ring) MulByLimbScalars(out, a *Poly, s []uint64, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		mod.VecMulShoup(out.Coeffs[i], a.Coeffs[i], s[i], mod.ShoupPrecomp(s[i]))
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
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

// AddLimbScalars sets out = a + c with one residue c[i] per limb: added to
// every slot in the NTT domain, to coefficient 0 otherwise.
func (r *Ring) AddLimbScalars(out, a *Poly, c []uint64, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		oa, oo := a.Coeffs[i], out.Coeffs[i]
		if a.IsNTT {
			mod.VecAddScalar(oo, oa, c[i])
		} else {
			copy(oo, oa)
			oo[0] = mod.Add(oa[0], c[i])
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
}
