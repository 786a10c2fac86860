package ring

import (
	"math/big"
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

// AddScalarBig adds an arbitrarily large signed integer constant (reduced
// per limb). Needed by bootstrapping, where constants scale with q0 and
// exceed int64. In the coefficient domain this touches coefficient 0; in the
// NTT domain a constant shifts every slot, so it is added to all positions.
func (r *Ring) AddScalarBig(out, a *Poly, v *big.Int, level int) {
	r.addLimbScalars(out, a, r.LimbResidues(make([]uint64, level+1), v), level)
}

// MulScalarBig multiplies by an arbitrarily large signed integer constant
// (reduced per limb).
func (r *Ring) MulScalarBig(out, a *Poly, v *big.Int, level int) {
	r.MulByLimbScalars(out, a, r.LimbResidues(make([]uint64, level+1), v), level)
}

// LimbResidues sets res[i] = v mod q_i in [0, q_i) for the first len(res)
// limbs and returns res. Each is a Horner pass over v's words with one
// 128-by-64-bit division per word, so nothing is allocated.
func (r *Ring) LimbResidues(res []uint64, v *big.Int) []uint64 {
	// A big.Word is taken for 64 bits; a 32-bit int fails to compile here
	// (as it already does in internal/rns).
	const _ = uint(bits.UintSize - 64)
	words := v.Bits() // |v|, least significant word first
	for i := range res {
		q := r.Moduli[i].Q
		var rem uint64
		for k := len(words) - 1; k >= 0; k-- {
			_, rem = bits.Div64(rem, uint64(words[k]), q) // rem < q: no overflow
		}
		if v.Sign() < 0 && rem != 0 {
			rem = q - rem
		}
		res[i] = rem
	}
	return res
}

// addLimbScalars sets out = a + c with one residue c[i] per limb: added to
// every slot in the NTT domain, to coefficient 0 otherwise.
func (r *Ring) addLimbScalars(out, a *Poly, c []uint64, level int) {
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
