package ring

import "math/big"

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
		mod := r.Moduli[i]
		oa, ob, oo := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oo {
			oo[j] = mod.Add(oa[j], ob[j])
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 3, level+1, r.N)
}

// Sub sets out = a - b.
func (r *Ring) Sub(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		oa, ob, oo := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range oo {
			oo[j] = mod.Sub(oa[j], ob[j])
		}
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
		sr := s[i]
		srs := mod.ShoupPrecomp(sr)
		oa, oo := a.Coeffs[i], out.Coeffs[i]
		for j := range oo {
			oo[j] = mod.MulShoup(oa[j], sr, srs)
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
}

// AddScalarBig adds an arbitrarily large signed integer constant (reduced
// per limb). Needed by bootstrapping, where constants scale with q0 and
// exceed int64. Domain handling matches AddScalarInt.
func (r *Ring) AddScalarBig(out, a *Poly, v *big.Int, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		c := new(big.Int).Mod(v, new(big.Int).SetUint64(mod.Q)).Uint64()
		oa, oo := a.Coeffs[i], out.Coeffs[i]
		if a.IsNTT {
			for j := range oo {
				oo[j] = mod.Add(oa[j], c)
			}
		} else {
			copy(oo, oa)
			oo[0] = mod.Add(oa[0], c)
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
}

// MulScalarBig multiplies by an arbitrarily large signed integer constant
// (reduced per limb).
func (r *Ring) MulScalarBig(out, a *Poly, v *big.Int, level int) {
	s := make([]uint64, level+1)
	for i := 0; i <= level; i++ {
		s[i] = new(big.Int).Mod(v, new(big.Int).SetUint64(r.Moduli[i].Q)).Uint64()
	}
	r.MulByLimbScalars(out, a, s, level)
}

// AddScalarInt adds a signed integer constant to the polynomial's constant
// term representation: in the coefficient domain this touches coefficient 0;
// in the NTT domain a constant shifts every slot, so it is added to all
// positions.
func (r *Ring) AddScalarInt(out, a *Poly, v int64, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		c := mod.FromCentered(v)
		oa, oo := a.Coeffs[i], out.Coeffs[i]
		if a.IsNTT {
			for j := range oo {
				oo[j] = mod.Add(oa[j], c)
			}
		} else {
			copy(oo, oa)
			oo[0] = mod.Add(oa[0], c)
		}
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesElemwise, 2, level+1, r.N)
}
