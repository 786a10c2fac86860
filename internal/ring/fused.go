package ring

// Fused multiply-accumulate kernels with lazy (2q) reduction. These execute
// the collapsed element-wise blocks produced by the fusion passes (paper §V):
// a PAccum/CAccum chain becomes repeated *AddLazy calls into one accumulator
// held in [0, 2q). AutAccum — the NTT-domain automorphism permutation and the
// multiply-accumulate in a single pass — is the pipeline's AutMulAccWide
// stage (pipeline.go), which sums in 128 bits and reduces once.
//
// Protocol: accumulator limbs hold lazy values in [0, 2q) between calls;
// the chain must end with ReduceLazy before the polynomial is handed to any
// exact kernel (Add, NTT, serialization, ...). Inputs other than the
// accumulator must be exact residues (< q).

// MulCoeffsAddLazy sets out += a ⊙ b, keeping out in the lazy [0, 2q)
// domain. Single pass over each limb: one Barrett product and one lazy add
// per coefficient, no hardware division, no temporary polynomial.
func (r *Ring) MulCoeffsAddLazy(out, a, b *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecMulAddLazy(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	accountRows(bytesMac, 4, level+1, r.N)
}

// MulByLimbScalarsAddLazy sets out += a * s[i] per limb (s already reduced),
// keeping out lazy. This is the constant-multiply-accumulate step of a fused
// CMULT+ADD (CAccum) ladder; the scalar product uses the Shoup trick with
// the correction deferred to ReduceLazy.
func (r *Ring) MulByLimbScalarsAddLazy(out, a *Poly, s []uint64, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		mod.VecMulShoupAddLazy(out.Coeffs[i], a.Coeffs[i], s[i], mod.ShoupPrecomp(s[i]))
	})
	accountRows(bytesMac, 3, level+1, r.N)
}

// SubMulByLimbScalarsLazy sets out = (a - b) * s[i] per limb in a single
// pass (the fused ModDownEp epilogue of Table II: the subtraction and the
// P^{-1} scaling share one traversal). b may hold [0, 2q) values (e.g.
// straight out of NTTLazy on a lazily converted row), a must be exact, out is
// exact, so the epilogue consumes the lazy BConv-NTT chain without an
// intermediate reduction pass.
func (r *Ring) SubMulByLimbScalarsLazy(out, a, b *Poly, s []uint64, level int) {
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		mod.VecSubMulShoupLazy(out.Coeffs[i], a.Coeffs[i], b.Coeffs[i], s[i], mod.ShoupPrecomp(s[i]))
	})
	out.IsNTT = a.IsNTT
	accountRows(bytesMac, 3, level+1, r.N)
}

// ReduceLazy normalizes a lazy accumulator from [0, 2q) back to exact
// residues in [0, q). Every MulCoeffsAddLazy/MulByLimbScalarsAddLazy chain
// must end here.
func (r *Ring) ReduceLazy(p *Poly, level int) {
	forEachLimb(level, func(i int) {
		r.Moduli[i].VecReduceTwoQ(p.Coeffs[i])
	})
	accountRows(bytesReduce, 2, level+1, r.N)
}
