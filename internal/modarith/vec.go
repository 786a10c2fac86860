package modarith

// Vectorized kernels for the fused multiply-accumulate paths. The per-limb
// ring loops call these once per limb instead of one exported method per
// coefficient, so the reduction constants live in registers for the whole
// row and the loop body is free of call overhead regardless of inliner
// budgets.
//
// Every method below dispatches through the kernel table its Modulus
// carries (dispatch.go): one pointer picks the table (pure Go or AVX-512)
// for the whole row, so the inner loops never branch on CPU features. The
// pure-Go bodies live in vec_go.go and remain the differential oracle for
// every assembly tier.
//
// All "Lazy" kernels keep out in [0, 2q) (see MulBarrettLazy for the bound
// derivation); chains end with VecReduceTwoQ.

// VecMulShoupAddLazy computes out[j] += a[j]*w lazily for a fixed operand w
// with Shoup companion wShoup (the constant-multiply-accumulate of a fused
// CMULT+ADD ladder).
func (m Modulus) VecMulShoupAddLazy(out, a []uint64, w, wShoup uint64) {
	m.k.mulShoupAddLazy(m, out, a, w, wShoup)
}

// VecMulBarrett computes out[j] = a[j]*b[j] mod q exactly via the Barrett
// reciprocal — no hardware division in the loop, unlike the scalar Mul. This
// is the element-wise (NTT-domain) polynomial product kernel.
func (m Modulus) VecMulBarrett(out, a, b []uint64) {
	m.k.mulBarrett(m, out, a, b)
}

// VecMulAddBarrett computes out[j] = out[j] + a[j]*b[j] mod q exactly
// (out, a, b < q), keeping the Barrett constants in registers for the row.
func (m Modulus) VecMulAddBarrett(out, a, b []uint64) {
	m.k.mulAddBarrett(m, out, a, b)
}

// VecMulShoup computes out[j] = a[j]*w mod q exactly for fixed operand w with
// Shoup companion wShoup — the row form of MulShoup, used for the BConv
// premultiply tmp_i = [x · qHatInv_i]_{q_i}. a may be lazy (any a < 2^64):
// the Shoup remainder is < 2q for every a (see MulShoupLazy), so the one
// conditional subtraction still lands in [0, q).
func (m Modulus) VecMulShoup(out, a []uint64, w, wShoup uint64) {
	m.k.mulShoup(m, out, a, w, wShoup)
}

// VecSubMulShoupLazy is VecSubMulShoup for a lazy subtrahend: a < q exact,
// b < 2q lazy (e.g. straight out of NTTLazy), out exact in [0, q). The
// difference a + 2q − b lies in (0, 3q) < 2^63, where MulShoupLazy's bound
// r < q·(d/2^64 + 1) < 2q still holds, so one conditional subtraction
// finishes the job.
func (m Modulus) VecSubMulShoupLazy(out, a, b []uint64, w, wShoup uint64) {
	m.k.subMulShoupLazy(m, out, a, b, w, wShoup)
}

// VecAdd computes out[j] = a[j] + b[j] mod q exactly for a, b < q — the row
// form of Add (HADD). out may alias a or b.
func (m Modulus) VecAdd(out, a, b []uint64) {
	m.k.add(m, out, a, b)
}

// VecSub computes out[j] = a[j] - b[j] mod q exactly for a, b < q — the row
// form of Sub. out may alias a or b.
func (m Modulus) VecSub(out, a, b []uint64) {
	m.k.sub(m, out, a, b)
}

// VecAddScalar computes out[j] = a[j] + c mod q exactly, for a, c < q.
func (m Modulus) VecAddScalar(out, a []uint64, c uint64) {
	m.k.addScalar(m, out, a, c)
}

// VecRescaleStep performs the per-limb rescale update in place:
//
//	row[j] = (row[j] + halfModQ − t[j]) · w  mod q ,
//
// where row < q is the limb's residues, t holds arbitrary uint64 values
// (the [x + q_L/2]_{q_L} row, reduced mod q lazily here with a single
// Barrett partial product: for t[j] < 2^64 the raw remainder is < 4q), and
// w = q_L^{-1} mod q with Shoup companion wShoup. The inner difference
// row[j] + halfModQ + 4q − tm sits in (0, 6q) < 2^64, inside MulShoupLazy's
// any-operand domain, so a single conditional subtraction returns the exact
// residue.
func (m Modulus) VecRescaleStep(row, t []uint64, halfModQ, w, wShoup uint64) {
	m.k.rescaleStep(m, row, t, halfModQ, w, wShoup)
}

// VecReduceTwoQ maps every lazy value in [0, 2q) to its exact residue.
func (m Modulus) VecReduceTwoQ(p []uint64) {
	m.k.reduceTwoQ(m, p)
}

// VecFwdStage applies one forward (Cooley–Tukey) NTT stage to len(psi)
// consecutive twiddle blocks of a — the unit the NTT dispatches, so a tier
// pays its constant set-up once per stage rather than once per block. Block
// i is a[2·i·span : 2·(i+1)·span] with twiddle w = psi[i] (Shoup companion
// psiShoup[i]); every pair (x, y) = (a[j], a[j+span]) of it gets the Harvey
// butterfly
//
//	x' = x̃ + w·y,  y' = x̃ - w·y + 2q,  x̃ = x - 2q·[x ≥ 2q]
//
// Inputs and outputs live in [0, 4q); the twiddle product w·y lands in
// [0, 2q) via the MulShoupLazy bound for any y. span is a power of two.
// span == 1 is the last stage and folds the exit reduction in: outputs in
// [0, 2q) when lazy, [0, q) otherwise.
func (m Modulus) VecFwdStage(a, psi, psiShoup []uint64, span int, lazy bool) {
	m.k.fwdStage(m, a, psi, psiShoup, span, lazy)
}

// VecInvStage applies one inverse (Gentleman–Sande) NTT stage over the same
// block layout as VecFwdStage:
//
//	x' = (x + y) - 2q·[x+y ≥ 2q],  y' = (x - y + 2q)·w  (MulShoupLazy)
//
// Inputs and outputs live in [0, 2q) at every span.
func (m Modulus) VecInvStage(a, psi, psiShoup []uint64, span int) {
	m.k.invStage(m, a, psi, psiShoup, span)
}

// VecInvFinal runs the last inverse stage over the paired halves x and y
// (equal lengths) of the one remaining block, with the 1/N scaling fused
// into both outputs: x' = (x+y)·nInv, y' = (x-y+2q)·w, where w already
// carries the factor N^{-1}. Inputs in [0, 2q); outputs in [0, 2q) when
// lazy, [0, q) otherwise.
func (m Modulus) VecInvFinal(x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy bool) {
	m.k.invFinal(m, x, y, nInv, nInvShoup, w, wShoup, lazy)
}
