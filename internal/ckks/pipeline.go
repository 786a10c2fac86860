package ckks

import (
	"time"

	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// The evaluator's hot chains — the gadget-product inner loop of key
// switching, the ModDown tails (plain, rotation, and merged with the
// rescale), rescaling, and the linear-transform sweep blocks — record their
// per-limb kernel chains into a ring.Pipeline and execute the whole chain
// limb-by-limb under a single barrier, instead of one barriered
// full-polynomial sweep per kernel. The stage bodies are the same row kernels
// the barriered ring ops dispatch, in the same per-limb order, so the results
// are bit-identical to the barriered exact composition on every kernel tier
// (oracle_test.go asserts this byte for byte at every level); only the memory
// traffic changes. DESIGN.md §3.8.4 documents the discipline.

// recordGadgetMACs records the KeyMult chain of one gadget product into the
// two lanes: every digit's forward NTT (first consumer only — the
// decomposition leaves the base-converted rows in the coefficient domain; the
// digit's own Q limbs are already NTT rows and are skipped), then one dot stage
// per accumulator, u = Σ_d digit_d ⊙ key_d, which sums the D products of a
// coefficient in a 128-bit register pair and reduces once. The B side reads
// the key's stored rows; the A side expands them from the key's seed, tile by
// tile, inside the one dot stage per lane that also runs the B side
// (DotKeyLazy). A limb's D digit rows are
// transformed and consumed by both of its dot stages while still
// cache-resident. The accumulators are left lazy. An accumulator is
// overwritten, so it need not be initialised, unless the product is to be
// added onto what it holds: onto0 asks that of u0 over Q ∪ P (the sweep's
// giant step lands on T0), ontoQ of both Q halves (HMULT's P-scaled tensor
// terms, which vanish mod every p_j).
func (ev *Evaluator) recordGadgetMACs(lq, lp *ring.Lane, dec *decomposed, swk *SwitchingKey, u0q, u1q, u0p, u1p *ring.Poly, onto0, ontoQ bool) {
	if dec.coeffDomain {
		for d := range dec.q {
			lo, hi := dec.plan.digitLimbs(d)
			lq.NTTLazyExcept(dec.q[d], lo, hi)
			lp.NTTLazy(dec.p[d])
		}
		dec.coeffDomain = false
	}
	n := len(dec.q) // a key serves lower levels with a prefix of its digits
	a := swk.uniformKey()
	lq.DotKeyLazy(u0q, u1q, dec.q, swk.BQ[:n], a, 0, onto0 || ontoQ, ontoQ)
	lp.DotKeyLazy(u0p, u1p, dec.p, swk.BP[:n], a, 1, onto0, false)
}

// gadgetProductInto is the KeyMult/MAC of a key switch as one pipeline Run:
// the digit NTTs and dot stages of recordGadgetMACs, ending with the four
// accumulator reductions — one barrier instead of 2·digits NTTs + 4 dots + 4
// reductions. Accumulators must be NTT-flagged polynomials; those onto0 /
// ontoQ name are added onto (their exact or lazy values are read), the others
// only written.
func (ev *Evaluator) gadgetProductInto(dec *decomposed, swk *SwitchingKey, u0q, u1q, u0p, u1p *ring.Poly, onto0, ontoQ bool) {
	defer obsKSKeyMult.done(time.Now())
	pipe := ring.GetPipeline()
	lq := pipe.Lane(ev.params.RingQ(), dec.level)
	lp := pipe.Lane(ev.params.RingP(), ev.params.RingP().MaxLevel())
	ev.recordGadgetMACs(lq, lp, dec, swk, u0q, u1q, u0p, u1p, onto0, ontoQ)
	lq.ReduceLazy(u0q)
	lq.ReduceLazy(u1q)
	lp.ReduceLazy(u0p)
	lp.ReduceLazy(u1p)
	pipe.Run()
	pipe.Release()
}

// pToQ is the head every ModDown tail shares: one Run inverse-transforms both
// P halves in place — the accumulators u0p/u1p are CONSUMED, every caller
// releases them right after the tail, so no defensive copy pass is paid — and
// the two cross-limb base conversions (which tile internally) take them onto
// Q_lvl through bc, exact. A nil u1p (the sweep's one-component ModDown)
// converts u0p alone and returns a nil conv1. The caller returns conv0/conv1
// with PutPoly.
func (ev *Evaluator) pToQ(bc *rns.BasisConverter, u0p, u1p *ring.Poly, lvl int) (conv0, conv1 *ring.Poly) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	pipe := ring.GetPipeline()
	lnP := pipe.Lane(rp, rp.MaxLevel())
	lnP.INTT(u0p)
	if u1p != nil {
		lnP.INTT(u1p)
	}
	pipe.Run()
	pipe.Release()

	conv0 = rq.GetPoly(lvl)
	bc.Convert(conv0.Coeffs, u0p.Coeffs)
	if u1p != nil {
		conv1 = rq.GetPoly(lvl)
		bc.Convert(conv1.Coeffs, u1p.Coeffs)
	}
	return conv0, conv1
}

// modDown is the sweep's giant-step ModDown (the ModDownEp compound
// instruction of Table II): a Q-basis polynomial at uq's level,
// out_i = (uq_i − BConv(up)_i)·[P⁻¹]_{q_i} + add_i, the exact Q-basis term add
// (nil adds nothing) riding the same chain. After pToQ, which consumes up,
// one Run transforms each converted row, subtracts it, scales and adds while
// the row is cache-resident.
func (ev *Evaluator) modDown(uq, up, add *ring.Poly, lvl int) *ring.Poly {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	conv, _ := ev.pToQ(ev.pToQConverter(lvl), up, nil, lvl)

	out := getNTT(rq, lvl)
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl)
	ln.NTTLazy(conv)
	ln.SubMulByLimbScalarsLazy(out, uq, conv, ev.pInvModQ[:lvl+1])
	if add != nil {
		ln.Add(out, out, add)
	}
	pipe.Run()
	pipe.Release()

	rq.PutPoly(conv)
	return out
}

// modDownPair runs both ModDowns of a key switch: after pToQ, one Run fuses
// each Q-side NTTLazy with the SubMul epilogue consuming it — the converted
// rows are transformed and subtracted while cache-resident.
func (ev *Evaluator) modDownPair(u0q, u0p, u1q, u1p *ring.Poly, lvl int) (d0, d1 *ring.Poly) {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	conv0, conv1 := ev.pToQ(ev.pToQConverter(lvl), u0p, u1p, lvl)

	d0, d1 = getNTT(rq, lvl), getNTT(rq, lvl)
	s := ev.pInvModQ[:lvl+1]
	pipe := ring.GetPipeline()
	lnQ := pipe.Lane(rq, lvl)
	lnQ.NTTLazy(conv0)
	lnQ.SubMulByLimbScalarsLazy(d0, u0q, conv0, s)
	lnQ.NTTLazy(conv1)
	lnQ.SubMulByLimbScalarsLazy(d1, u1q, conv1, s)
	pipe.Run()
	pipe.Release()

	rq.PutPoly(conv0)
	rq.PutPoly(conv1)
	return d0, d1
}

// modDownAut is modDownPair with the automorphism tail of a rotation fused
// into the final Run: o0 = σ_g(ModDown(u0) + c0),
// o1 = σ_g(ModDown(u1)). The sum-then-permute is recorded as the fused
// AddAutomorphismNTT stage (bit-identical because the sum is element-wise),
// so the rotation epilogue moves each row once instead of four times.
func (ev *Evaluator) modDownAut(u0q, u0p, u1q, u1p, c0 *ring.Poly, g uint64, lvl int) (o0, o1 *ring.Poly) {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	conv0, conv1 := ev.pToQ(ev.pToQConverter(lvl), u0p, u1p, lvl)

	d0, d1 := rq.GetPoly(lvl), rq.GetPoly(lvl)
	o0, o1 = rq.GetPoly(lvl), rq.GetPoly(lvl)
	s := ev.pInvModQ[:lvl+1]
	pipe := ring.GetPipeline()
	lnQ := pipe.Lane(rq, lvl)
	lnQ.NTTLazy(conv0)
	lnQ.SubMulByLimbScalarsLazy(d0, u0q, conv0, s)
	lnQ.AddAutomorphismNTT(o0, d0, c0, g)
	lnQ.NTTLazy(conv1)
	lnQ.SubMulByLimbScalarsLazy(d1, u1q, conv1, s)
	lnQ.AutomorphismNTT(o1, d1, g)
	pipe.Run()
	pipe.Release()

	rq.PutPoly(conv0)
	rq.PutPoly(conv1)
	rq.PutPoly(d0)
	rq.PutPoly(d1)
	return o0, o1
}

// modDownRescale is the merged tail of HMULT and of the linear-transform
// sweep: it turns the gadget product's (u0, u1) over Q_ℓ ∪ P plus the exact
// Q-basis terms add0/add1 (nil adds nothing) straight into the pair rescaled
// to level ℓ − 1, o_k = Rescale(ModDown(u_k) + add_k), without forming the
// level-ℓ pair. With u′ = u + P·add over Q (P·add vanishes mod every p_j, so
// the P half is untouched) the ModDown row is (u′_i − NTT(conv_i))·P⁻¹,
// conv = BConv_{P→Q}(INTT(u_P)); the NTT is linear over Z_{q_i}, so with the
// converter's rows pre-scaled, r = −conv·P⁻¹,
//
//	t   = [INTT(u′_ℓ)·P⁻¹ + r_ℓ + q_ℓ/2]_{q_ℓ}              (the top limb, alone)
//	c_i = conv_i + P·[t − q_ℓ/2]_{q_i}                     (CorrectionRow of r_i, scale P)
//	o_i = (u′_i − NTT(c_i))·(P·q_ℓ)⁻¹
//
// Every step is exact mod q_i, so the bytes are those of ModDown, the adds and
// Rescale run one after another (oracle_test.go holds this at every level and
// tier), at ℓ + 1 limb transforms per component where that sequence pays
// 2(ℓ + 1), and a kept limb's chain is the correction, its one NTT and one
// multiply-subtract. HMULT passes no adds: its tensor terms enter u′ through
// the gadget product (ontoQ). The P halves are consumed as in modDownPair, u_q
// and the adds too. ℓ must be ≥ 1.
func (ev *Evaluator) modDownRescale(u0q, u0p, u1q, u1p, add0, add1 *ring.Poly, lvl int) (o0, o1 *ring.Poly) {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	tail := ev.rescaleTail(lvl)
	rs := tail.rs
	r := [2]*ring.Poly{}
	r[0], r[1] = ev.pToQ(tail.conv, u0p, u1p, lvl)
	u, add := [2]*ring.Poly{u0q, u1q}, [2]*ring.Poly{add0, add1}
	out := [2]*ring.Poly{getNTT(rq, lvl-1), getNTT(rq, lvl-1)}
	t := [2]*ring.Poly{rq.GetPoly(0), rq.GetPoly(0)}

	mL := rq.Moduli[lvl]
	pL, pInvL := ev.pModQ[lvl], ev.pInvModQ[lvl]
	pLShoup, pInvLShoup := mL.ShoupPrecomp(pL), mL.ShoupPrecomp(pInvL)
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl-1)
	for k := range out {
		// The top row is shared by every kept limb — a cross-limb dependency
		// the pipeline must not span — so it is formed first, in t.
		tk := t[k].Coeffs[0]
		if a := add[k]; a != nil {
			aL := a.Coeffs[lvl]
			mL.VecMulShoup(aL, aL, pL, pLShoup)
			mL.VecAdd(tk, u[k].Coeffs[lvl], aL)
		} else {
			copy(tk, u[k].Coeffs[lvl])
		}
		rq.INTTLimb(tk, lvl)
		mL.VecMulShoup(tk, tk, pInvL, pInvLShoup)
		mL.VecAdd(tk, tk, r[k].Coeffs[lvl])
		rs.LastRowPlusHalf(tk, tk)

		// Per kept limb: fold the add into u, turn r_i into c_i in place,
		// transform it, and subtract it from u′_i into the output row.
		if a := add[k]; a != nil {
			ln.MulByLimbScalars(a, a, ev.pModQ)
			ln.Add(u[k], u[k], a)
		}
		c := r[k]
		ln.Func(func(i int) { rs.CorrectionRow(i, c.Coeffs[i], tk, ev.pModQ[i]) }, r[k:k+1], r[k:k+1])
		ln.NTTLazy(c)
		ln.SubMulByLimbScalarsLazy(out[k], u[k], c, tail.pqInv)
	}
	pipe.Run()
	pipe.Release()

	for k := range t {
		rq.PutPoly(t[k])
		rq.PutPoly(r[k])
	}
	return out[0], out[1]
}

// Rescale divides the ciphertext by its top prime and drops a level,
// restoring the scale after a plaintext or constant multiplication (HMULT and
// the linear-transform sweep rescale in their own key-switch tail), without
// leaving the NTT domain (rns.Rescaler states the identity). A ciphertext at
// level 0 has no prime left to drop: ErrLevel, before anything is written.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level() == 0 {
		return nil, ErrLevel
	}
	return ev.rescale(ct), nil
}

// rescale is Rescale for a ciphertext above level 0. Only the two dropped
// rows are inverse-transformed, into the shared t = [x_L + q_L/2]_{q_L} rows —
// single rows that every kept limb reads, a cross-limb dependency the pipeline
// must not span, so they are formed first. One Run then builds, per kept limb
// and in the output row itself (cleared in the lane: it comes from the pool),
// the correction [t − q_L/2]_{q_i}, transforms it, and applies
// out_i = (c_i − ŵ_i)·q_L^{-1} straight from ct's NTT rows.
func (ev *Evaluator) rescale(ct *Ciphertext) *Ciphertext {
	defer obsRescale.done(time.Now())
	rq := ev.params.RingQ()
	lvl := ct.Level()
	rs := ev.rescaler(lvl)
	in := [2]*ring.Poly{ct.C0, ct.C1}
	out := [2]*ring.Poly{rq.GetPoly(lvl - 1), rq.GetPoly(lvl - 1)}
	t := [2]*ring.Poly{rq.GetPoly(0), rq.GetPoly(0)}

	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl-1)
	for k := range in {
		tk, o := t[k].Coeffs[0], out[k]
		copy(tk, in[k].Coeffs[lvl])
		rq.INTTLimb(tk, lvl)
		rs.LastRowPlusHalf(tk, tk)
		ln.Func(func(i int) {
			clear(o.Coeffs[i]) // CorrectionRow then writes w_i itself
			rs.CorrectionRow(i, o.Coeffs[i], tk, 1)
		}, nil, out[k:k+1])
		ln.NTTLazy(o)
		ln.SubMulByLimbScalarsLazy(o, in[k], o, rs.LastModulusInv())
	}
	pipe.Run()
	pipe.Release()

	rq.PutPoly(t[0])
	rq.PutPoly(t[1])
	return &Ciphertext{C0: out[0], C1: out[1], Scale: ct.Scale / float64(rq.Moduli[lvl].Q)}
}

// rescaleOwned is rescale of a value the caller owns and is done with.
func (ev *Evaluator) rescaleOwned(ct *Ciphertext) *Ciphertext {
	out := ev.rescale(ct)
	ev.Release(ct)
	return out
}

// babyPhase is the whole baby step of the linear-transform sweep as one
// limb-major pipeline Run (§V-B AutAccum, Table II MAC). Per limb, the b == 0
// products open their giants' Q-basis accumulators; then, baby after baby,
// the shared decomposition's dot stages overwrite one set of QP rows (the
// digit transforms run in the first baby only) and each consuming giant's
// five diagonal MACs add σ_b(u) ⊙ d′ — and σ_b(c0) ⊙ d′ — into 128-bit sums
// whose high words live in the Run's scratch. The limb's chain ends by
// reducing every sum once, exactly, so the accumulators leave the Run as
// exact residues: the same bytes a per-product reduction would give.
// Accumulators are borrowed here and, unless a b == 0 product opens them,
// cleared in the lane right ahead of their first MAC.
func (ev *Evaluator) babyPhase(dec *decomposed, ct *Ciphertext, plan *bsgsPlan,
	keys map[int]*SwitchingKey, perBaby map[int][]bsgsBabyTarget) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	lvl := dec.level
	u0q, u0p, u1q, u1p := ev.getQP(lvl)

	pipe := ring.GetPipeline()
	lq := pipe.Lane(rq, lvl)
	lp := pipe.Lane(rp, rp.MaxLevel())
	for _, tg := range perBaby[0] { // a giant owns at most one b == 0 diagonal
		ga := tg.acc
		ga.a0q, ga.a1q = getNTT(rq, lvl), getNTT(rq, lvl)
		lq.MulCoeffs(ga.a0q, ct.C0, tg.ptQ)
		lq.MulCoeffs(ga.a1q, ct.C1, tg.ptQ)
	}
	var wide []*giantAcc // giants fed by a baby, in the order they are opened
	for _, b := range plan.babies {
		obsLinTransRotations.Inc()
		ev.recordGadgetMACs(lq, lp, dec, keys[b], u0q, u1q, u0p, u1p, false, false)
		g := rq.GaloisElement(b)
		for _, tg := range perBaby[b] {
			ga := tg.acc
			if ga.t0q == nil {
				wide = append(wide, ga)
				ga.t0q, ga.t0p, ga.t1q, ga.t1p = ev.getQP(lvl)
				lq.Zero(ga.t0q)
				lq.Zero(ga.t1q)
				lp.Zero(ga.t0p)
				lp.Zero(ga.t1p)
				if ga.a0q == nil {
					ga.a0q = getNTT(rq, lvl)
					lq.Zero(ga.a0q)
				}
			}
			lq.AutMulAccWide(ga.t0q, u0q, tg.ptQ, g)
			lq.AutMulAccWide(ga.t1q, u1q, tg.ptQ, g)
			lp.AutMulAccWide(ga.t0p, u0p, tg.ptP, g)
			lp.AutMulAccWide(ga.t1p, u1p, tg.ptP, g)
			lq.AutMulAccWide(ga.a0q, ct.C0, tg.ptQ, g)
		}
	}
	for _, ga := range wide {
		lq.ReduceWide(ga.t0q)
		lq.ReduceWide(ga.t1q)
		lp.ReduceWide(ga.t0p)
		lp.ReduceWide(ga.t1p)
		lq.ReduceWide(ga.a0q)
	}
	pipe.Run()
	pipe.Release()

	ev.putQP(u0q, u0p, u1q, u1p)
}

// giantAccum is one giant step's σ+add epilogue as a single pipeline Run: each
// partial result (T0 + v0, v1, and the Q-basis σ_b(c0) sum when present) is
// permuted by the giant's Galois element into a scratch row and added into the
// sweep accumulator while the row is cache-resident — or, for the first partial
// result an accumulator receives, permuted straight into it. Inputs must be
// exact, as the baby phase leaves them.
func (ev *Evaluator) giantAccum(final *giantAcc, t0q, w1q, t0p, w1p, a0q *ring.Poly, gal uint64) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	pipe := ring.GetPipeline()
	lq := pipe.Lane(rq, t0q.Level())
	lp := pipe.Lane(rp, t0p.Level())
	// sigmaAdd records acc += σ_gal(in) and returns the scratch polynomial to
	// put back after Run; an accumulator nothing has been added to yet is
	// borrowed and opened with the permutation itself.
	sigmaAdd := func(ln *ring.Lane, r *ring.Ring, acc **ring.Poly, in *ring.Poly) *ring.Poly {
		tmp := r.GetPoly(in.Level())
		if *acc == nil {
			*acc = tmp
			ln.AutomorphismNTT(tmp, in, gal)
			return nil
		}
		ln.AutomorphismNTT(tmp, in, gal)
		ln.Add(*acc, *acc, tmp)
		return tmp
	}
	tmp0 := sigmaAdd(lq, rq, &final.t0q, t0q)
	tmp1 := sigmaAdd(lq, rq, &final.t1q, w1q)
	tmp0p := sigmaAdd(lp, rp, &final.t0p, t0p)
	tmp1p := sigmaAdd(lp, rp, &final.t1p, w1p)
	var tmpA *ring.Poly
	if a0q != nil {
		tmpA = sigmaAdd(lq, rq, &final.a0q, a0q)
	}
	pipe.Run()
	pipe.Release()

	rq.PutPoly(tmp0)
	rq.PutPoly(tmp1)
	rp.PutPoly(tmp0p)
	rp.PutPoly(tmp1p)
	rq.PutPoly(tmpA)
}
