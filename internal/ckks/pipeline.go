package ckks

import (
	"time"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// The evaluator's hot chains — the gadget-product inner loop of key
// switching, the two ModDown tails (one with the op's add and automorphism
// fused in, one merged with the rescale), rescaling, and the linear-transform
// sweep blocks — record their per-limb kernel chains into a ring.Pipeline and
// execute the whole chain limb-by-limb under a single barrier, instead of one
// barriered full-polynomial sweep per kernel. The stage bodies are the same
// row kernels the barriered ring ops dispatch, in the same per-limb order, so
// the results are bit-identical to the barriered exact composition on every
// kernel tier (oracle_test.go asserts this byte for byte at every level); only
// the memory traffic changes. DESIGN.md §3.8.4 documents the discipline.

// recordModUp records the per-limb half of dec's ModUp into the two lanes
// and returns its digit rows: per limb, each digit base-converted onto the
// limb and forward-transformed in the Run's scratch, a digit's own Q limbs
// read from the input itself (ring.Lane.ModUp). The rows live until the end
// of the limb's chain, so every gadget product recorded after this in the
// same Run reads them while they are cache-resident, and no row is converted
// twice as long as one Run consumes the decomposition.
func (ev *Evaluator) recordModUp(lq, lp *ring.Lane, dec *decomposed) (dq, dp []*ring.Poly) {
	dq, dp = lq.Scratch(len(dec.conv)), lp.Scratch(len(dec.conv))
	lq.ModUp(dq, dec.in, dec.pre, dec.conv, 0)
	lp.ModUp(dp, nil, dec.pre, dec.conv, dec.level+1)
	return dq, dp
}

// recordGadgetMACs records the KeyMult chain of one gadget product over the
// digit rows of recordModUp: one dot stage per lane, u = Σ_d digit_d ⊙ key_d
// for both accumulators, which sums the D products of a coefficient in a
// 128-bit register pair and reduces once. The B side reads the key's stored
// rows; the A side expands them from the key's seed, tile by tile, inside the
// same stage (DotKeyLazy). The accumulators are left lazy. An accumulator is
// overwritten, so it need not be initialised, unless the product is to be
// added onto what it holds: onto0 asks that of u0 over Q ∪ P (the sweep's
// giant step lands on T0), ontoQ of both Q halves (HMULT's P-scaled tensor
// terms, which vanish mod every p_j).
func (ev *Evaluator) recordGadgetMACs(lq, lp *ring.Lane, dq, dp []*ring.Poly, swk *SwitchingKey, u0q, u1q, u0p, u1p *ring.Poly, onto0, ontoQ bool) {
	n := len(dq) // a key serves lower levels with a prefix of its digits
	a := swk.uniformKey()
	lq.DotKeyLazy(u0q, u1q, dq, swk.BQ[:n], a, 0, onto0 || ontoQ, ontoQ)
	lp.DotKeyLazy(u0p, u1p, dp, swk.BP[:n], a, 1, onto0, false)
}

// gadgetProductInto is the per-limb ModUp and the KeyMult/MAC of a key switch
// as one pipeline Run: recordModUp's conversions and transforms, the dot
// stages of recordGadgetMACs and the four accumulator reductions — one
// barrier, and no digit polynomial. Accumulators must be NTT-flagged polynomials; those onto0 /
// ontoQ name are added onto (their exact or lazy values are read), the others
// only written.
func (ev *Evaluator) gadgetProductInto(dec *decomposed, swk *SwitchingKey, u0q, u1q, u0p, u1p *ring.Poly, onto0, ontoQ bool) {
	defer obsKSKeyMult.done(time.Now())
	pipe := ring.GetPipeline()
	lq := pipe.Lane(ev.params.RingQ(), dec.level)
	lp := pipe.Lane(ev.params.RingP(), ev.params.RingP().MaxLevel())
	dq, dp := ev.recordModUp(lq, lp, dec)
	ev.recordGadgetMACs(lq, lp, dq, dp, swk, u0q, u1q, u0p, u1p, onto0, ontoQ)
	lq.ReduceLazy(u0q)
	lq.ReduceLazy(u1q)
	lp.ReduceLazy(u0p)
	lp.ReduceLazy(u1p)
	pipe.Run()
	pipe.Release()
}

// pToQ is the head both ModDown tails share: one Run inverse-transforms the
// P halves in place and premultiplies them by the P -> Q converter's q̂⁻¹ —
// the accumulators are CONSUMED, every caller releases them right after the
// tail, so no defensive copy pass is paid. A nil half (the sweep's
// one-component ModDown) is skipped. The tail's Run then converts them onto
// each Q limb where it consumes the row (ring.Lane.BConv), so no converted
// polynomial exists.
func (ev *Evaluator) pToQ(up [2]*ring.Poly) {
	rp := ev.params.RingP()
	pipe := ring.GetPipeline()
	lnP := pipe.Lane(rp, rp.MaxLevel())
	for _, u := range up {
		if u != nil {
			lnP.INTT(u)
			lnP.MulByLimbScalars(u, u, ev.downConv.QHatInv())
		}
	}
	pipe.Run()
	pipe.Release()
}

// modDown is the key switch's ModDown (the ModDownEp compound instruction of
// Table II) with the op's epilogue fused in: per component k present (uq[1]
// nil runs the sweep giant's one component), a Q-basis polynomial at level lvl,
//
//	out_k = σ_g((uq_k − BConv(up_k))·[P⁻¹]_{q_i} + add_k),
//
// where a nil add_k adds nothing and g = 0 permutes nothing. After pToQ, which
// consumes up, one Run converts each limb's row into scratch, transforms it,
// subtracts and scales it, then adds and permutes while the row is
// cache-resident — the sum-then-permute as the fused AddAutomorphismNTT
// stage (bit-identical because the sum is element-wise), so a rotation's
// epilogue moves each row once instead of four times. SwitchKeys passes its
// c0 as add_0, a rotation (c0, σ_g), the sweep's giants their b = 0 term.
func (ev *Evaluator) modDown(uq, up, add [2]*ring.Poly, g uint64, lvl int) (out [2]*ring.Poly) {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	ev.pToQ(up)

	s := ev.pInvModQ[:lvl+1]
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl)
	n := 1
	if g != 0 {
		n = 2 // the ModDown row, ahead of its permutation
	}
	sc := ln.Scratch(n)
	conv := sc[0]
	for k, u := range uq {
		if u == nil {
			continue
		}
		out[k] = getNTT(rq, lvl)
		ln.BConv(conv, up[k], ev.downConv)
		ln.NTTLazy(conv)
		if g == 0 {
			ln.SubMulByLimbScalarsLazy(out[k], u, conv, s)
			if add[k] != nil {
				ln.Add(out[k], out[k], add[k])
			}
			continue
		}
		d := sc[1]
		ln.SubMulByLimbScalarsLazy(d, u, conv, s)
		if add[k] != nil {
			ln.AddAutomorphismNTT(out[k], d, add[k], g)
		} else {
			ln.AutomorphismNTT(out[k], d, g)
		}
	}
	pipe.Run()
	pipe.Release()
	return out
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
// 2(ℓ + 1), and a kept limb's chain is its row's conversion into scratch, the
// correction, its one NTT and one multiply-subtract. HMULT passes no adds: its
// tensor terms enter u′ through the gadget product (ontoQ). The P halves are
// consumed as in modDown, u_q (its top row is transformed in place) and
// the adds too. ℓ must be ≥ 1.
func (ev *Evaluator) modDownRescale(u0q, u0p, u1q, u1p, add0, add1 *ring.Poly, lvl int) (o0, o1 *ring.Poly) {
	defer obsKSModDown.done(time.Now())
	rq := ev.params.RingQ()
	lc := &ev.levels[lvl]
	rs := lc.rs
	u, up, add := [2]*ring.Poly{u0q, u1q}, [2]*ring.Poly{u0p, u1p}, [2]*ring.Poly{add0, add1}
	ev.pToQ(up)
	out := [2]*ring.Poly{getNTT(rq, lvl-1), getNTT(rq, lvl-1)}
	// Rows 0 and 1: the components' top rows t; row 2: the accumulator tile
	// of their conversions.
	t := rq.GetPoly(2)

	mL := rq.Moduli[lvl]
	pL, pInvL := ev.pModQ[lvl], ev.pInvModQ[lvl]
	pLShoup, pInvLShoup := mL.ShoupPrecomp(pL), mL.ShoupPrecomp(pInvL)
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl-1)
	c := ln.Scratch(1)
	for k := range out {
		// The top row is shared by every kept limb — a cross-limb dependency
		// the pipeline must not span — so it is formed first, in t, from the
		// one converted row ℓ.
		tk, uL := t.Coeffs[k], u[k].Coeffs[lvl]
		ev.rescaleConv.ConvertRow(tk, up[k].Coeffs, lvl, false, t.Coeffs[2])
		if a := add[k]; a != nil {
			aL := a.Coeffs[lvl]
			mL.VecMulShoup(aL, aL, pL, pLShoup)
			mL.VecAdd(uL, uL, aL)
		}
		rq.INTTLimb(uL, lvl)
		mL.VecMulShoup(uL, uL, pInvL, pInvLShoup)
		mL.VecAdd(tk, uL, tk)
		rs.LastRowPlusHalf(tk, tk)

		// Per kept limb: fold the add into u, convert the limb's row of r
		// into scratch and turn it into c_i there, transform it, and subtract
		// it from u′_i into the output row.
		if a := add[k]; a != nil {
			ln.MulByLimbScalars(a, a, ev.pModQ)
			ln.Add(u[k], u[k], a)
		}
		ci := c[0]
		ln.BConv(ci, up[k], ev.rescaleConv)
		ln.Func(func(i int) { rs.CorrectionRow(i, ci.Coeffs[i], tk, ev.pModQ[i]) }, c, c)
		ln.NTTLazy(ci)
		ln.SubMulByLimbScalarsLazy(out[k], u[k], ci, lc.pqInv)
	}
	pipe.Run()
	pipe.Release()

	rq.PutPoly(t)
	return out[0], out[1]
}

// Rescale divides the ciphertext by its top prime and drops a level without
// leaving the NTT domain (rns.Rescaler states the identity). Every
// multiplying op already returns its product rescaled, so Rescale serves a
// client's explicit rescale. A ciphertext at level 0 has no prime left to
// drop: ErrLevel, before anything is written.
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level() == 0 {
		return nil, errLevelZero
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
	rs := ev.levels[lvl].rs
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
// products open their giants' Q-basis accumulators; the shared
// decomposition's digit rows are converted and transformed once, into the
// Run's scratch; then, baby after baby, the dot stages overwrite one set of
// QP scratch rows — σ_b permutes within a limb, so the key-switched row is
// consumed in the chain that forms it — and each consuming giant's five
// diagonal MACs add σ_b(u) ⊙ d′ — and σ_b(c0) ⊙ d′ — into 128-bit sums
// whose high words live in the Run's scratch too. The limb's chain ends by
// reducing every sum once, exactly, so the accumulators leave the Run as
// exact residues: the same bytes a per-product reduction would give.
// Accumulators are borrowed here and, unless a b == 0 product opens them,
// cleared in the lane right ahead of their first MAC. A diagonal stored at
// its period is expanded into a scratch row ahead of the MACs that read it.
func (ev *Evaluator) babyPhase(dec *decomposed, ct *Ciphertext, plan *bsgsPlan,
	keys map[int]*SwitchingKey, perBaby map[int][]bsgsBabyTarget) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	lvl := dec.level

	pipe := ring.GetPipeline()
	lq := pipe.Lane(rq, lvl)
	lp := pipe.Lane(rp, rp.MaxLevel())
	xq, xp := expander{ln: lq}, expander{ln: lp}
	for _, tg := range perBaby[0] { // a giant owns at most one b == 0 diagonal
		ga := tg.acc
		ga.a0q, ga.a1q = getNTT(rq, lvl), getNTT(rq, lvl)
		ptQ := xq.whole(tg.pt.q, tg.pt.k)
		lq.MulCoeffs(ga.a0q, ct.C0, ptQ)
		lq.MulCoeffs(ga.a1q, ct.C1, ptQ)
	}
	var wide []*giantAcc // giants fed by a baby, in the order they are opened
	var dq, dp, uq, up []*ring.Poly
	if len(plan.babies) > 0 { // with no baby, nothing reads the digits
		dq, dp = ev.recordModUp(lq, lp, dec)
		uq, up = lq.Scratch(2), lp.Scratch(2)
	}
	for _, b := range plan.babies {
		u0q, u1q, u0p, u1p := uq[0], uq[1], up[0], up[1]
		obsLinTransRotations.Inc()
		ev.recordGadgetMACs(lq, lp, dq, dp, keys[b], u0q, u1q, u0p, u1p, false, false)
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
			ptQ, ptP := xq.whole(tg.pt.q, tg.pt.k), xp.whole(tg.pt.p, tg.pt.k)
			lq.AutMulAccWide(ga.t0q, u0q, ptQ, g)
			lq.AutMulAccWide(ga.t1q, u1q, ptQ, g)
			lp.AutMulAccWide(ga.t0p, u0p, ptP, g)
			lp.AutMulAccWide(ga.t1p, u1p, ptP, g)
			lq.AutMulAccWide(ga.a0q, ct.C0, ptQ, g)
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
}

// expander hands a lane's stages a diagonal's whole rows: the stored
// polynomial of a full-period diagonal, else one Scratch row of the lane,
// which an Expand stage recorded ahead of the stages reading it refills.
type expander struct {
	ln *ring.Lane
	x  *ring.Poly
}

func (e *expander) whole(pt *ring.Poly, k int) *ring.Poly {
	if k == 1 {
		return pt
	}
	if e.x == nil {
		e.x = e.ln.Scratch(1)[0]
	}
	e.ln.Expand(e.x, pt)
	return e.x
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
	tq, tp := lq.Scratch(1)[0], lp.Scratch(1)[0]
	// sigmaAdd records acc += σ_gal(in); an accumulator nothing has been
	// added to yet is borrowed and opened with the permutation itself.
	sigmaAdd := func(ln *ring.Lane, r *ring.Ring, tmp *ring.Poly, acc **ring.Poly, in *ring.Poly) {
		if *acc == nil {
			*acc = getNTT(r, in.Level())
			ln.AutomorphismNTT(*acc, in, gal)
			return
		}
		ln.AutomorphismNTT(tmp, in, gal)
		ln.Add(*acc, *acc, tmp)
	}
	sigmaAdd(lq, rq, tq, &final.t0q, t0q)
	sigmaAdd(lq, rq, tq, &final.t1q, w1q)
	sigmaAdd(lp, rp, tp, &final.t0p, t0p)
	sigmaAdd(lp, rp, tp, &final.t1p, w1p)
	if a0q != nil {
		sigmaAdd(lq, rq, tq, &final.a0q, a0q)
	}
	pipe.Run()
	pipe.Release()
}
