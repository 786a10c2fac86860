package ckks

import (
	"fmt"
	"sort"
	"time"

	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// Baby-step/giant-step evaluation of diagonal linear transforms with double
// hoisting (§V-B, Fig 5). Every diagonal offset is factored as
//
//	r = g·bs + b ,  b ∈ [0, bs) ,
//
// and the sweep Σ_r d_r ⊙ σ_r(u) regrouped as
//
//	Σ_g σ_{g·bs}( Σ_b d'_{g,b} ⊙ σ_b(u) ) ,  d'_{g,b}[j] = d_{g·bs+b}[(j − g·bs) mod n] ,
//
// i.e. the encoded diagonals are pre-rotated by −g·bs offline so only the bs
// baby rotations touch the ciphertext inside each giant's inner sum. The baby
// rotations all come from ONE shared decomposition of c1 (hoisting) and their
// key-switched halves stay in the extended QP basis; each giant's inner sum
// is accumulated in QP and key-switched once by the giant rotation with the
// ModDown deferred to the very end (double hoisting). A K-diagonal sweep thus
// pays ~(bs − 1) + ⌈K/bs⌉ − 1 key-switch gadget products instead of K − 1.

// bsgsDiag is one diagonal's factorization: offset r = rot + b with rot the
// owning giant's rotation.
type bsgsDiag struct {
	r int // original diagonal offset (key into LinearTransform.Diags)
	b int // baby offset, r ≡ rot + b (mod slots)
}

// bsgsGiant is one giant step: the rotation g·bs and the diagonals it owns.
type bsgsGiant struct {
	rot   int
	diags []bsgsDiag
}

// bsgsPlan is the materialized factorization of a transform's diagonal set
// for one baby step. It is immutable once built.
type bsgsPlan struct {
	bs     int
	babies []int       // distinct nonzero baby offsets, sorted
	giants []bsgsGiant // sorted by rotation; rot 0 first when present
}

// rotations returns the Galois rotation indices the plan needs: the nonzero
// babies plus the nonzero giant rotations, sorted.
func (pl *bsgsPlan) rotations() []int {
	out := make([]int, 0, len(pl.babies)+len(pl.giants))
	out = append(out, pl.babies...)
	for _, g := range pl.giants {
		if g.rot != 0 {
			out = append(out, g.rot)
		}
	}
	sort.Ints(out)
	return out
}

// keySwitchCount is the number of key-switch gadget products one sweep under
// the plan spends: one per nonzero baby plus one per nonzero giant. This is
// the count the ckks_lintrans_rotations_total counter advances by and the
// quantity the sim's linearHoisted EvkCount models (trace parity).
func (pl *bsgsPlan) keySwitchCount() int {
	n := len(pl.babies)
	for _, g := range pl.giants {
		if g.rot != 0 {
			n++
		}
	}
	return n
}

// newBSGSPlan factors the diagonal set under the given baby step. Iteration
// is over sorted offsets so the plan — and therefore the kernel execution
// order — is deterministic. A baby step of the slot count (or more) is the
// degenerate plan: one rotation-0 giant owning every diagonal, i.e. the
// per-diagonal hoisted sweep.
func newBSGSPlan(diags map[int][]complex128, bs int) *bsgsPlan {
	rs := make([]int, 0, len(diags))
	for r := range diags {
		rs = append(rs, r)
	}
	sort.Ints(rs)

	pl := &bsgsPlan{bs: bs}
	babySet := make(map[int]bool)
	giantIdx := make(map[int]int)
	for _, r := range rs {
		b := r % bs
		rot := r - b
		gi, ok := giantIdx[rot]
		if !ok {
			gi = len(pl.giants)
			giantIdx[rot] = gi
			pl.giants = append(pl.giants, bsgsGiant{rot: rot})
		}
		pl.giants[gi].diags = append(pl.giants[gi].diags, bsgsDiag{r: r, b: b})
		if b != 0 {
			babySet[b] = true
		}
	}
	for b := range babySet {
		pl.babies = append(pl.babies, b)
	}
	sort.Ints(pl.babies)
	sort.Slice(pl.giants, func(i, j int) bool { return pl.giants[i].rot < pl.giants[j].rot })
	return pl
}

// sweepShape counts the key-switch primitives one linear-transform sweep
// executes; sweepRowCost prices it. The diagonal PMULT/accumulate volume is
// identical across strategies (each diagonal is multiplied exactly once), so
// it is omitted — only relative order matters.
type sweepShape struct {
	decomps  int // ModUp decompositions (INTT + per-digit BConv + NTT)
	gadgets  int // key-switch gadget products (KeyMult MACs)
	modDowns int // ModDown compound ops
	giants   int // nonzero giant steps (σ + add epilogue over QP)
}

// sweepRowCost models the limb-row transform volume of a sweep at level lvl:
// a decomposition is ~Digits passes over the extended basis plus the source
// INTT, a gadget product 2·Digits extended passes, a ModDown one pass over P
// plus Q, and a giant epilogue one σ+add pass over the QP accumulators.
func sweepRowCost(p *Parameters, lvl int, s sweepShape) int {
	pl := p.PlanAt(lvl)
	ext := lvl + 1 + pl.Alpha
	decompRows := pl.Digits*ext + lvl + 1
	gadgetRows := 2 * pl.Digits * ext
	modDownRows := pl.Alpha + lvl + 1
	giantRows := 2*ext + lvl + 1
	return s.decomps*decompRows + s.gadgets*gadgetRows + s.modDowns*modDownRows + s.giants*giantRows
}

// bsgsShape returns the sweep shape of evaluating the diagonal set with baby
// step bs: (1 + G₁) decompositions, (B₁ + G₁) gadget products, (G₁ + 2)
// ModDowns and G₁ giant epilogues, where B₁/G₁ are the distinct nonzero baby
// and giant counts. G₁ == 0 means the factorization degenerates to the
// per-diagonal plan.
func bsgsShape(diags map[int][]complex128, bs int) (sweepShape, bool) {
	babies := make(map[int]bool)
	giants := make(map[int]bool)
	for r := range diags {
		b := r % bs
		if b != 0 {
			babies[b] = true
		}
		if rot := r - b; rot != 0 {
			giants[rot] = true
		}
	}
	g1 := len(giants)
	if g1 == 0 {
		return sweepShape{}, false
	}
	return sweepShape{
		decomps:  1 + g1,
		gadgets:  len(babies) + g1,
		modDowns: g1 + 2,
		giants:   g1,
	}, true
}

// selectBabyStep picks the baby step minimizing the modeled row cost at the
// top level (the DFT sweeps run near the top of the chain, and a fixed level
// keeps the choice — and hence the Galois key set — stable across the
// ciphertext's descent). Candidates are the powers of two below the slot
// count: the bootstrap DFT diagonals are symmetric sets of power-of-two
// multiples, which power-of-two baby steps tile exactly. Returns the slot
// count (the degenerate per-diagonal plan) when no factorization beats it.
func (lt *LinearTransform) selectBabyStep(p *Parameters) int {
	nonzero := 0
	for r := range lt.Diags {
		if r != 0 {
			nonzero++
		}
	}
	if nonzero <= 2 {
		return lt.Slots
	}
	lvl := p.MaxLevel()
	bestBS := lt.Slots
	bestCost := sweepRowCost(p, lvl, sweepShape{decomps: 1, gadgets: nonzero, modDowns: 2})
	for bs := 2; bs < lt.Slots; bs <<= 1 {
		shape, ok := bsgsShape(lt.Diags, bs)
		if !ok {
			continue
		}
		if c := sweepRowCost(p, lvl, shape); c < bestCost {
			bestCost, bestBS = c, bs
		}
	}
	return bestBS
}

// sweepPlan returns the cost model's plan for the transform under the
// parameters, computed once and cached.
func (lt *LinearTransform) sweepPlan(p *Parameters) *bsgsPlan {
	lt.planOnce.Do(func() { lt.plan = newBSGSPlan(lt.Diags, lt.selectBabyStep(p)) })
	return lt.plan
}

// GaloisKeysForLinearTransform returns the rotation indices the evaluator's
// selected plans need for the given transforms: the baby ∪ giant set, which
// for the degenerate plan is the raw diagonal offsets. Generating exactly
// these keys is what turns the BSGS rotation saving into an evaluation-key
// memory saving too (≤ bs + ⌈K/bs⌉ keys instead of K).
func GaloisKeysForLinearTransform(p *Parameters, lts ...*LinearTransform) []int {
	set := make(map[int]bool)
	for _, lt := range lts {
		for _, r := range lt.sweepPlan(p).rotations() {
			set[r] = true
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// sweepKeys resolves the Galois key of every rotation the plan spends, keyed
// by rotation index.
func (ev *Evaluator) sweepKeys(plan *bsgsPlan) (map[int]*SwitchingKey, error) {
	rq := ev.params.RingQ()
	rots := plan.rotations()
	keys := make(map[int]*SwitchingKey, len(rots))
	for _, r := range rots {
		swk, err := ev.keys.GaloisKey(rq.GaloisElement(r))
		if err != nil {
			return nil, err
		}
		keys[r] = swk
	}
	return keys, nil
}

// EvaluateLinearTransform computes M·u, rescaled, under the cost model's plan
// when the key set holds its baby + giant Galois keys (it does when generated
// via GaloisKeysForLinearTransform), else under the degenerate plan, which
// needs exactly the diagonal offsets — so callers holding only per-diagonal
// keys keep working unchanged. The diagonals are encoded at the scale of the
// ciphertext's top prime and the sweep's closing ModDown drops that prime, so
// the output sits one level down at the input scale. A ciphertext at level 0
// has no prime to drop: ErrLevel, before anything is written.
func (ev *Evaluator) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	if ct.Level() == 0 {
		return nil, ErrLevel
	}
	plan := lt.sweepPlan(ev.params)
	keys, err := ev.sweepKeys(plan)
	if err != nil && plan.bs < lt.Slots {
		plan = newBSGSPlan(lt.Diags, lt.Slots)
		keys, err = ev.sweepKeys(plan)
	}
	if err != nil {
		return nil, err
	}
	return ev.evaluateSweep(ct, lt, enc, plan, keys)
}

// giantAcc holds one giant step's accumulators, each borrowed from the ring
// pool by the first stage that writes it (nil until then). The baby-rotated
// key-switched halves accumulate in the extended QP basis (t*), the σ_b(c0)
// products and the unrotated (b == 0) c1 product stay in Q (a0q/a1q). The
// rotation-0 giant's accumulators are the sweep's final ones, so its
// contributions skip the giant epilogue entirely.
type giantAcc struct {
	t0q, t1q *ring.Poly // QP accumulators, Q half
	t0p, t1p *ring.Poly // QP accumulators, P half
	a0q      *ring.Poly // Q basis: Σ pt ⊙ σ_b(c0) over the giant's diagonals
	a1q      *ring.Poly // Q basis: pt ⊙ c1 for the giant's b == 0 diagonal
}

// release returns the accumulators to the ring pools.
func (ga *giantAcc) release(rq, rp *ring.Ring) {
	for _, q := range [...]*ring.Poly{ga.t0q, ga.t1q, ga.a0q, ga.a1q} {
		rq.PutPoly(q)
	}
	rp.PutPoly(ga.t0p)
	rp.PutPoly(ga.t1p)
}

// bsgsBabyTarget is one (giant, diagonal) MAC set inside a baby's block: the
// five accumulators the baby's key-switched halves and c0 are multiplied
// into, and the pre-rotated plaintext doing the multiplying.
type bsgsBabyTarget struct {
	acc      *giantAcc
	ptQ, ptP *ring.Poly
}

// evaluateSweep computes M·u under the given plan — the one linear-transform
// path: every baby rotation hoisted off one decomposition of c1, each nonzero
// giant's inner sum key-switched once with its ModDown deferred (double
// hoisting, Fig 1/Fig 5), PMULT and accumulation in the extended modulus PQ,
// a single ModDown at the end, merged with the rescale that drops q_lvl again
// (modDownRescale). keys holds the Galois key of every rotation in
// plan.rotations() (see sweepKeys). ct must sit above level 0.
func (ev *Evaluator) evaluateSweep(ct *Ciphertext, lt *LinearTransform, enc *Encoder,
	plan *bsgsPlan, keys map[int]*SwitchingKey) (*Ciphertext, error) {
	defer obsLinTrans.done(time.Now())
	sweep := obs.DefaultTracer.Start("lintrans", 0)
	sweep.Annotate(fmt.Sprintf("bs=%d diags=%d ks=%d", plan.bs, len(lt.Diags), plan.keySwitchCount()))
	defer sweep.End()

	p := ev.params
	rq, rp := p.RingQ(), p.RingP()
	lvl := ct.Level()
	ptScale := float64(rq.Moduli[lvl].Q)

	diags, err := lt.encodedAt(enc, lvl, ptScale, plan)
	if err != nil {
		return nil, err
	}

	lvlP := rp.MaxLevel()
	dec := ev.decompose(ct.C1, lvl)
	defer dec.release(p)

	// final collects the sweep's result: the QP-basis sum of the hoisted
	// key-switched parts and the Q-basis sums of the c0 parts and of the
	// rotation-0 term. The rotation-0 giant accumulates into it directly —
	// its inner sum needs no giant rotation.
	final := &giantAcc{}
	accs := make([]*giantAcc, len(plan.giants))
	for i, g := range plan.giants {
		if g.rot == 0 {
			accs[i] = final
		} else {
			accs[i] = &giantAcc{}
		}
	}

	// Group the plan's (giant, diagonal) pairs by baby offset: each baby pays
	// one gadget product from the shared decomposition and its key-switched
	// halves are multiplied into every giant owning a diagonal at rot + b.
	perBaby := make(map[int][]bsgsBabyTarget)
	for i, g := range plan.giants {
		for _, d := range g.diags {
			ed, ok := diags[d.r]
			if !ok {
				return nil, fmt.Errorf("ckks: sweep encoding missing diagonal %d", d.r)
			}
			perBaby[d.b] = append(perBaby[d.b], bsgsBabyTarget{acc: accs[i], ptQ: ed.q, ptP: ed.p})
		}
	}

	// Baby step, one limb-major Run: the b == 0 products, then one gadget
	// product per distinct nonzero baby offset, shared across every giant
	// consuming it. The key-switched halves stay in the extended QP basis — no
	// per-baby ModDown (first hoisting level) — and every accumulator leaves
	// the Run exact.
	ev.babyPhase(dec, ct, plan, keys, perBaby)

	// Giant step: key-switch each nonzero giant's inner sum once by its
	// rotation. The inner sum's c1 is reconstructed in Q (one ModDown of the
	// baby accumulators plus the b == 0 term), decomposed, and the gadget
	// product's v0 half accumulates straight onto the giant's T0 so the σ_g
	// permutation applies to the sum once — the final ModDown of the whole
	// sweep stays deferred (second hoisting level).
	for i, g := range plan.giants {
		ga := accs[i]
		if g.rot == 0 {
			continue
		}
		span := obs.DefaultTracer.Start("lintrans-giant", sweep.ID())
		span.Annotate(fmt.Sprintf("rot=%d diags=%d", g.rot, len(g.diags)))

		t1 := ga.a1q // a giant with only a b == 0 diagonal
		if ga.t1q != nil {
			t1 = ev.ModDown(ga.t1q, ga.t1p, lvl)
			if ga.a1q != nil {
				rq.Add(t1, t1, ga.a1q, lvl)
			}
		}
		decG := ev.decompose(t1, lvl)
		obsLinTransRotations.Inc()

		// v0 lands on the live T0 — or opens it, when no baby fed this giant —
		// and v1 in w1. gadgetProductInto reduces its accumulators on exit, so
		// the σ+add epilogue below reads exact values.
		w1q, w1p := getNTT(rq, lvl), getNTT(rp, lvlP)
		onto := ga.t0q != nil
		if !onto {
			ga.t0q, ga.t0p = getNTT(rq, lvl), getNTT(rp, lvlP)
		}
		ev.gadgetProductInto(decG, keys[g.rot], ga.t0q, w1q, ga.t0p, w1p, onto, false)
		decG.release(p)
		if t1 != ga.a1q {
			rq.PutPoly(t1)
		}

		// σ_g the giant's three partial results into the sweep accumulators.
		ev.giantAccum(final, ga.t0q, w1q, ga.t0p, w1p, ga.a0q, rq.GaloisElement(g.rot))
		rq.PutPoly(w1q)
		rp.PutPoly(w1p)
		ga.release(rq, rp)
		span.End()
	}

	// The diagonals multiplied the scale by q_lvl and the rescale divides it
	// out again, in that order, as a separate Rescale would.
	scale := ct.Scale * ptScale
	switch {
	case final.t0q != nil:
		c0, c1 := ev.modDownRescale(final.t0q, final.t0p, final.t1q, final.t1p, final.a0q, final.a1q, lvl)
		final.release(rq, rp)
		return &Ciphertext{C0: c0, C1: c1, Scale: scale / ptScale}, nil
	case final.a0q != nil:
		// Only the r == 0 diagonal: its two products, rescaled, are the result.
		return ev.rescaleOwned(&Ciphertext{C0: final.a0q, C1: final.a1q, Scale: scale}), nil
	default:
		return ev.zeroCiphertext(lvl-1, scale/ptScale), nil // a transform without diagonals
	}
}
