package ckks

import (
	"fmt"
	"math"
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

// hasGiantStep reports whether the plan has a nonzero giant. A plan without
// one is the degenerate plan under another baby step.
func (pl *bsgsPlan) hasGiantStep() bool {
	return len(pl.giants) > 0 && pl.giants[len(pl.giants)-1].rot != 0
}

// The cost model prices a plan by kernel class: sweepCostAt counts what
// evaluateSweep runs, and weight prices each class with a fixed time per row.
// Nothing is timed at run time, so the chosen plans — and with them the Galois
// key set and every ciphertext byte — are a pure function of the parameters
// and the diagonals.
//
// The per-row times are those of one AVX-512 core at N = 2^12, in ns, read off
// the repo benchmark's boot_n12 per-layer units (ntt.fwd_ns_per_limb,
// rns.bconv_ns_per_rowpair, ring.aut_ns_per_limb) and the dot kernel's
// per-term time (modarith's BenchmarkGadgetDot). A row of every class scales
// with N, an NTT row also with logN. DESIGN.md §3.8.6 records the derivation.
const (
	nttRowNs    = 17900 // one forward or inverse NTT row
	bconvPairNs = 3600  // one (source, target) row pair of a base conversion
	dotTermNs   = 2900  // one term of a dot-product row
	autRowNs    = 2100  // one automorphism row as the retired gather index ran it (≈ 3× a block permutation's; kept so plans do not move)
	refLogN     = 12    // the ring degree the times were taken at
)

// sweepCost counts one sweep's kernels by class. Copies, adds, zeroing and
// reductions are data movement, which no class prices.
type sweepCost struct {
	nttRows     int // forward and inverse NTT rows, over Q and P
	bconvPairs  int // (source, target) row pairs of base conversions
	dotTerms    int // terms of dot-product rows: gadget products, diagonal products
	autRows     int // automorphism rows of the giant epilogues
	keySwitches int // gadget products: what ckks_lintrans_rotations_total advances by
}

// weight is the modeled time at ring degree 2^logN, in units of 1/refLogN ns
// per 2^refLogN coefficients. It is an integer so that comparing two plans
// gives the same answer on every architecture (Go may fuse a float
// multiply-add).
func (c sweepCost) weight(logN int) int64 {
	return int64(c.nttRows)*nttRowNs*int64(logN) +
		refLogN*(int64(c.bconvPairs)*bconvPairNs+int64(c.dotTerms)*dotTermNs+int64(c.autRows)*autRowNs)
}

// ms is the modeled time in milliseconds under the parameters.
func (c sweepCost) ms(p *Parameters) float64 {
	return float64(c.weight(p.LogN())) * float64(p.N()) / (1 << refLogN) / (refLogN * 1e6)
}

// sweepCostAt counts the kernels evaluateSweep runs for the plan at level lvl:
// the shared decomposition (the input's INTT and each digit's BConv, plus the
// digit NTTs that the first baby's gadget product runs), a gadget product per
// nonzero baby, the diagonal products, and per nonzero giant a ModDown of its
// inner sum (when a baby fed it), a decomposition, a gadget product and the σ
// epilogue; then the merged ModDown + rescale tail, or a plain rescale when
// only the r = 0 diagonal produced anything.
func sweepCostAt(p *Parameters, lvl int, pl *bsgsPlan) sweepCost {
	gp := p.PlanAt(lvl)
	q, a := lvl+1, gp.Alpha
	var c sweepCost
	decompose := func(transformed bool) {
		c.nttRows += q
		for d := 0; d < gp.Digits; d++ {
			lo, hi := gp.digitLimbs(d)
			w := hi - lo
			c.bconvPairs += w * (q + a - w)
			if transformed {
				c.nttRows += q + a - w
			}
		}
	}
	gadget := func() {
		c.keySwitches++
		c.dotTerms += 2 * gp.Digits * (q + a)
	}

	decompose(len(pl.babies) > 0)
	for range pl.babies {
		gadget()
	}
	tail := false // whether anything reaches the final QP accumulators
	for _, g := range pl.giants {
		fed := false
		for _, d := range g.diags {
			if d.b == 0 {
				c.dotTerms += 2 * q // pt ⊙ c0 and pt ⊙ c1
			} else {
				fed = true
				c.dotTerms += 3*q + 2*a // T0 and T1 over Q and P, and the c0 sum
			}
		}
		if g.rot == 0 {
			tail = tail || fed
			continue
		}
		tail = true
		if fed { // ModDown of T1: INTT over P, BConv onto Q, NTT over Q
			c.nttRows += a + q
			c.bconvPairs += a * q
		}
		decompose(true)
		gadget()
		c.autRows += 3*q + 2*a // σ of T0 + v0 and v1 over Q and P, and of the c0 sum
	}
	switch {
	case tail:
		c.nttRows += 2 * (a + q)
		c.bconvPairs += 2 * a * q
	case len(pl.giants) > 0:
		c.nttRows += 2 * q
	}
	return c
}

// planOption is one candidate plan of a transform, with its Galois rotations
// and its modeled weight.
type planOption struct {
	plan   *bsgsPlan
	rots   []int
	weight int64
}

// planOptions returns the transform's candidate plans, cheapest first (ties
// to the smaller baby step): one per power-of-two baby step below the slot
// count whose factorization has a giant step — the bootstrap DFT diagonals are
// symmetric sets of power-of-two multiples, which such steps tile exactly —
// and the degenerate per-diagonal plan. Plans are priced at the top level:
// the DFT sweeps run near it, and a fixed level keeps the choice, and hence
// the Galois key set, stable across a ciphertext's descent.
func (lt *LinearTransform) planOptions(p *Parameters) []planOption {
	var opts []planOption
	for bs := 2; bs <= lt.Slots; bs <<= 1 {
		pl := newBSGSPlan(lt.Diags, bs)
		if bs < lt.Slots && !pl.hasGiantStep() {
			continue
		}
		w := sweepCostAt(p, p.MaxLevel(), pl).weight(p.LogN())
		opts = append(opts, planOption{plan: pl, rots: pl.rotations(), weight: w})
	}
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].weight < opts[j].weight })
	return opts
}

// planSweeps chooses one plan per transform by the one selection rule: the
// set may hold no more distinct Galois keys than the union of each
// transform's leanest plan (fewest keys, ties to the cheaper), and within that
// budget the assignment of least total modeled weight wins. A transform
// planned alone thus gets its leanest plan; a set planned together may trade
// keys between its members, since a key two of them share is paid once.
func planSweeps(p *Parameters, lts []*LinearTransform) []*bsgsPlan {
	opts := make([][]planOption, len(lts))
	budget := make(map[int]bool)
	for i, lt := range lts {
		opts[i] = lt.planOptions(p)
		lean := opts[i][0]
		for _, o := range opts[i][1:] {
			if len(o.rots) < len(lean.rots) {
				lean = o
			}
		}
		for _, r := range lean.rots {
			budget[r] = true
		}
	}

	// Branch and bound over the assignments, each transform's options cheapest
	// first: a branch ends when its weight plus the cheapest completion cannot
	// beat the best assignment found, or when its keys exceed the budget (a
	// union only grows). The leanest plans are within budget, so one is found.
	rest := make([]int64, len(lts)+1) // rest[i]: Σ_{j ≥ i} cheapest weight
	for i := len(lts) - 1; i >= 0; i-- {
		rest[i] = rest[i+1] + opts[i][0].weight
	}
	uses := make(map[int]int) // rotation -> options of the branch needing it
	pick, best := make([]int, len(lts)), make([]int, len(lts))
	bestWeight := int64(math.MaxInt64)
	var search func(i int, w int64)
	search = func(i int, w int64) {
		if i == len(lts) {
			bestWeight = w
			copy(best, pick)
			return
		}
		for k, o := range opts[i] {
			if w+o.weight+rest[i+1] >= bestWeight {
				return
			}
			for _, r := range o.rots {
				uses[r]++
			}
			if len(uses) <= len(budget) {
				pick[i] = k
				search(i+1, w+o.weight)
			}
			for _, r := range o.rots {
				if uses[r]--; uses[r] == 0 {
					delete(uses, r)
				}
			}
		}
	}
	search(0, 0)

	plans := make([]*bsgsPlan, len(lts))
	for i, k := range best {
		plans[i] = opts[i][k].plan
	}
	return plans
}

// sweepPlan returns the transform's plan: the one fixed on it by fixPlan or,
// on first use, the selection rule applied to the transform alone. Cached.
func (lt *LinearTransform) sweepPlan(p *Parameters) *bsgsPlan {
	lt.planOnce.Do(func() { lt.plan = planSweeps(p, []*LinearTransform{lt})[0] })
	return lt.plan
}

// fixPlan sets the plan sweepPlan returns. It has no effect on a transform
// that has been planned already.
func (lt *LinearTransform) fixPlan(pl *bsgsPlan) {
	lt.planOnce.Do(func() { lt.plan = pl })
}

// GaloisKeysForLinearTransform returns the rotation indices the transforms'
// plans need: the baby ∪ giant set, which for the degenerate plan is the raw
// diagonal offsets. Each transform not yet planned is planned alone, so it
// gets its leanest plan — the same plan EvaluateLinearTransform then runs on
// any evaluator, a server's included.
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

// sweepKeys resolves the Galois key of every rotation the plan spends at
// level lvl, keyed by rotation index.
func (ev *Evaluator) sweepKeys(plan *bsgsPlan, lvl int) (map[int]*SwitchingKey, error) {
	rq := ev.params.RingQ()
	rots := plan.rotations()
	keys := make(map[int]*SwitchingKey, len(rots))
	for _, r := range rots {
		swk, err := ev.galoisKeyAt(rq.GaloisElement(r), lvl)
		if err != nil {
			return nil, err
		}
		keys[r] = swk
	}
	return keys, nil
}

// EvaluateLinearTransform computes M·u, rescaled, under the transform's plan
// (sweepPlan). The key set must hold the plan's baby + giant Galois keys at
// or above ct's level — GaloisKeysForLinearTransform names them, and the
// Bootstrapper generates them for its own transforms — or the call returns
// ErrMissingKey. The diagonals are encoded at the scale of the ciphertext's
// top prime and the sweep's closing ModDown drops that prime, so the output
// sits one level down at the input scale. A ciphertext at level 0 has no prime to drop:
// ErrLevel. Both errors come before anything is borrowed or written.
func (ev *Evaluator) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder) (*Ciphertext, error) {
	return ev.linearTransform(ct, lt, enc, 1, true)
}

// linearTransform is EvaluateLinearTransform with the two changes a
// bootstrap's DFT matrices use. The diagonals are encoded at gain·q_ℓ rather
// than q_ℓ: the output's plaintext is gain·M·u at the input scale, a real
// constant multiply that spends no level of its own, and its declared scale
// is the input's times gain. Without rescale the output stays at the input's
// level, at that scale times q_ℓ, for the caller to rescale.
func (ev *Evaluator) linearTransform(ct *Ciphertext, lt *LinearTransform, enc *Encoder, gain float64, rescale bool) (*Ciphertext, error) {
	if ct.Level() == 0 {
		return nil, errLevelZero
	}
	plan := lt.sweepPlan(ev.params)
	keys, err := ev.sweepKeys(plan, ct.Level())
	if err != nil {
		return nil, err
	}
	return ev.evaluateSweep(ct, lt, enc, plan, keys, gain, rescale)
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
	acc *giantAcc
	pt  encodedDiag
}

// evaluateSweep computes M·u under the given plan — the one linear-transform
// path: every baby rotation hoisted off one decomposition of c1, each nonzero
// giant's inner sum key-switched once with its ModDown deferred (double
// hoisting, Fig 1/Fig 5), PMULT and accumulation in the extended modulus PQ,
// a single ModDown at the end, merged with the rescale that drops q_lvl again
// (modDownRescale). keys holds the Galois key of every rotation in
// plan.rotations() (see sweepKeys). The diagonals are encoded at gain·q_lvl,
// and without rescale the tail is a plain ModDown (linearTransform; 1 and
// true are the plain transform). ct must sit above level 0.
func (ev *Evaluator) evaluateSweep(ct *Ciphertext, lt *LinearTransform, enc *Encoder,
	plan *bsgsPlan, keys map[int]*SwitchingKey, gain float64, rescale bool) (*Ciphertext, error) {
	defer obsLinTrans.done(time.Now())
	p := ev.params
	rq, rp := p.RingQ(), p.RingP()
	lvl := ct.Level()
	sweep := obs.DefaultTracer.Start("lintrans", 0)
	sweep.Annotate(fmt.Sprintf("bs=%d diags=%d ks=%d lvl=%d model_ms=%.2f", plan.bs, len(lt.Diags),
		plan.keySwitchCount(), lvl, sweepCostAt(p, lvl, plan).ms(p)))
	defer sweep.End()

	q := float64(rq.Moduli[lvl].Q)
	ptScale := q * gain

	diags, err := lt.encodedAt(enc, lvl, ptScale, plan)
	if err != nil {
		return nil, err
	}

	lvlP := rp.MaxLevel()

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
			perBaby[d.b] = append(perBaby[d.b], bsgsBabyTarget{acc: accs[i], pt: ed})
		}
	}

	// Baby step, one limb-major Run: the b == 0 products, then one gadget
	// product per distinct nonzero baby offset, shared across every giant
	// consuming it. The key-switched halves stay in the extended QP basis — no
	// per-baby ModDown (first hoisting level) — and every accumulator leaves
	// the Run exact.
	dec := ev.decompose(ct.C1, lvl)
	ev.babyPhase(dec, ct, plan, keys, perBaby)
	dec.release(p)

	// Giant step: key-switch each nonzero giant's inner sum once by its
	// rotation. The inner sum's c1 is reconstructed in Q (one ModDown of the
	// baby accumulators with the b == 0 term added in its chain), decomposed,
	// and the gadget product's v0 half accumulates straight onto the giant's
	// T0 so the σ_g permutation applies to the sum once — the final ModDown of
	// the whole sweep stays deferred (second hoisting level).
	for i, g := range plan.giants {
		ga := accs[i]
		if g.rot == 0 {
			continue
		}
		span := obs.DefaultTracer.Start("lintrans-giant", sweep.ID())
		span.Annotate(fmt.Sprintf("rot=%d diags=%d", g.rot, len(g.diags)))

		t1 := ga.a1q // a giant with only a b == 0 diagonal
		if ga.t1q != nil {
			t1 = ev.modDown([2]*ring.Poly{ga.t1q}, [2]*ring.Poly{ga.t1p}, [2]*ring.Poly{ga.a1q}, 0, lvl)[0]
			rq.PutPoly(ga.t1q)
			rp.PutPoly(ga.t1p)
			ga.t1q, ga.t1p = nil, nil
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

	// The diagonals multiplied the scale by ptScale and the rescale divides
	// q_lvl out again, in that order, as a separate Rescale would.
	scale := ct.Scale * ptScale
	var out *Ciphertext
	switch {
	case final.t0q != nil && rescale:
		c0, c1 := ev.modDownRescale(final.t0q, final.t0p, final.t1q, final.t1p, final.a0q, final.a1q, lvl)
		final.release(rq, rp)
		return &Ciphertext{C0: c0, C1: c1, Scale: scale / q}, nil
	case final.t0q != nil:
		c := ev.modDown([2]*ring.Poly{final.t0q, final.t1q}, [2]*ring.Poly{final.t0p, final.t1p}, [2]*ring.Poly{final.a0q, final.a1q}, 0, lvl)
		final.release(rq, rp)
		out = &Ciphertext{C0: c[0], C1: c[1], Scale: scale}
	case final.a0q != nil:
		// Only the r == 0 diagonal: its two products are the result.
		out = &Ciphertext{C0: final.a0q, C1: final.a1q, Scale: scale}
	default:
		out = ev.zeroCiphertext(lvl, scale) // a transform without diagonals
	}
	if rescale {
		return ev.rescaleOwned(out), nil
	}
	return out, nil
}
