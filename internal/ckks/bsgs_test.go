package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// sweepWith evaluates lt under an explicit baby step, resolving the plan's
// Galois keys from the context's key set.
func (tc *testContext) sweepWith(t testing.TB, ct *Ciphertext, lt *LinearTransform, bs int) *Ciphertext {
	t.Helper()
	plan := newBSGSPlan(lt.Diags, bs)
	keys, err := tc.eval.sweepKeys(plan, ct.Level())
	if err != nil {
		t.Fatal(err)
	}
	out, err := tc.eval.evaluateSweep(ct, lt, tc.enc, plan, keys, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// denseTestTransform builds a K-diagonal contiguous transform with random
// entries, the shape of a grouped bootstrap DFT matrix.
func denseTestTransform(r *rand.Rand, slots, k int) *LinearTransform {
	diags := make(map[int][]complex128, k)
	for d := 0; d < k; d++ {
		row := make([]complex128, slots)
		for j := range row {
			row[j] = complex((2*r.Float64()-1)*0.5, (2*r.Float64()-1)*0.5)
		}
		diags[d] = row
	}
	return NewLinearTransform(slots, diags)
}

// TestBSGSMatchesDegenerateAndApply is the core differential: the sweep must
// agree with both the plaintext Apply oracle and its own degenerate
// (per-diagonal) plan, at every level that can host a transform, for the cost
// model's baby step and for forced ones.
func TestBSGSMatchesDegenerateAndApply(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(60))
	slots := tc.params.Slots()
	const k = 16
	lt := denseTestTransform(r, slots, k)
	auto := lt.sweepPlan(tc.params).bs
	steps := []int{auto, 2, 4, int(math.Ceil(math.Sqrt(k))), slots}
	for _, bs := range steps {
		tc.kgen.GenRotationKeys(tc.sk, tc.keys, newBSGSPlan(lt.Diags, bs).rotations())
	}

	u := randomComplex(r, slots, 1)
	want := lt.Apply(u)
	ctTop := tc.encryptVec(t, u)

	for lvl := 1; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := dropTo(tc.eval, ctTop, lvl)
		ref := tc.decryptVec(tc.sweepWith(t, ct, lt, slots))
		if e := maxErr(ref, want); e > 1e-3 {
			t.Fatalf("lvl %d: degenerate plan vs Apply error %g", lvl, e)
		}
		for _, bs := range steps[:len(steps)-1] {
			got := tc.decryptVec(tc.sweepWith(t, ct, lt, bs))
			if e := maxErr(got, want); e > 1e-3 {
				t.Fatalf("bs %d lvl %d: sweep vs Apply error %g", bs, lvl, e)
			}
			if e := maxErr(got, ref); e > 1e-3 {
				t.Fatalf("bs %d lvl %d: sweep vs degenerate plan divergence %g", bs, lvl, e)
			}
		}
	}
}

// TestBSGSDFTAllFFTIters runs the homomorphic CoeffToSlot -> SlotToCoeff
// round trip through the dispatcher for every fftIter grouping, with only
// the keys GaloisKeysForLinearTransform asks for — the configuration the
// bootstrapper runs.
func TestBSGSDFTAllFFTIters(t *testing.T) {
	// Deep enough chain for the fftIter=4 round trip (8 rescales).
	lit := TestParameters()
	lit.LogQ = append([]int{55}, repeatInts(45, 8)...)
	for fftIter := 1; fftIter <= 4; fftIter++ {
		t.Run(fmt.Sprintf("fftIter=%d", fftIter), func(t *testing.T) {
			tc := newTestContext(t, lit)
			c2s := tc.enc.CoeffToSlotMatrices(fftIter)
			s2c := tc.enc.SlotToCoeffMatrices(fftIter)
			lts := append(append([]*LinearTransform{}, c2s...), s2c...)
			tc.kgen.GenRotationKeys(tc.sk, tc.keys,
				GaloisKeysForLinearTransform(tc.params, lts...))

			r := rand.New(rand.NewSource(int64(61 + fftIter)))
			u := randomComplex(r, tc.params.Slots(), 1)
			ct := tc.encryptVec(t, u)
			for _, g := range lts {
				var err error
				ct, err = tc.eval.EvaluateLinearTransform(ct, g, tc.enc)
				if err != nil {
					t.Fatal(err)
				}
			}
			if e := maxErr(tc.decryptVec(ct), u); e > 1e-3 {
				t.Fatalf("fftIter=%d: S2C∘C2S round trip error %g", fftIter, e)
			}
		})
	}
}

// TestBSGSRotationCount pins the headline saving: a K-diagonal sweep under
// baby step bs spends exactly (bs-1) + (⌈K/bs⌉-1) key-switch gadget
// products, observed through the ckks_lintrans_rotations_total counter; the
// degenerate per-diagonal plan spends K-1. Also checks trace parity: with
// bs = ⌈√K⌉ the plan's count matches the sim's linearHoisted EvkCount
// formula bs + ⌈K/bs⌉ - 2.
func TestBSGSRotationCount(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(62))
	slots := tc.params.Slots()
	const k = 16
	lt := denseTestTransform(r, slots, k)
	plan := newBSGSPlan(lt.Diags, 4)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, append(plan.rotations(), newBSGSPlan(lt.Diags, slots).rotations()...))

	wantKS := (4 - 1) + (k/4 - 1)
	if got := plan.keySwitchCount(); got != wantKS {
		t.Fatalf("plan keySwitchCount = %d, want %d", got, wantKS)
	}

	ct := tc.encryptVec(t, randomComplex(r, slots, 1))
	before := obsLinTransRotations.Value()
	tc.sweepWith(t, ct, lt, 4)
	if got := int(obsLinTransRotations.Value() - before); got != wantKS {
		t.Fatalf("BSGS sweep spent %d key switches, want %d", got, wantKS)
	}

	before = obsLinTransRotations.Value()
	tc.sweepWith(t, ct, lt, slots)
	if got := int(obsLinTransRotations.Value() - before); got != k-1 {
		t.Fatalf("per-diagonal sweep spent %d key switches, want %d", got, k-1)
	}

	// Trace parity: the sim's linearHoisted models bs-1 baby KeyMults and
	// gs-1 giant KeyMults with bs = ceil(sqrt(k)).
	bsTrace := int(math.Ceil(math.Sqrt(float64(k))))
	gsTrace := (k + bsTrace - 1) / bsTrace
	if got := newBSGSPlan(lt.Diags, bsTrace).keySwitchCount(); got != bsTrace+gsTrace-2 {
		t.Fatalf("trace parity: keySwitchCount = %d, want %d", got, bsTrace+gsTrace-2)
	}
}

// TestLinearTransformMissingKey: a key set without the Galois keys of the
// transform's plan fails EvaluateLinearTransform with ErrMissingKey before the
// sweep borrows or returns a pooled polynomial — as it fails Rotate and
// Conjugate without theirs — and the keys GaloisKeysForLinearTransform names
// then evaluate it. The held keys are the raw diagonal offsets, all odd, so
// they lack every giant rotation of any factorization with a giant step.
func TestLinearTransformMissingKey(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(63))
	slots := tc.params.Slots()
	const k = 16
	dense := denseTestTransform(r, slots, k)
	diags := make(map[int][]complex128)
	for d := 1; d < 2*k; d += 2 {
		diags[d] = dense.Diags[d/2]
	}
	lt := NewLinearTransform(slots, diags)
	if plan := lt.sweepPlan(tc.params); plan.bs >= slots {
		t.Fatalf("cost model chose the degenerate plan (bs=%d), which the raw offsets serve", plan.bs)
	}
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, newBSGSPlan(lt.Diags, slots).rotations())

	u := randomComplex(r, slots, 1)
	ct := tc.encryptVec(t, u)
	pool := func() float64 {
		return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
			obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value() +
			obs.Default.Counter("ring_pool_puts_total").Value()
	}
	for name, op := range map[string]func() (*Ciphertext, error){
		"EvaluateLinearTransform": func() (*Ciphertext, error) { return tc.eval.EvaluateLinearTransform(ct, lt, tc.enc) },
		"Rotate":                  func() (*Ciphertext, error) { return tc.eval.Rotate(ct, 2) },
		"Conjugate":               func() (*Ciphertext, error) { return tc.eval.Conjugate(ct) },
	} {
		before := pool()
		if out, err := op(); !errors.Is(err, ErrMissingKey) || out != nil {
			t.Errorf("%s with the raw-offset keys: (%v, %v), want ErrMissingKey", name, out, err)
		}
		if n := pool() - before; n != 0 {
			t.Errorf("%s moved %v polynomials through the pool before failing", name, n)
		}
	}

	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, lt))
	got, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(got), lt.Apply(u)); e > 1e-3 {
		t.Fatalf("planned sweep error %g", e)
	}
}

// TestBSGSSweepPerLevel runs the baby-step/giant-step sweep at every level a
// rescale can reach: the shared decomposition and each giant's second one
// are cut into however many digits the level has, down to one.
func TestBSGSSweepPerLevel(t *testing.T) {
	tc := newTestContext(t, alpha4Params())
	r := rand.New(rand.NewSource(64))
	slots := tc.params.Slots()
	lt := denseTestTransform(r, slots, 8)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, newBSGSPlan(lt.Diags, 4).rotations())

	u := randomComplex(r, slots, 1)
	want := lt.Apply(u)
	ctTop := tc.encryptVec(t, u)
	for lvl := 1; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := dropTo(tc.eval, ctTop, lvl)
		got := tc.sweepWith(t, ct, lt, 4)
		if e := maxErr(tc.decryptVec(got), want); e > 1e-2 {
			t.Fatalf("lvl %d: sweep error %g", lvl, e)
		}
	}
}

// TestEncCacheConcurrent hammers the encoded-diagonal cache from many
// goroutines across levels and two plans (plain + pre-rotated variants) under
// -race: the singleflight must produce one consistent entry per key and the
// byte gauge must account every cached coefficient.
func TestEncCacheConcurrent(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(65))
	lt := denseTestTransform(r, tc.params.Slots(), 8)
	plans := []*bsgsPlan{newBSGSPlan(lt.Diags, lt.Slots), newBSGSPlan(lt.Diags, 4)}

	rq := tc.params.RingQ()
	gauge := obsLinTransCacheBytes.Value()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				lvl := 1 + (w+i)%tc.params.MaxLevel()
				scale := float64(rq.Moduli[lvl].Q)
				for _, plan := range plans {
					if _, err := lt.encodedAt(tc.enc, lvl, scale, plan); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if want := tc.params.MaxLevel() * len(plans); len(lt.encCache) != want {
		t.Fatalf("%d cached encodings, want one per (level, plan): %d", len(lt.encCache), want)
	}
	var held int64
	for _, e := range lt.encCache {
		for _, d := range e.diags {
			held += d.bytes()
		}
	}
	if got := obsLinTransCacheBytes.Value() - gauge; held <= 0 || got != held {
		t.Fatalf("gauge grew by %d bytes, the cache holds %d", got, held)
	}
}

// TestComposeDiagSparse checks the sparse composition against a dense
// reference on rows with structural zeros, and that offsets whose product
// vanishes identically are never materialized.
func TestComposeDiagSparse(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(66))
	sparseRow := func(support ...int) []complex128 {
		row := make([]complex128, n)
		for _, j := range support {
			row[j] = complex(2*r.Float64()-1, 2*r.Float64()-1)
		}
		return row
	}
	a := diagMap{0: sparseRow(0, 1, 2, 3), 2: sparseRow(4, 5)}
	b := diagMap{0: sparseRow(0, 2, 4, 6), 6: sparseRow(1, 3)}

	got := composeDiag(a, b, n)

	// Dense reference: C_t[j] = Σ_{r+s≡t} A_r[j]·B_s[(j+r) mod n].
	want := map[int][]complex128{}
	for t2 := 0; t2 < n; t2++ {
		want[t2] = make([]complex128, n)
	}
	for ra, ar := range a {
		for s, bs := range b {
			tt := ((ra+s)%n + n) % n
			for j := 0; j < n; j++ {
				want[tt][j] += ar[j] * bs[(j+ra)%n]
			}
		}
	}
	for t2, wrow := range want {
		grow, ok := got[t2]
		nonzero := false
		for _, v := range wrow {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			if ok {
				t.Fatalf("offset %d: zero product materialized a row", t2)
			}
			continue
		}
		if !ok {
			t.Fatalf("offset %d: missing row", t2)
		}
		if e := maxErr(grow, wrow); e > 1e-12 {
			t.Fatalf("offset %d: sparse compose error %g", t2, e)
		}
	}
}

// TestBSGSAutoSelection pins the cost model's direction at test scale: a
// dense contiguous diagonal set must select a baby step while a 2-diagonal
// map must stay on the degenerate per-diagonal plan, and the selected plan
// must never need more key switches than the per-diagonal sweep it replaces.
func TestBSGSAutoSelection(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(67))
	slots := tc.params.Slots()

	dense := denseTestTransform(r, slots, 32)
	plan := dense.sweepPlan(tc.params)
	if plan.bs >= slots {
		t.Fatal("dense 32-diagonal transform did not select a BSGS factorization")
	}
	if plan.keySwitchCount() >= 31 {
		t.Fatalf("BSGS plan spends %d key switches, per-diagonal needs 31", plan.keySwitchCount())
	}

	tiny := denseTestTransform(r, slots, 2)
	if p := tiny.sweepPlan(tc.params); p.bs != slots || len(p.giants) != 1 {
		t.Fatalf("2-diagonal transform selected bs=%d with %d giants", p.bs, len(p.giants))
	}
}

// leanestBudget is the selection rule's key budget, derived the plain way:
// the union of each transform's plan with the fewest keys, ties to the lower
// weight.
func leanestBudget(p *Parameters, lts []*LinearTransform) (keys map[int]bool, weight int64) {
	keys = make(map[int]bool)
	for _, lt := range lts {
		opts := lt.planOptions(p)
		lean := opts[0]
		for _, o := range opts {
			if len(o.rots) < len(lean.rots) || len(o.rots) == len(lean.rots) && o.weight < lean.weight {
				lean = o
			}
		}
		for _, r := range lean.rots {
			keys[r] = true
		}
		weight += lean.weight
	}
	return keys, weight
}

// planSetCost returns the distinct Galois keys and the total modeled weight of
// one plan per transform, priced as planOptions prices them.
func planSetCost(p *Parameters, plans []*bsgsPlan) (keys map[int]bool, weight int64) {
	keys = make(map[int]bool)
	for _, pl := range plans {
		for _, r := range pl.rotations() {
			keys[r] = true
		}
		weight += sweepCostAt(p, p.MaxLevel(), pl).weight(p.LogN())
	}
	return keys, weight
}

// TestPlanSweepsMatchesBruteForce checks the branch and bound against an
// exhaustive enumeration of every assignment: the bootstrap DFT sets at two
// groupings and random sparse sets whose transforms share many offsets. The
// planner's set must fit the leanest budget and weigh what the cheapest
// assignment within it weighs; in some random sets that is less than the
// leanest plans weigh.
func TestPlanSweepsMatchesBruteForce(t *testing.T) {
	params, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	slots := params.Slots()
	sets := map[string][]*LinearTransform{
		"dft2": append(enc.CoeffToSlotMatrices(2), enc.SlotToCoeffMatrices(2)...),
		"dft3": append(enc.CoeffToSlotMatrices(3), enc.SlotToCoeffMatrices(3)...),
	}
	r := rand.New(rand.NewSource(68))
	for s := 0; s < 8; s++ {
		var lts []*LinearTransform
		for i := 0; i < 4; i++ {
			offsets := make([]int, 4+r.Intn(8))
			for j := range offsets {
				offsets[j] = r.Intn(48)
			}
			lts = append(lts, randomSparseLT(r, slots, offsets))
		}
		sets[fmt.Sprintf("random%d", s)] = lts
	}

	traded := 0
	for name, lts := range sets {
		budget, leanWeight := leanestBudget(params, lts)
		opts := make([][]planOption, len(lts))
		for i, lt := range lts {
			opts[i] = lt.planOptions(params)
		}
		best := int64(math.MaxInt64)
		stamp, seen := 0, make([]int, slots)
		for idx := make([]int, len(lts)); ; {
			stamp++
			n, w := 0, int64(0)
			for i, k := range idx {
				w += opts[i][k].weight
				for _, rot := range opts[i][k].rots {
					if seen[rot] != stamp {
						seen[rot] = stamp
						n++
					}
				}
			}
			if n <= len(budget) && w < best {
				best = w
			}
			i := 0
			for ; i < len(idx); i++ {
				if idx[i]++; idx[i] < len(opts[i]) {
					break
				}
				idx[i] = 0
			}
			if i == len(idx) {
				break
			}
		}

		keys, weight := planSetCost(params, planSweeps(params, lts))
		if len(keys) > len(budget) {
			t.Errorf("%s: planned set holds %d keys, budget %d", name, len(keys), len(budget))
		}
		if weight != best {
			t.Errorf("%s: planned weight %d, exhaustive optimum %d", name, weight, best)
		}
		if weight < leanWeight {
			traded++
		}
	}
	if traded == 0 {
		t.Error("no set planned below its leanest plans' weight: the budget was never traded")
	}
}

// TestBootstrapPlanWithinLeanestBudget pins the joint plan of boot_n12's six
// DFT matrices (logN 12, CoeffToSlot then SlotToCoeff, three groups each): no
// more Galois keys than the leanest plans' 31, no more modeled time than
// theirs, and — where the joint rule moves two matrices to longer baby steps
// that re-use keys the others hold — the assignment DESIGN.md §3.8.6 quotes.
// A copy of each matrix planned alone gets its leanest plan through both
// GaloisKeysForLinearTransform and sweepPlan, the call EvaluateLinearTransform
// makes, so a server planning a registered transform finds the client's keys.
func TestBootstrapPlanWithinLeanestBudget(t *testing.T) {
	lit := BootTestParameters()
	lit.LogN = 12
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	cfg := DefaultBootstrapConfig()
	dft := func() []*LinearTransform {
		return append(enc.CoeffToSlotMatrices(cfg.FFTIterC2S), enc.SlotToCoeffMatrices(cfg.FFTIterS2C)...)
	}
	lts := dft()
	plans := planSweeps(params, lts)
	budget, leanWeight := leanestBudget(params, lts)
	keys, weight := planSetCost(params, plans)
	if len(budget) != 31 || len(keys) != 31 {
		t.Errorf("joint plan holds %d Galois keys against a leanest budget of %d, want 31 and 31", len(keys), len(budget))
	}
	if weight > leanWeight {
		t.Errorf("joint plan weighs %d, the leanest plans %d", weight, leanWeight)
	}
	wantBS := []int{1024, 64, 8, 8, 128, 1024}
	for i, pl := range plans {
		if pl.bs != wantBS[i] {
			t.Errorf("matrix %d: joint plan bs %d, want %d", i, pl.bs, wantBS[i])
		}
	}

	leanBS := []int{512, 64, 4, 8, 128, 1024}
	for i, lt := range dft() {
		alone := &LinearTransform{Slots: lt.Slots, Diags: lt.Diags}
		viaKeys := GaloisKeysForLinearTransform(params, lt)
		if pl := alone.sweepPlan(params); pl.bs != leanBS[i] || !slices.Equal(pl.rotations(), viaKeys) {
			t.Errorf("matrix %d alone: sweepPlan bs %d rotations %v, GaloisKeysForLinearTransform %v, want bs %d",
				i, pl.bs, pl.rotations(), viaKeys, leanBS[i])
		}
	}
}

// TestPlanAloneKeepsServeMap pins the serving workload's 8-diagonal map:
// planned alone it keeps bs 4 and the keys {1, 2, 3, 4}, at the serve
// parameters and at the bootstrap ones.
func TestPlanAloneKeepsServeMap(t *testing.T) {
	for _, lit := range []ParametersLiteral{
		{LogN: 12, LogQ: append([]int{55}, repeatInts(45, 9)...), LogP: repeatInts(58, 3), LogScale: 45},
		BootTestParameters(),
	} {
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		lt := denseTestTransform(rand.New(rand.NewSource(69)), params.Slots(), 8)
		pl := lt.sweepPlan(params)
		if rots := GaloisKeysForLinearTransform(params, lt); pl.bs != 4 || !slices.Equal(rots, []int{1, 2, 3, 4}) {
			t.Errorf("logN %d: 8-diagonal map planned bs %d with keys %v, want bs 4 with [1 2 3 4]", lit.LogN, pl.bs, rots)
		}
	}
}
