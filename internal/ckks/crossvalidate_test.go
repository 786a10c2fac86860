package ckks

import (
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/trace"
)

// Cross-validation between the two halves of the repository: the simulator's
// kernel traces (internal/trace) claim specific (I)NTT limb-transform counts
// for each CKKS operation; the functional library, instrumented with ring
// counters, must actually perform those counts. This pins the performance
// model to the real algorithms.

// traceParamsFor mirrors the functional parameter shape in the trace layer.
func traceParamsFor(p *Parameters) trace.Params {
	return trace.Params{
		LogN:      p.LogN(),
		N:         p.N(),
		L:         p.MaxLevel() + 1,
		Alpha:     p.Alpha(),
		D:         p.Digits(p.MaxLevel()),
		WordBytes: 8,
	}
}

// countTransforms returns the limb transforms (forward + inverse, Q and P
// rings) f performs.
func countTransforms(p *Parameters, f func()) int {
	total := func() int64 {
		nq, iq := p.RingQ().Counters()
		np, ip := p.RingP().Counters()
		return nq + iq + np + ip
	}
	before := total()
	f()
	return int(total() - before)
}

// modUpTransforms is what one decomposition costs under pl: the INTT of the
// input's ℓ+1 limbs, then per digit the forward transform of every row of
// Q_ℓ ∪ P_α except the digit's own w_d limbs, which are the input's NTT rows.
func modUpTransforms(pl GadgetPlan) int {
	n := pl.Level + 1
	for d := 0; d < pl.Digits; d++ {
		lo, hi := pl.digitLimbs(d)
		n += pl.Level + 1 + pl.Alpha - (hi - lo)
	}
	return n
}

// modDownTransforms is the ModDown of k components: α inverse transforms of
// the P part and ℓ+1 forward transforms of the converted rows, each.
func modDownTransforms(pl GadgetPlan, k int) int { return k * (pl.Alpha + pl.Level + 1) }

// mergedTailTransforms is the ModDown of two components merged with the
// rescale that follows it: per component α inverse transforms of the P part,
// one of the top limb and ℓ forward ones of the kept limbs' correction rows —
// as many as the bare ModDown pair, where ModDown then Rescale pays
// 2(ℓ+1) more.
func mergedTailTransforms(pl GadgetPlan) int { return 2*pl.Alpha + 2 + 2*pl.Level }

// mulTransforms is an HMULT, (ℓ+1) + Σ_d(ℓ+1+α−w_d) + 2α + 2 + 2ℓ: one
// decomposition and the merged tail.
func mulTransforms(pl GadgetPlan) int { return modUpTransforms(pl) + mergedTailTransforms(pl) }

// hksShapeParams is the benchmark's hks_n16 limb shape (26 Q limbs, α = 7,
// D = 4 with digit widths 7/7/7/5 at the top) at a test-sized ring degree.
func hksShapeParams() ParametersLiteral {
	return ParametersLiteral{LogN: 10, LogQ: append([]int{55}, repeatInts(45, 25)...), LogP: repeatInts(50, 7), LogScale: 45}
}

// TestTraceMatchesFunctionalKeySwitchNTTCount pins the kernel multiset the
// evaluator runs to the closed form at three levels: a key switch is
// (ℓ+1) + Σ_d(ℓ+1+α−w_d) + 2α + 2(ℓ+1) limb transforms, a standalone rescale
// 2 + 2ℓ, and an HMULT, whose rescale rides its ModDown, mulTransforms — so
// the benchmark's HROT + HMULT step at the top of hks_n16 is 396, not the
// 448 a ModDown followed by a Rescale costs. The trace layer keeps modelling
// the paper's separate ModDown and rescale, so the step's gap to the trace's
// own count is pinned exactly: the 2(ℓ+1) transforms the merged tail saves,
// less the D·α − (ℓ+1) rows per key switch that a ragged last digit converts
// onto limbs the trace's ModUp does not count (none at level 20, four at
// level 23, two at the top: 444 − 52 + 4 = 396).
func TestTraceMatchesFunctionalKeySwitchNTTCount(t *testing.T) {
	tc := newTestContext(t, hksShapeParams())
	p, ev := tc.params, tc.eval
	ct := tc.encryptVec(t, randomComplex(rand.New(rand.NewSource(110)), p.Slots(), 1))
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})

	for _, lvl := range []int{p.MaxLevel(), 23, 20} {
		pl := p.PlanAt(lvl)
		a := dropTo(ev, ct, lvl)
		wantKS := modUpTransforms(pl) + modDownTransforms(pl, 2)
		if got := countTransforms(p, func() { ev.keySwitch(a.C1, lvl, tc.keys.Rlk, nil, 0) }); got != wantKS {
			t.Errorf("lvl %d %+v: key switch runs %d limb transforms, formula says %d", lvl, pl, got, wantKS)
		}
		if got := countTransforms(p, func() { ev.rescale(a) }); got != 2+2*lvl {
			t.Errorf("lvl %d: rescale runs %d limb transforms, want %d", lvl, got, 2+2*lvl)
		}
		if got := countTransforms(p, func() { ev.mul(a, a) }); got != mulTransforms(pl) {
			t.Errorf("lvl %d: HMULT runs %d limb transforms, want %d", lvl, got, mulTransforms(pl))
		}
		step := countTransforms(p, func() {
			rot, err := ev.Rotate(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			ev.mul(rot, a)
		})
		if want := wantKS + mulTransforms(pl); step != want {
			t.Errorf("lvl %d: HROT+HMULT runs %d limb transforms, want %d", lvl, step, want)
		}

		b := trace.NewBuilder(traceParamsFor(p), trace.GPUBaseline(), "step")
		b.HROT(lvl)
		b.HMULT(lvl)
		predicted := int(b.T.NTTLimbTransforms())
		ragged := pl.Digits*pl.Alpha - (lvl + 1)
		if gap := predicted - step; gap != 2*(lvl+1)-2*ragged {
			t.Errorf("lvl %d: trace %d vs functional %d limb transforms: gap %d, want 2(ℓ+1) − 2·%d = %d",
				lvl, predicted, step, gap, ragged, 2*(lvl+1)-2*ragged)
		}
	}
}

// TestHoistedDigitsTransformOnce pins the hoisting of the per-limb ModUp: a
// shared decomposition pays its digit conversions and transforms once, in the
// baby phase's Run, however many babies consume it,
// every nonzero giant pays one ModDown plus one more decomposition, and the
// sweep closes with the merged tail.
func TestHoistedDigitsTransformOnce(t *testing.T) {
	tc := newTestContext(t, hksShapeParams())
	p := tc.params
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1, 2, 3, 4})
	r := rand.New(rand.NewSource(112))
	ct := tc.encryptVec(t, randomComplex(r, p.Slots(), 1))
	pl := p.PlanAt(ct.Level())

	// Diagonals 0..7 at baby step 4: babies 1..3 off one decomposition, one
	// nonzero giant (rotation 4), one final ModDown pair merged with the
	// rescale.
	lt := denseTestTransform(r, p.Slots(), 8)
	plan := newBSGSPlan(lt.Diags, 4)
	keys, err := tc.eval.sweepKeys(plan, ct.Level())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		if _, err := tc.eval.evaluateSweep(ct, lt, tc.enc, plan, keys, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // encodes and caches the diagonals, which transforms them
	want := 2*modUpTransforms(pl) + modDownTransforms(pl, 1) + mergedTailTransforms(pl)
	if got := countTransforms(p, sweep); got != want {
		t.Errorf("BSGS sweep runs %d limb transforms, want %d", got, want)
	}
}

// TestSweepCostCountsWhatRuns pins the sweep cost model to the library: for
// every candidate plan of three transforms — dense, scattered (giants no baby
// feeds) and one whose small baby steps leave no baby at all — at three levels
// (two full digits, a ragged last digit, one digit), sweepCostAt's NTT rows
// are the limb transforms the sweep runs, and its key-switch count is what
// ckks_lintrans_rotations_total advances by.
func TestSweepCostCountsWhatRuns(t *testing.T) {
	tc := newTestContext(t, alpha4Params())
	p := tc.params
	r := rand.New(rand.NewSource(113))
	slots := p.Slots()
	lts := []*LinearTransform{
		denseTestTransform(r, slots, 16),
		randomSparseLT(r, slots, []int{0, 3, 8, 16, 19, 64, 100, 200}),
		randomSparseLT(r, slots, []int{0, 4, 8}),
	}
	for _, lt := range lts {
		for _, o := range lt.planOptions(p) {
			tc.kgen.GenRotationKeys(tc.sk, tc.keys, o.rots)
		}
	}
	ctTop := tc.encryptVec(t, randomComplex(r, slots, 1))

	for _, lvl := range []int{p.MaxLevel(), 4, 2} {
		ct := dropTo(tc.eval, ctTop, lvl)
		ptScale := float64(p.RingQ().Moduli[lvl].Q)
		for i, lt := range lts {
			for _, o := range lt.planOptions(p) {
				keys, err := tc.eval.sweepKeys(o.plan, lvl)
				if err != nil {
					t.Fatal(err)
				}
				// Encode outside the count: encoding transforms the diagonals.
				if _, err := lt.encodedAt(tc.enc, lvl, ptScale, o.plan); err != nil {
					t.Fatal(err)
				}
				want := sweepCostAt(p, lvl, o.plan)
				before := obsLinTransRotations.Value()
				got := countTransforms(p, func() {
					out, err := tc.eval.evaluateSweep(ct, lt, tc.enc, o.plan, keys, 1, true)
					if err != nil {
						t.Fatal(err)
					}
					tc.eval.Release(out)
				})
				if got != want.nttRows {
					t.Errorf("lvl %d transform %d bs %d: sweep runs %d limb transforms, model counts %d",
						lvl, i, o.plan.bs, got, want.nttRows)
				}
				ks := int(obsLinTransRotations.Value() - before)
				if ks != want.keySwitches || ks != o.plan.keySwitchCount() {
					t.Errorf("lvl %d transform %d bs %d: sweep spends %d key switches, model %d, plan %d",
						lvl, i, o.plan.bs, ks, want.keySwitches, o.plan.keySwitchCount())
				}
			}
		}
	}
}

func TestTraceMatchesFunctionalHoistingSavings(t *testing.T) {
	// Hoisting's (I)NTT savings must appear in the functional library with
	// the magnitude the trace predicts: the per-diagonal sweep of K rotated
	// diagonals shares one ModUp across its K key switches and closes with one
	// ModDown pair (merged with its rescale, which costs no transform more),
	// so it runs the limb transforms of one rotation where K separate
	// rotations run K times as many.
	tc := newTestContext(t, TestParameters())
	rots := []int{1, 2, 3, 5, 7, 11}
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, rots)
	r := rand.New(rand.NewSource(111))
	slots := tc.params.Slots()
	ct := tc.encryptVec(t, randomComplex(r, slots, 1))
	diags := make(map[int][]complex128, len(rots))
	for _, k := range rots {
		diags[k] = randomComplex(r, slots, 1)
	}
	lt := NewLinearTransform(slots, diags)

	tc.sweepWith(t, ct, lt, slots) // encodes the diagonals, which transforms them
	hoisted := countTransforms(tc.params, func() { tc.sweepWith(t, ct, lt, slots) })
	separate := countTransforms(tc.params, func() {
		for _, k := range rots {
			if _, err := tc.eval.Rotate(ct, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	if separate != len(rots)*hoisted {
		t.Fatalf("hoisted sweep runs %d limb transforms, %d rotations %d: want a %dx saving",
			hoisted, len(rots), separate, len(rots))
	}
	t.Logf("hoisting: %d vs %d limb transforms", hoisted, separate)
}
