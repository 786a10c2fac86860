package ckks

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// richLevelAwareParams exercises a wide spread of plan shapes: α_top = 4
// with generous 51-bit special primes, so the selected plans range from
// (alpha 1, one digit) at level 0 through fresh P-prefix bands, including
// an alpha = α_top band whose width 5 straddles the base stride (and so
// must be freshly generated, not merged).
func richLevelAwareParams() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     []int{45, 35, 35, 35, 35, 35, 35, 35},
		LogP:     []int{51, 51, 51, 51},
		LogScale: 35,
	}
}

// mergedLevelAwareParams is shaped so the dominant band is a genuine
// digit-merged one: α_top = 2 and the mid/high levels select width 4 =
// 2·α_top with full P, which keygen realizes by summing adjacent base
// digits instead of fresh sampling.
func mergedLevelAwareParams() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     []int{28, 28, 28, 28, 28, 28, 28, 28, 28},
		LogP:     []int{59, 59},
		LogScale: 25,
	}
}

// legacyEvaluator returns an evaluator over tc's keys with every gadget band
// stripped — what a pre-band key blob decodes to — so each of its key
// switches resolves to the legacy level-oblivious shape.
func legacyEvaluator(tc *testContext) *Evaluator {
	return NewEvaluator(tc.params, stripBands(tc.keys))
}

// ksAnalyticSlotBound is the worst-case extra slot error one key switch
// under the plan may add: each digit contributes ||ĉ_d·e_d||/P_alpha with
// ||ĉ_d|| < Q_d/2 and the validator's guarantee Q_d ≤ P_alpha, plus the
// ModDown rounding term (1+h)/2; a merged band's error grows by the merge
// factor. Coefficient error spreads across slots by at most N through the
// embedding and is divided by the scale on decode. The 32x margin absorbs
// the crudeness of the worst-case norms — the bound's job is to be
// plan-sensitive (a plan whose digit product overruns P_alpha blows it up
// by ~2^{overrun bits}), not tight.
func ksAnalyticSlotBound(p *Parameters, pl GadgetPlan) float64 {
	lp := 0.0
	for _, pm := range p.RingP().Moduli[:pl.Alpha] {
		lp += math.Log2(float64(pm.Q))
	}
	mf := 1.0
	if pl.Alpha == p.Alpha() && pl.Width%p.Alpha() == 0 && pl.Width > p.Alpha() {
		mf = float64(pl.Width / p.Alpha())
	}
	n := float64(p.N())
	digitSum := 0.0
	for d := 0; d < pl.Digits; d++ {
		lq := 0.0
		lo, hi := d*pl.Width, min((d+1)*pl.Width, pl.Level+1)
		for _, qm := range p.RingQ().Moduli[lo:hi] {
			lq += math.Log2(float64(qm.Q))
		}
		digitSum += math.Exp2(lq - lp)
	}
	coeffErr := digitSum*n*6*p.Sigma()*mf/2 + float64(1+p.HDense())/2
	return coeffErr * n / p.DefaultScale() * 32
}

// rotated returns v cyclically rotated left by k.
func rotated(v []complex128, k int) []complex128 {
	n := len(v)
	out := make([]complex128, n)
	for i := range out {
		out[i] = v[(i+k)%n]
	}
	return out
}

// TestLevelAwareDifferentialPerLevel is the noise harness: at EVERY level of
// both parameter chains it rotates the same ciphertext under the level's plan
// and under the legacy shape (band-stripped keys) and asserts (a) both decrypt
// to the expected vector and (b) the level-aware path's measured noise stays
// within the legacy path's noise plus the plan's analytic budget. Bit-exactness
// of either shape against the exact kernels is TestDeterminismMatrix's job.
func TestLevelAwareDifferentialPerLevel(t *testing.T) {
	for name, lit := range map[string]ParametersLiteral{
		"rich":   richLevelAwareParams(),
		"merged": mergedLevelAwareParams(),
	} {
		t.Run(name, func(t *testing.T) {
			tc := newTestContext(t, lit)
			tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
			legacy := legacyEvaluator(tc)
			r := rand.New(rand.NewSource(42))
			v := randomComplex(r, tc.params.Slots(), 1)
			want := rotated(v, 1)
			ctTop := tc.encryptVec(t, v)

			for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
				ct := tc.eval.DropLevel(ctTop, lvl)
				pl := tc.params.PlanAt(lvl)

				ctAware, err := tc.eval.Rotate(ct, 1)
				if err != nil {
					t.Fatalf("lvl %d: aware rotate: %v", lvl, err)
				}
				ctObliv, err := legacy.Rotate(ct, 1)
				if err != nil {
					t.Fatalf("lvl %d: oblivious rotate: %v", lvl, err)
				}

				awareStats := ComputePrecision(tc.decryptVec(ctAware), want)
				oblivStats := ComputePrecision(tc.decryptVec(ctObliv), want)

				// (a) Both paths decrypt correctly. 1e-2 is the garbage cap:
				// any mis-cut digit or wrong P prefix produces O(1) noise.
				if awareStats.MaxErr > 1e-2 {
					t.Fatalf("lvl %d plan %+v: level-aware error %v", lvl, pl, awareStats)
				}
				if oblivStats.MaxErr > 1e-2 {
					t.Fatalf("lvl %d: level-oblivious error %v", lvl, oblivStats)
				}

				// (b) The level-aware noise stays within the legacy noise
				// plus the plan's analytic budget.
				bound := ksAnalyticSlotBound(tc.params, pl)
				if awareStats.MaxErr > oblivStats.MaxErr+bound {
					t.Fatalf("lvl %d plan %+v: level-aware noise %g exceeds legacy %g + analytic budget %g",
						lvl, pl, awareStats.MaxErr, oblivStats.MaxErr, bound)
				}

				// At the top level the plan is pinned to the legacy shape, so
				// the two paths must agree bit-for-bit, not just in norm.
				if lvl == tc.params.MaxLevel() {
					if !ctAware.C0.Equal(ctObliv.C0) || !ctAware.C1.Equal(ctObliv.C1) {
						t.Fatalf("top level: aware and oblivious paths diverged despite legacy pin")
					}
				}
			}
		})
	}
}

// TestLevelAwareHoistedMatchesRotate drives the shared-digit (hoisted)
// path through the same per-level differential: RotateHoisted cuts one
// decomposition for all rotations under the plan, and must agree with the
// per-rotation pipeline at every level.
func TestLevelAwareHoistedMatchesRotate(t *testing.T) {
	tc := newTestContext(t, richLevelAwareParams())
	rots := []int{1, 3}
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, rots)
	r := rand.New(rand.NewSource(43))
	v := randomComplex(r, tc.params.Slots(), 1)
	ctTop := tc.encryptVec(t, v)

	for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := tc.eval.DropLevel(ctTop, lvl)
		hoisted, err := tc.eval.RotateHoisted(ct, rots)
		if err != nil {
			t.Fatalf("lvl %d: %v", lvl, err)
		}
		for _, k := range rots {
			want := rotated(v, k)
			stats := ComputePrecision(tc.decryptVec(hoisted[k]), want)
			if stats.MaxErr > 1e-2 {
				t.Fatalf("lvl %d rot %d: hoisted error %v", lvl, k, stats)
			}
			plain, err := tc.eval.Rotate(ct, k)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxErr(tc.decryptVec(hoisted[k]), tc.decryptVec(plain)); d > 1e-3 {
				t.Fatalf("lvl %d rot %d: hoisted and plain rotations diverge by %g", lvl, k, d)
			}
		}
	}
}

// TestLevelAwareRelinDifferential runs the relinearization key switch
// (MulRelin) through both paths at every level with enough modulus
// headroom for the squared scale.
func TestLevelAwareRelinDifferential(t *testing.T) {
	tc := newTestContext(t, richLevelAwareParams())
	r := rand.New(rand.NewSource(44))
	v := randomComplex(r, tc.params.Slots(), 1)
	want := make([]complex128, len(v))
	for i := range v {
		want[i] = v[i] * v[i]
	}
	ctTop := tc.encryptVec(t, v)
	legacy := legacyEvaluator(tc)

	logScale := math.Log2(tc.params.DefaultScale())
	for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
		// The unrescaled product lives at scale Δ²; skip levels whose
		// modulus cannot hold it.
		bits := 0.0
		for _, qm := range tc.params.RingQ().Moduli[:lvl+1] {
			bits += math.Log2(float64(qm.Q))
		}
		if bits < 2*logScale+8 {
			continue
		}
		ct := tc.eval.DropLevel(ctTop, lvl)
		sqAware, sqObliv := tc.eval.Square(ct), legacy.Square(ct)
		awareStats := ComputePrecision(tc.decryptVec(sqAware), want)
		oblivStats := ComputePrecision(tc.decryptVec(sqObliv), want)
		if awareStats.MaxErr > 1e-2 {
			t.Fatalf("lvl %d: level-aware relin error %v", lvl, awareStats)
		}
		bound := ksAnalyticSlotBound(tc.params, tc.params.PlanAt(lvl))
		if awareStats.MaxErr > oblivStats.MaxErr+bound {
			t.Fatalf("lvl %d: relin noise %g exceeds legacy %g + budget %g",
				lvl, awareStats.MaxErr, oblivStats.MaxErr, bound)
		}
	}
}

// TestLevelAwareFallbackWithoutBands pins the safety property for keys that
// predate the band format (e.g. unmarshalled old blobs): with bands
// stripped, the evaluator must silently fall back to the legacy shape and
// stay correct at every level — never panic, never mis-cut digits.
func TestLevelAwareFallbackWithoutBands(t *testing.T) {
	tc := newTestContext(t, richLevelAwareParams())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	legacy := legacyEvaluator(tc)
	r := rand.New(rand.NewSource(45))
	v := randomComplex(r, tc.params.Slots(), 1)
	want := rotated(v, 1)
	ctTop := tc.encryptVec(t, v)
	for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := legacy.DropLevel(ctTop, lvl)
		if pl := legacy.planFor(lvl, legacy.keys.Rlk); !tc.params.IsLegacyPlan(pl) {
			t.Fatalf("lvl %d: bandless key resolved to non-legacy plan %+v", lvl, pl)
		}
		got, err := legacy.Rotate(ct, 1)
		if err != nil {
			t.Fatalf("lvl %d: %v", lvl, err)
		}
		if stats := ComputePrecision(tc.decryptVec(got), want); stats.MaxErr > 1e-2 {
			t.Fatalf("lvl %d: bandless fallback error %v", lvl, stats)
		}
	}
}

// TestGadgetPlanSelection pins the selection invariants every parameter set
// must satisfy: the top level is legacy; every non-legacy plan validates
// and is strictly cheaper than legacy; every non-legacy shape has a band
// covering its highest level; bands are deduplicated and sorted.
func TestGadgetPlanSelection(t *testing.T) {
	for name, lit := range map[string]ParametersLiteral{
		"test":   TestParameters(),
		"boot":   BootTestParameters(),
		"rich":   richLevelAwareParams(),
		"merged": mergedLevelAwareParams(),
	} {
		t.Run(name, func(t *testing.T) {
			p, err := NewParameters(lit)
			if err != nil {
				t.Fatal(err)
			}
			if !p.IsLegacyPlan(p.PlanAt(p.MaxLevel())) {
				t.Fatalf("top-level plan %+v is not legacy", p.PlanAt(p.MaxLevel()))
			}
			sawNonLegacy := false
			for lvl := 0; lvl <= p.MaxLevel(); lvl++ {
				pl := p.PlanAt(lvl)
				if pl.Level != lvl {
					t.Fatalf("PlanAt(%d).Level = %d", lvl, pl.Level)
				}
				if pl.Digits != (lvl+pl.Width)/pl.Width {
					t.Fatalf("lvl %d: digits %d inconsistent with width %d", lvl, pl.Digits, pl.Width)
				}
				if p.IsLegacyPlan(pl) {
					continue
				}
				sawNonLegacy = true
				if err := p.ValidateGadgetPlan(pl.Level, pl.Alpha, pl.Digits); err != nil {
					t.Fatalf("selected plan %+v does not validate: %v", pl, err)
				}
				if c, lc := planCost(pl), planCost(p.LegacyPlanAt(lvl)); c >= lc {
					t.Fatalf("selected plan %+v cost %d not below legacy %d", pl, c, lc)
				}
				found := false
				for _, b := range p.GadgetBands() {
					if b.Alpha == pl.Alpha && b.Width == pl.Width && b.TopLevel >= lvl {
						found = true
					}
				}
				if !found {
					t.Fatalf("no band serves plan %+v", pl)
				}
			}
			if !sawNonLegacy {
				t.Fatalf("%s: expected at least one non-legacy plan", name)
			}
			bands := p.GadgetBands()
			for i := 1; i < len(bands); i++ {
				a, b := bands[i-1], bands[i]
				if a.Alpha > b.Alpha || (a.Alpha == b.Alpha && a.Width >= b.Width) {
					t.Fatalf("bands not strictly sorted: %+v before %+v", a, b)
				}
			}
		})
	}
}

// TestSwitchingKeyBandMarshalRoundTrip covers the extended wire format:
// banded keys round-trip with band shapes and coefficients intact, and a
// pre-band blob (base digits only) decodes with Bands nil so the evaluator
// falls back to legacy for it.
func TestSwitchingKeyBandMarshalRoundTrip(t *testing.T) {
	tc := newTestContext(t, richLevelAwareParams())
	key := tc.keys.Rlk
	if len(key.Bands) == 0 {
		t.Fatal("expected banded relinearization key")
	}
	blob, err := key.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back SwitchingKey
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Digits() != key.Digits() || len(back.Bands) != len(key.Bands) {
		t.Fatalf("round trip changed shape: digits %d->%d bands %d->%d",
			key.Digits(), back.Digits(), len(key.Bands), len(back.Bands))
	}
	for i, b := range key.Bands {
		rb := back.Bands[i]
		if rb.Alpha != b.Alpha || rb.Width != b.Width || len(rb.BQ) != len(b.BQ) {
			t.Fatalf("band %d shape changed: (%d,%d,%d) -> (%d,%d,%d)",
				i, b.Alpha, b.Width, len(b.BQ), rb.Alpha, rb.Width, len(rb.BQ))
		}
		for d := range b.BQ {
			if !rb.BQ[d].Equal(b.BQ[d]) || !rb.AQ[d].Equal(b.AQ[d]) ||
				!rb.BP[d].Equal(b.BP[d]) || !rb.AP[d].Equal(b.AP[d]) {
				t.Fatalf("band %d digit %d coefficients changed", i, d)
			}
		}
	}

	// A pre-band blob is exactly the base-digit section.
	legacy := &SwitchingKey{BQ: key.BQ, AQ: key.AQ, BP: key.BP, AP: key.AP}
	oldBlob, err := legacy.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var old SwitchingKey
	if err := old.UnmarshalBinary(oldBlob); err != nil {
		t.Fatalf("pre-band blob rejected: %v", err)
	}
	if old.Bands != nil {
		t.Fatalf("pre-band blob produced %d bands", len(old.Bands))
	}
}

// fuzzPlanParams lazily builds the parameter sets FuzzGadgetPlan probes
// (construction is too slow to repeat per fuzz input).
var fuzzPlanParams struct {
	once sync.Once
	sets []*Parameters
}

func getFuzzPlanParams(t testing.TB) []*Parameters {
	fuzzPlanParams.once.Do(func() {
		for _, lit := range []ParametersLiteral{
			TestParameters(),
			richLevelAwareParams(),
			mergedLevelAwareParams(),
		} {
			p, err := NewParameters(lit)
			if err != nil {
				t.Fatal(err)
			}
			fuzzPlanParams.sets = append(fuzzPlanParams.sets, p)
		}
	})
	return fuzzPlanParams.sets
}

// FuzzGadgetPlan cross-checks the exact big.Int plan validator against an
// independent float-log2 model over arbitrary (level, alpha, dnum) tuples:
// accepted plans must be in-range, tile the level exactly, and keep every
// digit within ~P_alpha; rejections with every digit clearly below the
// prefix (0.5-bit dead band against float rounding) are validator bugs.
// Accepted plans must also stay accepted when the P prefix grows.
func FuzzGadgetPlan(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1))
	f.Add(uint8(3), uint8(2), uint8(2))
	f.Add(uint8(7), uint8(4), uint8(2))
	f.Add(uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, level, alpha, dnum uint8) {
		for _, p := range getFuzzPlanParams(t) {
			lvl, a, d := int(level), int(alpha), int(dnum)
			err := p.ValidateGadgetPlan(lvl, a, d)

			inRange := lvl >= 0 && lvl <= p.MaxLevel() &&
				a >= 1 && a <= p.Alpha() &&
				d >= 1 && d <= lvl+1
			if !inRange {
				if err == nil {
					t.Fatalf("out-of-range plan (%d,%d,%d) accepted", lvl, a, d)
				}
				continue
			}
			width := (lvl + d) / d
			tiles := (lvl+width)/width == d
			if !tiles && err == nil {
				t.Fatalf("non-tiling plan (%d,%d,%d) accepted", lvl, a, d)
			}
			if !tiles {
				continue
			}

			lp := 0.0
			for _, pm := range p.RingP().Moduli[:a] {
				lp += math.Log2(float64(pm.Q))
			}
			maxGroup, minSlack := 0.0, math.Inf(1)
			for g := 0; g < d; g++ {
				lq := 0.0
				lo, hi := g*width, min((g+1)*width, lvl+1)
				for _, qm := range p.RingQ().Moduli[lo:hi] {
					lq += math.Log2(float64(qm.Q))
				}
				if lq > maxGroup {
					maxGroup = lq
				}
				if s := lp - lq; s < minSlack {
					minSlack = s
				}
			}
			if err == nil && maxGroup > lp+0.5 {
				t.Fatalf("plan (%d,%d,%d) accepted with digit %f bits over P_%d (%f bits)",
					lvl, a, d, maxGroup, a, lp)
			}
			if err != nil && minSlack > 0.5 {
				t.Fatalf("plan (%d,%d,%d) rejected (%v) with %f bits of slack everywhere",
					lvl, a, d, err, minSlack)
			}
			// Monotonicity: P_{a+1} is a superset of P_a.
			if err == nil && a < p.Alpha() {
				if err2 := p.ValidateGadgetPlan(lvl, a+1, d); err2 != nil {
					t.Fatalf("plan (%d,%d,%d) valid but (alpha+1) rejected: %v", lvl, a, d, err2)
				}
			}
		}
	})
}
