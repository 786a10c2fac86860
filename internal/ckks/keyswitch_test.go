package ckks

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// TestKeySwitchAcrossRingsConcurrently runs one key switch at once on two
// parameter sets over the same primes and keys: one on the pure-Go kernel
// table at pool width 1, one on the host's table at width 2 (its 9-limb
// chains clear the pipeline's parallel threshold, so its limbs go to pool
// workers). The outputs must agree byte for byte. A ring's kernel table and
// pool width are its own: under -race, any process-wide state one run
// writes while the other reads fails here.
func TestKeySwitchAcrossRingsConcurrently(t *testing.T) {
	t.Parallel()
	tc := newTestContext(t, TestParameters())
	sparse := tc.kgen.GenSparseSecretKey()
	swk := tc.kgen.genSwitchingKey(tc.params.MaxLevel(), tc.kgen.freshID(), tc.sk.Q, sparse.Q, sparse.P)
	ct := tc.encryptVec(t, randomComplex(rand.New(rand.NewSource(23)), tc.params.Slots(), 1))
	evs := [2]*Evaluator{
		NewEvaluator(paramsAt(t, tc.params, modarith.KernelTables()[0], 1), tc.keys),
		NewEvaluator(paramsAt(t, tc.params, modarith.Kernels{}, 2), tc.keys),
	}
	var out [2][][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for i, ev := range evs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				res, err := ev.SwitchKeys(ct, swk)
				if err == nil {
					var b []byte
					b, err = res.MarshalBinary()
					out[i] = append(out[i], b)
					ev.Release(res)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("evaluator %d: %v", i, err)
		}
	}
	for run := range out[0] {
		if !bytes.Equal(out[0][run], out[1][run]) || !bytes.Equal(out[0][run], out[0][0]) {
			t.Fatalf("run %d: the Go table at width 1 and the host table at width 2 switch to different bytes", run)
		}
	}
}

// TestKeySwitchAllocs pins the steady-state allocation count of the full
// ModUp -> KeyMult -> ModDown pipeline: with the BConv scratch, the
// Decompose row headers, the digit polynomials and the two results all
// pooled, the only remaining allocations are the small decomposed
// bookkeeping. Runs serially, on rings of pool width 1 — the par dispatch
// allocates chunk closures, which is noise here, not key-switch state.
func TestKeySwitchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	tc := serialTestContext(t, TestParameters(), true)
	r := rand.New(rand.NewSource(11))
	ct := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	lvl := ct.Level()
	// Warm the polynomial, scratch, and row-header pools.
	for i := 0; i < 4; i++ {
		d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk, nil, 0)
		tc.params.RingQ().PutPoly(d0)
		tc.params.RingQ().PutPoly(d1)
	}
	rq := tc.params.RingQ()
	allocs := testing.AllocsPerRun(20, func() {
		d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk, nil, 0)
		rq.PutPoly(d0)
		rq.PutPoly(d1)
	})
	// Steady state measures 3 (the decomposition header and its two digit
	// slices). The BConv tmp rows, the Decompose row headers, and every
	// polynomial are pooled; if any of those regress to per-call allocation
	// the count jumps by O(limbs · digits).
	if allocs > 5 {
		t.Fatalf("keySwitch allocates %.1f objects/op, want <= 5", allocs)
	}
}

// TestKeySwitchConcurrentEquivalence hammers one fresh evaluator from 8
// goroutines — its per-level constants, its monomial (built on first use),
// the BasisConverter scratch pool, row-header pool and polynomial pools are
// all shared — and checks every result against the oracle's: the bare key
// switch, SwitchKeys (the oracle's key switch plus the c0 add), the rotation
// form of the tail (add = c0, g ≠ 0) and MulByI at two levels. Run with
// -race in CI.
func TestKeySwitchConcurrentEquivalence(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	ev := NewEvaluator(tc.params, tc.keys)
	r := rand.New(rand.NewSource(12))
	ct := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	lvl := ct.Level()
	or := oracle{p: tc.params, keys: tc.keys, enc: tc.enc}
	g := tc.params.RingQ().GaloisElement(1)

	type check struct {
		name string
		run  func() (*Ciphertext, error)
		want *Ciphertext
	}
	switched := func(swk *SwitchingKey, add *ring.Poly, g uint64) func() (*Ciphertext, error) {
		return func() (*Ciphertext, error) {
			d0, d1 := ev.keySwitch(ct.C1, lvl, swk, add, g)
			return &Ciphertext{C0: d0, C1: d1}, nil
		}
	}
	want0, want1 := or.keySwitch(ct.C1, lvl, tc.keys.Rlk)
	checks := []check{
		{"keySwitch", switched(tc.keys.Rlk, nil, 0), &Ciphertext{C0: want0, C1: want1}},
		{"SwitchKeys", func() (*Ciphertext, error) { return ev.SwitchKeys(ct, tc.keys.Rlk) }, or.switchKeys(ct, tc.keys.Rlk)},
		{"rotation", switched(tc.keys.Gal[g], ct.C0, g), or.automorphism(ct, g)},
	}
	for _, l := range []int{lvl, lvl / 2} {
		in := dropTo(tc.eval, ct, l)
		want := &Ciphertext{C0: mulByIRef(tc.params.RingQ(), in.C0), C1: mulByIRef(tc.params.RingQ(), in.C1)}
		checks = append(checks, check{fmt.Sprintf("MulByI/level%d", l), func() (*Ciphertext, error) { return ev.MulByI(in), nil }, want})
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, c := range checks {
					got, err := c.run()
					if err != nil {
						errs <- c.name + ": " + err.Error()
						return
					}
					if !got.C0.Equal(c.want.C0) || !got.C1.Equal(c.want.C1) {
						errs <- "concurrent " + c.name + " result differs from the oracle"
						return
					}
					ev.Release(got)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// mulByIRef multiplies c (NTT form) by X^{N/2} in the coefficient domain — a
// negacyclic shift by N/2 — the reference for MulByI's NTT-domain product.
func mulByIRef(rq *ring.Ring, c *ring.Poly) *ring.Poly {
	lvl := c.Level()
	x := c.CopyNew()
	rq.INTT(x, lvl)
	out := rq.NewPoly(lvl)
	h := len(x.Coeffs[0]) / 2
	for i, row := range x.Coeffs {
		for j := 0; j < h; j++ {
			out.Coeffs[i][j+h] = row[j]
			out.Coeffs[i][j] = rq.Moduli[i].Neg(row[j+h])
		}
	}
	rq.NTT(out, lvl)
	return out
}

// alpha4Params has α = 4 generous 51-bit special primes over 8 Q limbs: two
// digits at the top four levels (the second ragged below level 7) and one
// digit below.
func alpha4Params() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     []int{45, 35, 35, 35, 35, 35, 35, 35},
		LogP:     []int{51, 51, 51, 51},
		LogScale: 35,
	}
}

// alpha2Params has α = 2 over 9 small Q limbs: five digits at the top (the
// last one limb wide) down to one at levels 0 and 1.
func alpha2Params() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     []int{28, 28, 28, 28, 28, 28, 28, 28, 28},
		LogP:     []int{59, 59},
		LogScale: 25,
	}
}

// ksAnalyticSlotBound is the worst-case extra slot error one key switch at
// pl.Level may add: each digit contributes ||ĉ_d·e_d||/P with ||ĉ_d|| < Q_d/2,
// plus the ModDown rounding term (1+h)/2. Coefficient error spreads across
// slots by at most N through the embedding and is divided by the scale on
// decode. The 32x margin absorbs the crudeness of the worst-case norms — the
// bound's job is to catch a mis-cut digit or a wrong P (which blow it up by
// ~2^{overrun bits}), not to be tight.
func ksAnalyticSlotBound(p *Parameters, pl GadgetPlan) float64 {
	lp := 0.0
	for _, pm := range p.RingP().Moduli {
		lp += math.Log2(float64(pm.Q))
	}
	n := float64(p.N())
	digitSum := 0.0
	for d := 0; d < pl.Digits; d++ {
		lq := 0.0
		lo, hi := pl.digitLimbs(d)
		for _, qm := range p.RingQ().Moduli[lo:hi] {
			lq += math.Log2(float64(qm.Q))
		}
		digitSum += math.Exp2(lq - lp)
	}
	coeffErr := digitSum*n*6*p.Sigma()/2 + float64(1+p.HDense())/2
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

// TestKeySwitchNoisePerLevel is the noise harness: at EVERY level of both
// parameter chains it rotates the same ciphertext and asserts the result
// decrypts to the rotated vector with no more error than the input carried
// plus the level's analytic key-switch budget. Bit-exactness against the
// exact kernels is TestDeterminismMatrix's job.
func TestKeySwitchNoisePerLevel(t *testing.T) {
	for name, lit := range map[string]ParametersLiteral{
		"alpha4": alpha4Params(),
		"alpha2": alpha2Params(),
	} {
		t.Run(name, func(t *testing.T) {
			tc := newTestContext(t, lit)
			tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
			r := rand.New(rand.NewSource(42))
			v := randomComplex(r, tc.params.Slots(), 1)
			want := rotated(v, 1)
			ctTop := tc.encryptVec(t, v)

			for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
				ct := dropTo(tc.eval, ctTop, lvl)
				pl := tc.params.PlanAt(lvl)
				in := ComputePrecision(tc.decryptVec(ct), v)
				got, err := tc.eval.Rotate(ct, 1)
				if err != nil {
					t.Fatalf("lvl %d: rotate: %v", lvl, err)
				}
				stats := ComputePrecision(tc.decryptVec(got), want)
				if bound := ksAnalyticSlotBound(tc.params, pl); stats.MaxErr > in.MaxErr+bound {
					t.Fatalf("lvl %d plan %+v: rotation error %g exceeds the input's %g + analytic budget %g",
						lvl, pl, stats.MaxErr, in.MaxErr, bound)
				}
			}
		})
	}
}

// TestHoistedMatchesRotatePerLevel drives the shared-digit (hoisted) path at
// every level a sweep can run at: the per-diagonal sweep of σ_1 + σ_3 cuts one
// decomposition for both rotations and must agree with the sum of the
// per-rotation pipelines.
func TestHoistedMatchesRotatePerLevel(t *testing.T) {
	tc := newTestContext(t, alpha4Params())
	rots := []int{1, 3}
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, rots)
	r := rand.New(rand.NewSource(43))
	slots := tc.params.Slots()
	v := randomComplex(r, slots, 1)
	ctTop := tc.encryptVec(t, v)
	ones := make([]complex128, slots)
	for i := range ones {
		ones[i] = 1
	}
	lt := NewLinearTransform(slots, map[int][]complex128{rots[0]: ones, rots[1]: ones})
	want := lt.Apply(v)

	for lvl := 1; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := dropTo(tc.eval, ctTop, lvl)
		hoisted := tc.decryptVec(tc.sweepWith(t, ct, lt, slots))
		if stats := ComputePrecision(hoisted, want); stats.MaxErr > 1e-2 {
			t.Fatalf("lvl %d: hoisted error %v", lvl, stats)
		}
		plain := make([]complex128, slots)
		for _, k := range rots {
			rot, err := tc.eval.Rotate(ct, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range tc.decryptVec(rot) {
				plain[i] += x
			}
		}
		if d := maxErr(hoisted, plain); d > 1e-3 {
			t.Fatalf("lvl %d: hoisted and plain rotations diverge by %g", lvl, d)
		}
	}
}

// TestRelinNoisePerLevel runs the relinearization key switch of an HMULT
// (with the rescale its ModDown folds in) at every level with enough modulus
// headroom for the squared scale, against the error the exact square of the
// decrypted input carries plus the analytic key-switch budget.
func TestRelinNoisePerLevel(t *testing.T) {
	tc := newTestContext(t, alpha4Params())
	r := rand.New(rand.NewSource(44))
	v := randomComplex(r, tc.params.Slots(), 1)
	want := make([]complex128, len(v))
	for i := range v {
		want[i] = v[i] * v[i]
	}
	ctTop := tc.encryptVec(t, v)

	logScale := math.Log2(tc.params.DefaultScale())
	for lvl := 0; lvl <= tc.params.MaxLevel(); lvl++ {
		// The product lives at scale Δ² until the rescale; skip levels whose
		// modulus cannot hold it.
		bits := 0.0
		for _, qm := range tc.params.RingQ().Moduli[:lvl+1] {
			bits += math.Log2(float64(qm.Q))
		}
		if bits < 2*logScale+8 {
			continue
		}
		ct := dropTo(tc.eval, ctTop, lvl)
		in := tc.decryptVec(ct)
		sqIn := make([]complex128, len(in))
		for i := range in {
			sqIn[i] = in[i] * in[i]
		}
		inErr := ComputePrecision(sqIn, want).MaxErr
		stats := ComputePrecision(tc.decryptVec(tc.eval.mul(ct, ct)), want)
		if bound := ksAnalyticSlotBound(tc.params, tc.params.PlanAt(lvl)); stats.MaxErr > inErr+bound {
			t.Fatalf("lvl %d: relin error %g exceeds the squared input's %g + budget %g",
				lvl, stats.MaxErr, inErr, bound)
		}
	}
}
