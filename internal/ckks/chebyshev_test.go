package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// evalChebyshevSeries evaluates a Chebyshev series on plaintext input by the
// Clenshaw recurrence: Σ c_j T_j(t) with t = (2x-a-b)/(b-a).
func evalChebyshevSeries(coeffs []float64, a, b, x float64) float64 {
	t := (2*x - a - b) / (b - a)
	var b0, b1 float64
	for j := len(coeffs) - 1; j >= 1; j-- {
		b0, b1 = coeffs[j]+2*t*b0-b1, b0
	}
	return coeffs[0] + t*b0 - b1
}

func TestChebyshevInterpolationPlain(t *testing.T) {
	for _, tc := range []struct {
		f      func(float64) float64
		a, b   float64
		degree int
		tol    float64
	}{
		{math.Sin, -3, 3, 31, 1e-10},
		{math.Exp, -1, 1, 15, 1e-9},
		{func(x float64) float64 { return math.Cos(2 * math.Pi * x) }, -1, 1, 31, 1e-9},
	} {
		coeffs := ChebyshevInterpolation(tc.f, tc.a, tc.b, tc.degree)
		for i := 0; i <= 100; i++ {
			x := tc.a + (tc.b-tc.a)*float64(i)/100
			got := evalChebyshevSeries(coeffs, tc.a, tc.b, x)
			if d := math.Abs(got - tc.f(x)); d > tc.tol {
				t.Fatalf("interpolation error %g at x=%g (deg %d)", d, x, tc.degree)
			}
		}
	}
}

// TestWeightedChebyshevFit: a series the fit's degree can hold is recovered
// exactly under any positive weight, and a weight that peaks where the
// interpolant's error is largest lowers the weighted error there.
func TestWeightedChebyshevFit(t *testing.T) {
	want := []float64{0.3, -1.2, 0.7, 0.01, -0.4, 0.9}
	f := func(x float64) float64 { return evalChebyshevSeries(want, -2, 3, x) }
	w := func(x float64) float64 { return 1 + x*x }
	for j, c := range weightedChebyshevFit(f, w, -2, 3, len(want)-1, 64) {
		if math.Abs(c-want[j]) > 1e-12 {
			t.Fatalf("coefficient %d: got %g, want %g", j, c, want[j])
		}
	}

	wPeak := func(x float64) float64 { return 1 + 100*math.Exp(-x*x*50) }
	worst := func(coeffs []float64) (e float64) {
		for i := 0; i <= 1000; i++ {
			x := -1 + 2*float64(i)/1000
			e = max(e, wPeak(x)*math.Abs(evalChebyshevSeries(coeffs, -1, 1, x)-math.Exp(x)))
		}
		return e
	}
	interp, fit := worst(ChebyshevInterpolation(math.Exp, -1, 1, 7)), worst(weightedChebyshevFit(math.Exp, wPeak, -1, 1, 7, 256))
	if fit >= interp {
		t.Fatalf("weighted error %g, not below the interpolant's %g", fit, interp)
	}
}

func TestSplitChebyshev(t *testing.T) {
	// p = q·T_split + r must hold as functions.
	coeffs := []float64{0.3, -1.2, 0.7, 0.01, -0.4, 0.9, 0.05, -0.2, 0.6}
	split := 4
	quo, rem := splitChebyshev(coeffs, split)
	chebT := func(n int, t float64) float64 { return math.Cos(float64(n) * math.Acos(math.Max(-1, math.Min(1, t)))) }
	evalSeries := func(c []float64, t float64) float64 {
		s := 0.0
		for i, ci := range c {
			s += ci * chebT(i, t)
		}
		return s
	}
	for i := 0; i <= 50; i++ {
		tt := -1 + 2*float64(i)/50
		lhs := evalSeries(coeffs, tt)
		rhs := evalSeries(quo, tt)*chebT(split, tt) + evalSeries(rem, tt)
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Fatalf("split identity violated at t=%g: %g vs %g", tt, lhs, rhs)
		}
	}
}

func TestEvaluateChebyshevHomomorphic(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(40))
	a, b := -1.0, 1.0
	f := func(x float64) float64 { return math.Sin(2 * x) }
	coeffs := ChebyshevInterpolation(f, a, b, 15)

	slots := tc.params.Slots()
	u := make([]complex128, slots)
	want := make([]complex128, slots)
	for i := range u {
		x := a + (b-a)*r.Float64()
		u[i] = complex(x, 0)
		want[i] = complex(f(x), 0)
	}
	ct := tc.encryptVec(t, u)
	out, err := tc.eval.EvaluateChebyshev(ct, coeffs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(out), want); e > 1e-3 {
		t.Fatalf("homomorphic Chebyshev error %g", e)
	}
}

func TestEvaluateChebyshevDegree31(t *testing.T) {
	// Deeper series exercising the recursive BSGS splitting; needs a deep
	// chain with uniform prime sizes (EvaluateChebyshev's contract).
	tc := newTestContext(t, ParametersLiteral{
		LogN:     11,
		LogQ:     append([]int{60}, repeatInts(45, 12)...),
		LogP:     []int{55, 55},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	})
	r := rand.New(rand.NewSource(41))
	a, b := -1.0, 1.0
	f := func(x float64) float64 { return math.Cos(2 * math.Pi * x / 8) }
	coeffs := ChebyshevInterpolation(f, a, b, 31)

	slots := tc.params.Slots()
	u := make([]complex128, slots)
	want := make([]complex128, slots)
	for i := range u {
		x := a + (b-a)*r.Float64()
		u[i] = complex(x, 0)
		want[i] = complex(f(x), 0)
	}
	ct := tc.encryptVec(t, u)
	out, err := tc.eval.EvaluateChebyshev(ct, coeffs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(out), want); e > 1e-3 {
		t.Fatalf("deg-31 Chebyshev error %g", e)
	}
}

// TestEvaluateChebyshevSparseSeries: a series whose BSGS leaves are mostly
// empty — skipped zero terms, a leaf holding only its constant, and leaves
// that are identically zero — evaluates like any other.
func TestEvaluateChebyshevSparseSeries(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(42))
	coeffs := []float64{0.5, 0, 0, 0, 0, 0, -0.3, 0, 0, 0.25} // 1/2 − 0.3·T_6 + T_9/4
	a, b := -1.0, 1.0

	slots := tc.params.Slots()
	u := make([]complex128, slots)
	want := make([]complex128, slots)
	for i := range u {
		x := a + (b-a)*r.Float64()
		u[i] = complex(x, 0)
		want[i] = complex(evalChebyshevSeries(coeffs, a, b, x), 0)
	}
	out, err := tc.eval.EvaluateChebyshev(tc.encryptVec(t, u), coeffs, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(out), want); e > 1e-3 {
		t.Fatalf("sparse Chebyshev error %g", e)
	}
}
