package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// compareParams gives enough depth for several sign iterations.
func compareParams() ParametersLiteral {
	return ParametersLiteral{
		LogN:     11,
		LogQ:     append([]int{55}, repeatInts(45, 19)...),
		LogP:     []int{58, 58},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	}
}

func TestEvalSign(t *testing.T) {
	tc := newTestContext(t, compareParams())
	r := rand.New(rand.NewSource(70))
	slots := tc.params.Slots()
	u := make([]complex128, slots)
	for i := range u {
		// Keep a margin around zero: sign is approximate there.
		v := 0.3 + 0.7*r.Float64()
		if r.Intn(2) == 0 {
			v = -v
		}
		u[i] = complex(v, 0)
	}
	ct := tc.encryptVec(t, u)
	out := tc.eval.EvalSign(ct, 5)
	got := tc.decryptVec(out)
	for i := range u {
		want := 1.0
		if real(u[i]) < 0 {
			want = -1
		}
		if math.Abs(real(got[i])-want) > 0.1 {
			t.Fatalf("sign(%.3f) = %.3f, want %.0f", real(u[i]), real(got[i]), want)
		}
	}
}

func TestEvalMinMax(t *testing.T) {
	tc := newTestContext(t, compareParams())
	r := rand.New(rand.NewSource(72))
	slots := tc.params.Slots()
	a := make([]complex128, slots)
	b := make([]complex128, slots)
	for i := range a {
		a[i] = complex(r.Float64()-0.5, 0)
		for {
			b[i] = complex(r.Float64()-0.5, 0)
			if math.Abs(real(a[i])-real(b[i])) > 0.3 {
				break
			}
		}
	}
	cta, ctb := tc.encryptVec(t, a), tc.encryptVec(t, b)
	minCt, maxCt := tc.eval.EvalMinMax(cta, ctb, 5)
	gotMin := tc.decryptVec(minCt)
	gotMax := tc.decryptVec(maxCt)
	for i := range a {
		wantMin := math.Min(real(a[i]), real(b[i]))
		wantMax := math.Max(real(a[i]), real(b[i]))
		if math.Abs(real(gotMin[i])-wantMin) > 0.06 || math.Abs(real(gotMax[i])-wantMax) > 0.06 {
			t.Fatalf("minmax(%.3f, %.3f) = (%.3f, %.3f), want (%.3f, %.3f)",
				real(a[i]), real(b[i]), real(gotMin[i]), real(gotMax[i]), wantMin, wantMax)
		}
	}
	// min + max must equal a + b (exactly in the reals, approximately here).
	for i := range a {
		if math.Abs(real(gotMin[i])+real(gotMax[i])-real(a[i])-real(b[i])) > 0.06 {
			t.Fatal("min + max != a + b")
		}
	}
}
