package ckks

import (
	"math"
	"math/rand"
	"testing"
)

func TestModRaise(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(60))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.eval.DropLevel(tc.encryptVec(t, v), 0)

	b := &Bootstrapper{params: tc.params, q0: float64(tc.params.RingQ().Moduli[0].Q)}
	raised := b.ModRaise(ct)
	if raised.Level() != tc.params.MaxLevel() {
		t.Fatalf("level after ModRaise = %d", raised.Level())
	}
	// Decrypting the raised ciphertext and reducing mod q0 must recover the
	// message: slots differ from v only by multiples of q0/Δ (the I terms),
	// which for most slots are zero in magnitude ≤ K·q0/Δ. Instead of
	// checking slots (spiky), check the coefficient residues mod q0.
	pt := tc.decr.DecryptNew(raised)
	rq := tc.params.RingQ()
	work := pt.Value.CopyNew()
	rq.INTT(work, raised.Level())

	ptLow := tc.decr.DecryptNew(ct)
	workLow := ptLow.Value.CopyNew()
	rq.INTT(workLow, 0)

	q0 := rq.Moduli[0]
	for j := 0; j < tc.params.N(); j++ {
		if work.Coeffs[0][j] != workLow.Coeffs[0][j] {
			t.Fatalf("coefficient %d mod q0 changed after ModRaise", j)
		}
	}
	_ = q0
}

func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := newTestContext(t, BootTestParameters())
	cfg := DefaultBootstrapConfig()
	boot, err := NewBootstrapper(tc.params, tc.enc, tc.eval, tc.kgen, tc.sk, tc.keys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(61))
	v := randomComplex(r, tc.params.Slots(), 0.7)
	ct := tc.encryptVec(t, v)
	// Exhaust the ciphertext.
	ct = tc.eval.DropLevel(ct, 0)
	if ct.Level() != 0 {
		t.Fatal("setup: ciphertext not at level 0")
	}

	before := obsLinTransRotations.Value()
	out, err := boot.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	// The six DFT sweeps ran the plans planSweeps chose for them as a set —
	// each transform's diagonals encoded for its planned baby step only — and
	// none fell back to the degenerate plan: the rotation counter advanced by
	// exactly the plans' key switches.
	lts := append(append([]*LinearTransform{}, boot.c2s...), boot.s2c...)
	wantKS := 0
	for i, pl := range planSweeps(tc.params, lts) {
		if got := lts[i].sweepPlan(tc.params); got.bs != pl.bs {
			t.Errorf("matrix %d: bootstrapper plan bs %d, joint planner bs %d", i, got.bs, pl.bs)
		}
		for k := range lts[i].encCache {
			if k.bs != pl.bs {
				t.Errorf("matrix %d: diagonals encoded for bs %d, plan bs %d", i, k.bs, pl.bs)
			}
		}
		wantKS += pl.keySwitchCount()
	}
	if got := int(obsLinTransRotations.Value() - before); got != wantKS {
		t.Errorf("bootstrap sweeps spent %d key switches, the plans %d", got, wantKS)
	}
	if out.Level() <= 0 {
		t.Fatalf("bootstrap did not regain levels: level=%d", out.Level())
	}
	if math.Abs(out.Scale/tc.params.DefaultScale()-1) > 1e-9 {
		t.Fatalf("bootstrap scale %g != Δ %g", out.Scale, tc.params.DefaultScale())
	}
	got := tc.decryptVec(out)
	stats := ComputePrecision(got, v)
	e := stats.MaxErr
	t.Logf("bootstrap: regained level %d, %s", out.Level(), stats)
	if e > 2e-2 {
		t.Fatalf("bootstrap error %g too large", e)
	}

	// The refreshed ciphertext must support further multiplications.
	sq, err := tc.eval.Square(out)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * v[i]
	}
	if e := maxErr(tc.decryptVec(sq), want); e > 5e-2 {
		t.Fatalf("post-bootstrap squaring error %g", e)
	}
}

func TestBootstrapFFTIterVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	// Fewer grouped matrices consume fewer levels but use denser transforms
	// (the fftIter trade-off of Fig 3). Both must stay functional.
	tc := newTestContext(t, BootTestParameters())
	r := rand.New(rand.NewSource(62))
	v := randomComplex(r, tc.params.Slots(), 0.7)
	for _, iters := range []int{2, 3} {
		cfg := DefaultBootstrapConfig()
		cfg.FFTIterC2S, cfg.FFTIterS2C = iters, iters
		boot, err := NewBootstrapper(tc.params, tc.enc, tc.eval, tc.kgen, tc.sk, tc.keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ct := tc.eval.DropLevel(tc.encryptVec(t, v), 0)
		out, err := boot.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(tc.decryptVec(out), v); e > 2e-2 {
			t.Fatalf("fftIter=%d: bootstrap error %g", iters, e)
		}
		// Smaller fftIter must leave the output at a higher level.
		t.Logf("fftIter=%d: output level %d", iters, out.Level())
	}
}

func TestEvalModPlainReference(t *testing.T) {
	// The Chebyshev-of-cosine + double-angle construction must approximate
	// sin(2πt) on the EvalMod interval, in plaintext.
	cfg := DefaultBootstrapConfig()
	r := float64(int(1) << uint(cfg.DoubleAngles))
	f := func(t float64) float64 { return math.Cos(2 * math.Pi * (t - 0.25) / r) }
	k1 := float64(cfg.K + 1)
	coeffs := ChebyshevInterpolation(f, -k1, k1, cfg.EvalModDeg)
	for i := 0; i <= 200; i++ {
		t0 := -k1 + 2*k1*float64(i)/200
		c := EvalChebyshevSeries(coeffs, -k1, k1, t0)
		for d := 0; d < cfg.DoubleAngles; d++ {
			c = 2*c*c - 1
		}
		want := math.Sin(2 * math.Pi * t0)
		if math.Abs(c-want) > 1e-6 {
			t.Fatalf("EvalMod reference error %g at t=%g", math.Abs(c-want), t0)
		}
	}
}
