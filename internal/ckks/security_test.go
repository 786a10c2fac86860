package ckks

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Failure-injection and adversarial-condition tests: the scheme must fail
// loudly (a typed error or a panic on misuse) or safely (garbage without the
// right key), never silently produce near-correct results for an attacker.

func TestDecryptWithWrongKeyIsGarbage(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(100))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)

	wrongKG := NewKeyGenerator(tc.params, 999)
	wrongSk := wrongKG.GenSecretKey()
	wrongDec := NewDecryptor(tc.params, wrongSk)
	got := tc.enc.Decode(wrongDec.DecryptNew(ct).Value, ct.Scale)

	// The wrong key must not recover anything close to the message: with a
	// uniform mask the decoded values are enormous relative to the inputs.
	close := 0
	for i := range v {
		if cmplx.Abs(got[i]-v[i]) < 1 {
			close++
		}
	}
	if close > len(v)/100 {
		t.Fatalf("%d/%d slots decrypted near-correctly under the wrong key", close, len(v))
	}
}

func TestTamperedCiphertextDecryptsWrong(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(101))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	// Flip one residue in C0.
	ct.C0.Coeffs[0][17] ^= 1
	got := tc.decryptVec(ct)
	same := 0
	for i := range v {
		if cmplx.Abs(got[i]-v[i]) < 1e-9 {
			same++
		}
	}
	if same == len(v) {
		t.Fatal("tampering had no effect on decryption")
	}
}

func TestFreshCiphertextsDiffer(t *testing.T) {
	// Probabilistic encryption: the same message encrypts to different
	// ciphertexts.
	tc := newTestContext(t, TestParameters())
	v := []complex128{1, 2, 3}
	ct1, _ := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	a := tc.encr.EncryptNew(&Plaintext{Value: ct1, Scale: tc.params.DefaultScale()}, tc.pk)
	b := tc.encr.EncryptNew(&Plaintext{Value: ct1, Scale: tc.params.DefaultScale()}, tc.pk)
	if a.C0.Equal(b.C0) || a.C1.Equal(b.C1) {
		t.Fatal("two encryptions of the same message are identical")
	}
}

// TestLevelZeroIsErrLevel: every op that ends in a rescale refuses a level-0
// operand with ErrLevel before it borrows a row from the pool or writes one,
// and so does DropLevel a target outside [0, ct.Level()].
func TestLevelZeroIsErrLevel(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	slots := tc.params.Slots()
	lt := randomSparseLT(rand.New(rand.NewSource(104)), slots, []int{0, 1})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, lt))
	top := tc.encryptVec(t, []complex128{1})
	ct := dropTo(tc.eval, top, 0)
	pt := &Plaintext{Value: tc.params.RingQ().NewPoly(top.Level()), Scale: tc.params.DefaultScale()}
	for _, op := range []struct {
		name string
		run  func() (*Ciphertext, error)
	}{
		{"Rescale", func() (*Ciphertext, error) { return tc.eval.Rescale(ct) }},
		{"Mul", func() (*Ciphertext, error) { return tc.eval.Mul(ct, top) }},
		{"Square", func() (*Ciphertext, error) { return tc.eval.Square(ct) }},
		{"EvaluateLinearTransform", func() (*Ciphertext, error) { return tc.eval.EvaluateLinearTransform(ct, lt, tc.enc) }},
		{"MultConst", func() (*Ciphertext, error) { return tc.eval.MultConst(ct, 0.5) }},
		{"MulPlain", func() (*Ciphertext, error) { return tc.eval.MulPlain(ct, pt) }},
		{"MulConstAccum", func() (*Ciphertext, error) {
			return tc.eval.MulConstAccum([]*Ciphertext{top, ct}, []float64{0.5, -1})
		}},
		{"DropLevel/-1", func() (*Ciphertext, error) { return tc.eval.DropLevel(top, -1) }},
		{"DropLevel/above", func() (*Ciphertext, error) { return tc.eval.DropLevel(ct, 1) }},
		{"DropLevel/huge", func() (*Ciphertext, error) { return tc.eval.DropLevel(top, 1<<20) }},
	} {
		before := poolGets()
		out, err := op.run()
		if !errors.Is(err, ErrLevel) || out != nil {
			t.Errorf("%s at level 0: (%v, %v), want ErrLevel", op.name, out, err)
		}
		if n := poolGets() - before; n != 0 {
			t.Errorf("%s at level 0 borrowed %v polynomials before failing", op.name, n)
		}
	}
}

// poolGets counts the rows borrowed from the ring pools so far, hits and
// misses.
func poolGets() float64 {
	return obs.Default.Counter(`ring_pool_gets_total{result="hit"}`).Value() +
		obs.Default.Counter(`ring_pool_gets_total{result="miss"}`).Value()
}

// TestChebyshevBelowDepthIsErrLevel: EvaluateChebyshev refuses an operand
// below the levels a series consumes — one for the affine map and
// seriesDepth's — with ErrLevel at every such level, before it borrows a row;
// at the depth itself the series runs and ends at level 0.
func TestChebyshevBelowDepthIsErrLevel(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	coeffs := ChebyshevInterpolation(math.Sin, -1, 1, 15)
	need := 1 + seriesDepth(15)
	if need != 6 || tc.params.MaxLevel() < need {
		t.Fatalf("a degree-15 series needs %d levels (want 6), the parameters have %d", need, tc.params.MaxLevel())
	}
	top := tc.encryptVec(t, []complex128{0.5})
	for lvl := 0; lvl < need; lvl++ {
		ct := dropTo(tc.eval, top, lvl)
		before := poolGets()
		out, err := tc.eval.EvaluateChebyshev(ct, coeffs, -1, 1)
		if !errors.Is(err, ErrLevel) || out != nil {
			t.Errorf("degree 15 at level %d: (%v, %v), want ErrLevel", lvl, out, err)
		}
		if n := poolGets() - before; n != 0 {
			t.Errorf("degree 15 at level %d borrowed %v polynomials before failing", lvl, n)
		}
	}
	out, err := tc.eval.EvaluateChebyshev(dropTo(tc.eval, top, need), coeffs, -1, 1)
	if err != nil {
		t.Fatalf("degree 15 at level %d: %v", need, err)
	}
	if got := tc.decryptVec(out)[0]; out.Level() != 0 || math.Abs(real(got)-math.Sin(0.5)) > 1e-3 {
		t.Errorf("degree 15 at level %d: %v at level %d, want sin(0.5) at level 0", need, got, out.Level())
	}
}

// TestScaleMismatchIsErrScale: CheckScales names a mismatch with ErrScale and
// passes scales within the tolerance, and MulConstAccum over operands whose
// scales disagree returns it before borrowing a polynomial.
func TestScaleMismatchIsErrScale(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	a := tc.encryptVec(t, []complex128{1})
	near, far := *a, *a
	near.Scale *= 1 + scaleTolerance/2
	far.Scale *= 2
	if err := CheckScales(a, &near, a); err != nil {
		t.Errorf("scales within the tolerance: %v", err)
	}
	if err := CheckScales(a, &near, &far); !errors.Is(err, ErrScale) {
		t.Errorf("CheckScales of a doubled scale: %v, want ErrScale", err)
	}
	before := poolGets()
	out, err := tc.eval.MulConstAccum([]*Ciphertext{a, &far}, []float64{0.5, -1})
	if !errors.Is(err, ErrScale) || out != nil {
		t.Errorf("MulConstAccum at scales %g and %g: (%v, %v), want ErrScale", a.Scale, far.Scale, out, err)
	}
	if n := poolGets() - before; n != 0 {
		t.Errorf("MulConstAccum borrowed %v polynomials before failing", n)
	}
}

func TestAddScaleMismatchPanics(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	a := tc.encryptVec(t, []complex128{1})
	b := a.CopyNew()
	b.Scale *= 2
	defer func() {
		if recover() == nil {
			t.Fatal("adding ciphertexts at incompatible scales must panic")
		}
	}()
	tc.eval.Add(a, b)
}

// Property-based homomorphism checks over random messages.

func TestHomomorphismProperties(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	slots := tc.params.Slots()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := randomComplex(r, slots, 1)
		v := randomComplex(r, slots, 1)
		ctU, ctV := tc.encryptVec(t, u), tc.encryptVec(t, v)

		// Additive homomorphism + commutativity.
		s1 := tc.decryptVec(tc.eval.Add(ctU, ctV))
		s2 := tc.decryptVec(tc.eval.Add(ctV, ctU))
		for i := range u {
			if cmplx.Abs(s1[i]-(u[i]+v[i])) > 1e-5 || cmplx.Abs(s1[i]-s2[i]) > 1e-7 {
				return false
			}
		}
		// a - a = 0.
		z := tc.decryptVec(tc.eval.Sub(ctU, ctU))
		for i := range z {
			if cmplx.Abs(z[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutesWithPlain(t *testing.T) {
	// PMULT(u, p) must agree with HMULT(u, Enc(p)).
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(103))
	u := randomComplex(r, tc.params.Slots(), 1)
	p := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, u)

	ptp, _ := tc.enc.Encode(p, ct.Level(), tc.params.DefaultScale())
	prod, err := tc.eval.MulPlain(ct, &Plaintext{Value: ptp, Scale: tc.params.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	viaPlain := tc.decryptVec(prod)
	viaCipher := tc.decryptVec(tc.eval.mul(ct, tc.encryptVec(t, p)))
	if e := maxErr(viaPlain, viaCipher); e > 1e-4 {
		t.Fatalf("PMULT and HMULT disagree by %g", e)
	}
}

func TestRotationComposition(t *testing.T) {
	// HROT(HROT(ct, a), b) == HROT(ct, a+b).
	tc := newTestContext(t, TestParameters())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{3, 4, 7})
	r := rand.New(rand.NewSource(104))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	r3, _ := tc.eval.Rotate(ct, 3)
	r34, _ := tc.eval.Rotate(r3, 4)
	r7, _ := tc.eval.Rotate(ct, 7)
	if e := maxErr(tc.decryptVec(r34), tc.decryptVec(r7)); e > 1e-4 {
		t.Fatalf("rotation composition violated by %g", e)
	}
}
