package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// testContext bundles everything the scheme tests need.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kgen   *KeyGenerator
	sk     *SecretKey
	keys   *EvaluationKeySet
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

// newTestContext poisons the ring pools: every borrow in this package's tests
// comes back poisoned, so scratch or an output that is read before it is
// written — or a value read after its release — fails the test instead of
// passing on what the previous, identical op left in the pool.
func newTestContext(t testing.TB, lit ParametersLiteral) *testContext {
	t.Helper()
	return buildTestContext(t, lit, true)
}

// buildTestContext is deterministic in lit: two contexts over the same
// literal hold the same keys and encrypt the same ciphertexts, poisoned pools
// or not.
func buildTestContext(t testing.TB, lit ParametersLiteral, poison bool) *testContext {
	t.Helper()
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	return contextOn(params, poison)
}

// serialTestContext is buildTestContext on rings of pool width 1, which run
// their limbs serially: the par dispatch allocates chunk closures, noise to
// an allocation count.
func serialTestContext(t testing.TB, lit ParametersLiteral, poison bool) *testContext {
	t.Helper()
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	return contextOn(paramsAt(t, params, modarith.Kernels{}, 1), poison)
}

// paramsAt returns p on rings rebuilt over the same primes on kernel table k
// at pool width width: keys and ciphertexts of p serve it unchanged, and
// parameter sets at different tables and widths run side by side.
func paramsAt(t testing.TB, p *Parameters, k modarith.Kernels, width int) *Parameters {
	t.Helper()
	at := *p
	at.ringQ, at.ringP = ringAt(t, p.ringQ, k, width), ringAt(t, p.ringP, k, width)
	return &at
}

func ringAt(t testing.TB, r *ring.Ring, k modarith.Kernels, width int) *ring.Ring {
	t.Helper()
	primes := make([]uint64, len(r.Moduli))
	for i, m := range r.Moduli {
		primes[i] = m.Q
	}
	out, err := ring.NewRingAt(r.LogN, primes, k, width)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func contextOn(params *Parameters, poison bool) *testContext {
	if poison {
		params.RingQ().PoisonPool()
		params.RingP().PoisonPool()
	}
	tc := &testContext{params: params}
	tc.enc = NewEncoder(params)
	tc.kgen = NewKeyGenerator(params, 1)
	tc.sk = tc.kgen.GenSecretKey()
	tc.keys = NewEvaluationKeySet()
	tc.keys.Rlk = tc.kgen.GenRelinearizationKey(tc.sk)
	tc.encr = NewEncryptor(params, 2)
	tc.decr = NewDecryptor(params, tc.sk)
	tc.eval = NewEvaluator(params, tc.keys)
	return tc
}

// bootstrapper runs both halves of bootstrapping setup: GenBootstrapKeys adds
// the keys under cfg to tc.keys, and NewBootstrapper builds the bootstrapper
// from tc.keys alone.
func (tc *testContext) bootstrapper(cfg BootstrapConfig) (*Bootstrapper, error) {
	if err := tc.kgen.GenBootstrapKeys(tc.sk, tc.keys, cfg); err != nil {
		return nil, err
	}
	return NewBootstrapper(tc.params, tc.enc, tc.eval, tc.keys)
}

func randomComplex(r *rand.Rand, n int, bound float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((2*r.Float64()-1)*bound, (2*r.Float64()-1)*bound)
	}
	return v
}

// dropTo is DropLevel to a level the caller knows ct has.
func dropTo(ev *Evaluator, ct *Ciphertext, level int) *Ciphertext {
	out, err := ev.DropLevel(ct, level)
	if err != nil {
		panic(err)
	}
	return out
}

// maxErr returns the max absolute slot-wise error between got and want.
func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func (tc *testContext) encryptVec(t testing.TB, v []complex128) *Ciphertext {
	t.Helper()
	ct, err := tc.encr.EncodeEncryptNew(tc.enc, v, tc.params.MaxLevel(), tc.params.DefaultScale(), tc.sk)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (tc *testContext) decryptVec(ct *Ciphertext) []complex128 {
	return tc.decr.DecryptDecodeNew(ct, tc.enc)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(10))
	v := randomComplex(r, tc.params.Slots(), 1)
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt, tc.params.DefaultScale())
	if e := maxErr(got, v); e > 1e-9 {
		t.Fatalf("encode/decode error %g too large", e)
	}
}

func TestEncodeShortVectorPads(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	v := []complex128{1, 2i, -3}
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt, tc.params.DefaultScale())
	for i := range v {
		if cmplx.Abs(got[i]-v[i]) > 1e-9 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], v[i])
		}
	}
	for i := len(v); i < 8; i++ {
		if cmplx.Abs(got[i]) > 1e-9 {
			t.Fatalf("slot %d should be ~0, got %v", i, got[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(11))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	got := tc.decryptVec(ct)
	if e := maxErr(got, v); e > 1e-6 {
		t.Fatalf("encrypt/decrypt error %g too large", e)
	}
}

func TestHADD(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(13))
	a := randomComplex(r, tc.params.Slots(), 1)
	b := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.eval.Add(tc.encryptVec(t, a), tc.encryptVec(t, b))
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	if e := maxErr(tc.decryptVec(ct), want); e > 1e-6 {
		t.Fatalf("HADD error %g", e)
	}
}

func TestSubNeg(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(14))
	a := randomComplex(r, tc.params.Slots(), 1)
	b := randomComplex(r, tc.params.Slots(), 1)
	cta, ctb := tc.encryptVec(t, a), tc.encryptVec(t, b)
	diff := tc.eval.Sub(cta, ctb)
	negB := tc.eval.Neg(ctb)
	alt := tc.eval.Add(cta, negB)
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] - b[i]
	}
	if e := maxErr(tc.decryptVec(diff), want); e > 1e-6 {
		t.Fatalf("Sub error %g", e)
	}
	if e := maxErr(tc.decryptVec(alt), want); e > 1e-6 {
		t.Fatalf("Add(Neg) error %g", e)
	}
}

func TestPMULT(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(15))
	a := randomComplex(r, tc.params.Slots(), 1)
	p := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, a)
	ptp, _ := tc.enc.Encode(p, ct.Level(), tc.params.DefaultScale())
	prod, err := tc.eval.MulPlain(ct, &Plaintext{Value: ptp, Scale: tc.params.DefaultScale()})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * p[i]
	}
	if e := maxErr(tc.decryptVec(prod), want); e > 1e-5 {
		t.Fatalf("PMULT error %g", e)
	}
}

func TestHMULT(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(16))
	a := randomComplex(r, tc.params.Slots(), 1)
	b := randomComplex(r, tc.params.Slots(), 1)
	prod, err := tc.eval.Mul(tc.encryptVec(t, a), tc.encryptVec(t, b))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i] * b[i]
	}
	if e := maxErr(tc.decryptVec(prod), want); e > 1e-4 {
		t.Fatalf("HMULT error %g", e)
	}
}

func TestHMULTDepth(t *testing.T) {
	// Repeated squaring down the modulus chain.
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(17))
	v := randomComplex(r, tc.params.Slots(), 0.9)
	ct := tc.encryptVec(t, v)
	want := append([]complex128(nil), v...)
	for d := 0; d < 3; d++ {
		ct = tc.eval.mul(ct, ct)
		for i := range want {
			want[i] *= want[i]
		}
	}
	if e := maxErr(tc.decryptVec(ct), want); e > 1e-3 {
		t.Fatalf("depth-3 squaring error %g", e)
	}
}

func TestHROT(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(18))
	v := randomComplex(r, tc.params.Slots(), 1)
	for _, k := range []int{1, 2, 7, tc.params.Slots() - 1} {
		tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{k})
		ct := tc.encryptVec(t, v)
		rot, err := tc.eval.Rotate(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(v))
		for i := range want {
			want[i] = v[(i+k)%len(v)]
		}
		if e := maxErr(tc.decryptVec(rot), want); e > 1e-5 {
			t.Fatalf("HROT(%d) error %g", k, e)
		}
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)
	r := rand.New(rand.NewSource(19))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	conj, err := tc.eval.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = cmplx.Conj(v[i])
	}
	if e := maxErr(tc.decryptVec(conj), want); e > 1e-5 {
		t.Fatalf("Conjugate error %g", e)
	}
}

func TestAddConstMultConst(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(21))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)

	ct2 := tc.eval.AddConst(ct, 2.5)
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] + 2.5
	}
	if e := maxErr(tc.decryptVec(ct2), want); e > 1e-6 {
		t.Fatalf("AddConst error %g", e)
	}

	ct3, err := tc.eval.MultConst(ct, -1.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = v[i] * -1.25
	}
	if e := maxErr(tc.decryptVec(ct3), want); e > 1e-6 {
		t.Fatalf("MultConst error %g", e)
	}
	if math.Abs(ct3.Scale/ct.Scale-1) > 1e-9 {
		t.Fatalf("MultConst at drop-prime scale should restore scale exactly: %g vs %g", ct3.Scale, ct.Scale)
	}
}

func TestMulByI(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(22))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.eval.MulByI(tc.encryptVec(t, v))
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * 1i
	}
	if e := maxErr(tc.decryptVec(ct), want); e > 1e-6 {
		t.Fatalf("MulByI error %g", e)
	}
}

func TestSwitchKeysEncapsulation(t *testing.T) {
	// Round trip dense -> sparse -> dense secret.
	tc := newTestContext(t, TestParameters())
	skSparse := tc.kgen.GenSparseSecretKey()
	top := tc.params.MaxLevel()
	toSparse := tc.kgen.genSwitchingKey(top, tc.kgen.freshID(), tc.sk.Q, skSparse.Q, skSparse.P)
	toDense := tc.kgen.genSwitchingKey(top, tc.kgen.freshID(), skSparse.Q, tc.sk.Q, tc.sk.P)

	r := rand.New(rand.NewSource(23))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, v)
	ctSparse, err := tc.eval.SwitchKeys(ct, toSparse)
	if err != nil {
		t.Fatal(err)
	}

	// Decrypts under the sparse key.
	dSparse := NewDecryptor(tc.params, skSparse)
	got := dSparse.DecryptDecodeNew(ctSparse, tc.enc)
	if e := maxErr(got, v); e > 1e-5 {
		t.Fatalf("switch to sparse error %g", e)
	}

	ctBack, err := tc.eval.SwitchKeys(ctSparse, toDense)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(ctBack), v); e > 1e-5 {
		t.Fatalf("round-trip encapsulation error %g", e)
	}
}

func TestDropLevel(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(24))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct, err := tc.eval.DropLevel(tc.encryptVec(t, v), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Level() != 2 {
		t.Fatalf("level = %d", ct.Level())
	}
	if e := maxErr(tc.decryptVec(ct), v); e > 1e-6 {
		t.Fatalf("drop-level error %g", e)
	}
}

func TestParametersAccessors(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	p := tc.params
	if p.N() != 1<<10 || p.Slots() != 1<<9 {
		t.Fatal("bad N/slots")
	}
	if p.Digits(p.MaxLevel()) != (p.MaxLevel()+1+p.Alpha()-1)/p.Alpha() {
		t.Fatal("bad digit count")
	}
}

func TestPaperParametersStructure(t *testing.T) {
	// Table IV: N=2^16, L=54, alpha=14, D=4. Structural check only (we do
	// not instantiate the rings).
	lit := PaperParameters()
	if lit.LogN != 16 || len(lit.LogQ) != 54 || len(lit.LogP) != 14 {
		t.Fatalf("paper parameter shape wrong: %v", lit)
	}
	d := (len(lit.LogQ) + len(lit.LogP) - 1) / len(lit.LogP)
	if d != 4 {
		t.Fatalf("D = %d, want 4", d)
	}
	// log PQ < 1623 for 128-bit security at N=2^16 (§IV-B).
	total := 0
	for _, b := range append(append([]int{}, lit.LogQ...), lit.LogP...) {
		total += b
	}
	if total >= 1623 {
		t.Fatalf("log PQ = %d violates the 128-bit security bound", total)
	}
}
