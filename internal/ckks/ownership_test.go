package ckks

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Ownership of evaluator results (DESIGN §3.6): every op returns a whole
// ciphertext of its own, Release hands one back to the ring pool, and the
// compound ops release every intermediate they create. The tests below hold
// the three consequences: no result aliases an operand, nothing reads a value
// after its release, and Release itself cannot be misused into corrupting the
// pool.

// deepParams has the depth of a degree-47 Chebyshev evaluation or three sign
// iterations at a degree small enough to run them in tier 1.
func deepParams() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     append([]int{60}, repeatInts(45, 13)...),
		LogP:     []int{55, 55},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	}
}

// sharesRow reports whether any row of any output starts at the address of a
// row of an input.
func sharesRow(outs, ins []*Ciphertext) bool {
	held := map[*uint64]bool{}
	for _, ct := range ins {
		for _, p := range ct.polys() {
			for _, row := range p.Coeffs {
				held[&row[0]] = true
			}
		}
	}
	for _, ct := range outs {
		for _, p := range ct.polys() {
			for _, row := range p.Coeffs {
				if held[&row[0]] {
					return true
				}
			}
		}
	}
	return false
}

// TestNoAlias: no row of an op's result is a row of one of its operands — the
// property that makes releasing an operand safe while the result lives (the
// engine does exactly that) and a result safe to release while the operand
// lives. The degenerate paths are the ones that used to be free to return
// their input or a view of it.
func TestNoAlias(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	p, ev := tc.params, tc.eval
	slots := p.Slots()
	r := rand.New(rand.NewSource(5))
	dense := denseTestTransform(r, slots, 8)
	onlyDiag0 := randomSparseLT(r, slots, []int{0}) // b == 0 diagonals only: no key switch at all
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{3})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(p, dense))
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)

	half := make([]complex128, slots)
	for i := range half {
		half[i] = complex(0.1+0.4*r.Float64(), 0)
	}
	a := tc.encryptVec(t, randomComplex(r, slots, 1))
	b := tc.encryptVec(t, randomComplex(r, slots, 1))
	ha, hb := tc.encryptVec(t, half), tc.encryptVec(t, half)
	low := dropTo(ev, a, 3)
	ptv, err := tc.enc.Encode(randomComplex(r, slots, 1), p.MaxLevel(), p.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	pt := &Plaintext{Value: ptv, Scale: p.DefaultScale()}
	cheb := ChebyshevInterpolation(math.Sin, -1, 1, 7)

	one := func(ct *Ciphertext) ([]*Ciphertext, error) { return []*Ciphertext{ct}, nil }
	oneErr := func(ct *Ciphertext, err error) ([]*Ciphertext, error) { return []*Ciphertext{ct}, err }
	for _, op := range []struct {
		name string
		ins  []*Ciphertext
		run  func() ([]*Ciphertext, error)
	}{
		{"Add", []*Ciphertext{a, b}, func() ([]*Ciphertext, error) { return one(ev.Add(a, b)) }},
		{"Add/levels", []*Ciphertext{a, low}, func() ([]*Ciphertext, error) { return one(ev.Add(low, a)) }},
		{"Sub", []*Ciphertext{a, b}, func() ([]*Ciphertext, error) { return one(ev.Sub(a, b)) }},
		{"Neg", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return one(ev.Neg(a)) }},
		{"MulPlain", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.MulPlain(a, pt)) }},
		{"AddConst", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return one(ev.AddConst(a, 0.5)) }},
		{"MultConst", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.MultConst(a, 0.5)) }},
		{"MulByI", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return one(ev.MulByI(a)) }},
		{"MulConstAccum", []*Ciphertext{a, b, low}, func() ([]*Ciphertext, error) {
			return oneErr(ev.MulConstAccum([]*Ciphertext{a, b, low}, []float64{0.5, -1, 2}))
		}},
		{"Mul", []*Ciphertext{a, b}, func() ([]*Ciphertext, error) { return oneErr(ev.Mul(a, b)) }},
		{"Mul/levels", []*Ciphertext{a, low}, func() ([]*Ciphertext, error) { return oneErr(ev.Mul(low, a)) }},
		{"Square", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Square(a)) }},
		{"Rescale", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Rescale(a)) }},
		{"SwitchKeys", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.SwitchKeys(a, tc.keys.Rlk)) }},
		{"DropLevel", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.DropLevel(a, 2)) }},
		{"DropLevel/same", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.DropLevel(a, a.Level())) }},
		{"Rotate", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Rotate(a, 3)) }},
		{"Rotate/0", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Rotate(a, 0)) }},
		{"Rotate/slots", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Rotate(a, slots)) }},
		{"Conjugate", []*Ciphertext{a}, func() ([]*Ciphertext, error) { return oneErr(ev.Conjugate(a)) }},
		{"LinearTransform", []*Ciphertext{a}, func() ([]*Ciphertext, error) {
			return oneErr(ev.EvaluateLinearTransform(a, dense, tc.enc))
		}},
		{"LinearTransform/diag0", []*Ciphertext{a}, func() ([]*Ciphertext, error) {
			return oneErr(ev.EvaluateLinearTransform(a, onlyDiag0, tc.enc))
		}},
		{"LinearTransform/empty", []*Ciphertext{a}, func() ([]*Ciphertext, error) {
			return oneErr(ev.EvaluateLinearTransform(a, NewLinearTransform(slots, nil), tc.enc))
		}},
		{"EvalSign", []*Ciphertext{ha}, func() ([]*Ciphertext, error) { return one(ev.EvalSign(ha, 1)) }},
		{"EvalSign/0", []*Ciphertext{ha}, func() ([]*Ciphertext, error) { return one(ev.EvalSign(ha, 0)) }},
		{"EvalMinMax", []*Ciphertext{ha, hb}, func() ([]*Ciphertext, error) {
			lo, hi := ev.EvalMinMax(ha, hb, 1)
			return []*Ciphertext{lo, hi}, nil
		}},
		{"EvaluateChebyshev", []*Ciphertext{ha}, func() ([]*Ciphertext, error) {
			return oneErr(ev.EvaluateChebyshev(ha, cheb, -1, 1))
		}},
		{"EvaluateChebyshev/constant", []*Ciphertext{ha}, func() ([]*Ciphertext, error) {
			return oneErr(ev.EvaluateChebyshev(ha, cheb[:1], -1, 1))
		}},
	} {
		before := make([][]byte, len(op.ins))
		for i, ct := range op.ins {
			before[i] = ctBytes(t, ct)
		}
		outs, err := op.run()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if sharesRow(outs, op.ins) {
			t.Errorf("%s: a result row is an operand's row", op.name)
		}
		// Outputs of one call are distinct from each other too.
		for i := range outs {
			if sharesRow(outs[i:i+1], outs[i+1:]) || &outs[i].C0.Coeffs[0][0] == &outs[i].C1.Coeffs[0][0] {
				t.Errorf("%s: two result polynomials share a row", op.name)
			}
		}
		// Releasing the results leaves the operands as they were (the pools
		// are poisoned: a shared row would now hold the poison pattern).
		ev.Release(outs...)
		for i, ct := range op.ins {
			if !bytes.Equal(ctBytes(t, ct), before[i]) {
				t.Fatalf("%s: operand %d changed across the op and the release of its result", op.name, i)
			}
		}
	}
}

// TestUseAfterRelease runs the compound ops — the ones that release
// intermediates while still computing — on poisoned pools, where a released
// polynomial is overwritten at once and a borrowed one starts out as garbage,
// and demands the bytes of an unpoisoned run: a read of a released value, or
// of an output row an op forgot to write, cannot produce them. Each op runs
// twice on the poisoned side, the second time out of what the first put
// back. The results also answer to the existing references (the sweep oracle,
// the plaintext function).
func TestUseAfterRelease(t *testing.T) {
	type opCase struct {
		name string
		run  func(tc *testContext, in *Ciphertext) *Ciphertext
		// check validates the (unpoisoned) result against a reference that
		// does not go through the evaluator's pooled path.
		check func(tc *testContext, in, out *Ciphertext, values []complex128)
	}
	realIn := func(r *rand.Rand, n int) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(2*r.Float64()-1, 0)
		}
		return v
	}
	cos8 := func(x float64) float64 { return math.Cos(2 * math.Pi * x / 8) }
	chebCase := func(degree int) opCase {
		coeffs := ChebyshevInterpolation(cos8, -1, 1, degree)
		return opCase{
			name: fmt.Sprintf("EvaluateChebyshev/deg%d", degree),
			run: func(tc *testContext, in *Ciphertext) *Ciphertext {
				out, err := tc.eval.EvaluateChebyshev(in, coeffs, -1, 1)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
			check: func(tc *testContext, _, out *Ciphertext, values []complex128) {
				got := tc.decryptVec(out)
				for i, x := range values {
					if math.Abs(real(got[i])-cos8(real(x))) > 1e-3 {
						t.Fatalf("deg %d slot %d: got %v, want %v", degree, i, real(got[i]), cos8(real(x)))
					}
				}
			},
		}
	}

	var sweepLT *LinearTransform
	boots := map[*testContext]*Bootstrapper{}
	for _, group := range []struct {
		lit    ParametersLiteral
		short  bool // runs under -short
		values func(r *rand.Rand, n int) []complex128
		level  int // input level; -1 is the top
		setup  func(tc *testContext)
		ops    []opCase
	}{
		{lit: deepParams(), short: true, values: realIn, level: -1, setup: func(tc *testContext) {
			sweepLT = denseTestTransform(rand.New(rand.NewSource(3)), tc.params.Slots(), 8)
			tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, sweepLT))
		}, ops: []opCase{
			chebCase(31),
			chebCase(47),
			{
				name: "sweep",
				run: func(tc *testContext, in *Ciphertext) *Ciphertext {
					out, err := tc.eval.EvaluateLinearTransform(in, sweepLT, tc.enc)
					if err != nil {
						t.Fatal(err)
					}
					return out
				},
				check: func(tc *testContext, in, out *Ciphertext, _ []complex128) {
					bs := sweepLT.sweepPlan(tc.params).bs
					if bs >= sweepLT.Slots {
						t.Fatal("the dense transform did not select a baby step")
					}
					or := oracle{p: tc.params, keys: tc.keys, enc: tc.enc}
					want := or.rescale(or.sweep(in, sweepLT, bs, 1))
					if !bytes.Equal(ctBytes(t, out), ctBytes(t, want)) {
						t.Fatal("sweep bytes differ from the oracle")
					}
				},
			},
			{
				name: "EvalSign",
				run:  func(tc *testContext, in *Ciphertext) *Ciphertext { return tc.eval.EvalSign(in, 3) },
				check: func(tc *testContext, _, out *Ciphertext, values []complex128) {
					got := tc.decryptVec(out)
					for i, x := range values {
						if math.Abs(real(x)) > 0.5 && math.Abs(real(got[i])-math.Copysign(1, real(x))) > 0.2 {
							t.Fatalf("sign(%v) = %v", real(x), real(got[i]))
						}
					}
				},
			},
		}},
		{lit: BootTestParameters(), values: func(r *rand.Rand, n int) []complex128 { return randomComplex(r, n, 0.7) }, level: 0,
			setup: func(tc *testContext) {
				boot, err := tc.bootstrapper(DefaultBootstrapConfig())
				if err != nil {
					t.Fatal(err)
				}
				boots[tc] = boot
			},
			ops: []opCase{{
				name: "Bootstrap",
				run: func(tc *testContext, in *Ciphertext) *Ciphertext {
					out, err := boots[tc].Bootstrap(in)
					if err != nil {
						t.Fatal(err)
					}
					return out
				},
				check: func(tc *testContext, _, out *Ciphertext, values []complex128) {
					if e := maxErr(tc.decryptVec(out), values); e > 2e-2 {
						t.Fatalf("bootstrap error %g too large", e)
					}
				},
			}}},
	} {
		if testing.Short() && !group.short {
			continue
		}
		plain := buildTestContext(t, group.lit, false)
		poisoned := buildTestContext(t, group.lit, true)
		values := group.values(rand.New(rand.NewSource(17)), plain.params.Slots())
		var in [2]*Ciphertext
		for i, tc := range []*testContext{plain, poisoned} {
			if group.setup != nil {
				group.setup(tc)
			}
			in[i] = tc.encryptVec(t, values)
			if group.level >= 0 {
				in[i] = dropTo(tc.eval, in[i], group.level)
			}
		}
		if !bytes.Equal(ctBytes(t, in[0]), ctBytes(t, in[1])) {
			t.Fatal("setup: the two contexts encrypt differently")
		}
		for _, op := range group.ops {
			want := op.run(plain, in[0])
			op.check(plain, in[0], want, values)
			wantBytes := ctBytes(t, want)
			for rep := 0; rep < 2; rep++ {
				got := op.run(poisoned, in[1])
				if !bytes.Equal(ctBytes(t, got), wantBytes) {
					t.Fatalf("%s, run %d: poisoned pools change the result", op.name, rep)
				}
				if sharesRow([]*Ciphertext{got}, in[1:]) {
					t.Fatalf("%s: the result aliases its operand", op.name)
				}
				poisoned.eval.Release(got)
			}
			if !bytes.Equal(ctBytes(t, in[0]), ctBytes(t, in[1])) {
				t.Fatalf("%s wrote to its operand", op.name)
			}
		}
	}
}

// TestReleaseIsHarmless: Release of nil, of the same ciphertext twice, and of
// a ciphertext the caller built itself are no-ops or plain hand-backs; a view
// or an unmarshalled ciphertext pools nothing, so the rows it shares (or that
// were never the ring's) cannot reach another borrower.
func TestReleaseIsHarmless(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	ev, rq := tc.eval, tc.params.RingQ()
	r := rand.New(rand.NewSource(9))
	a := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	want := ctBytes(t, a)
	puts := obs.Default.Counter("ring_pool_puts_total")

	ev.Release()
	ev.Release(nil, nil)

	sum := ev.Add(a, a)
	before := puts.Value()
	ev.Release(sum)
	if sum.C0 != nil || sum.C1 != nil {
		t.Fatal("Release left the ciphertext holding its polynomials")
	}
	ev.Release(sum, sum)
	if got := puts.Value() - before; got != 2 {
		t.Fatalf("releasing one result three times pooled %v polynomials, want 2", got)
	}

	// A view and an unmarshalled copy of a: neither owns pooled rows.
	view := &Ciphertext{C0: a.C0.Truncated(2), C1: a.C1.Truncated(a.Level()), Scale: a.Scale}
	decoded := new(Ciphertext)
	if err := decoded.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	before = puts.Value()
	ev.Release(view, decoded)
	if got := puts.Value() - before; got != 0 {
		t.Fatalf("releasing a view and an unmarshalled ciphertext pooled %v polynomials", got)
	}
	if view.C0 != nil || decoded.C1 != nil {
		t.Fatal("Release left a view or an unmarshalled ciphertext holding polynomials")
	}
	if !bytes.Equal(ctBytes(t, a), want) {
		t.Fatal("releasing a view poisoned the rows of the ciphertext it was cut from")
	}

	// A caller-built ciphertext (fresh polynomials of the ring) is handed
	// back like any result, and later ops are none the worse for it.
	built := &Ciphertext{C0: rq.NewPoly(3), C1: rq.NewPoly(3), Scale: a.Scale}
	ev.Release(built, a.CopyNew())
	for i := 0; i < 3; i++ {
		sq := ev.mul(a, a)
		got := tc.decryptVec(sq)
		in := tc.decryptVec(a)
		for j := range in {
			if d := got[j] - in[j]*in[j]; math.Hypot(real(d), imag(d)) > 1e-4 {
				t.Fatalf("square after releases: slot %d off by %v", j, d)
			}
		}
		ev.Release(sq)
	}
}

// TestConcurrentRelease: goroutines sharing one evaluator — hence one set of
// pools — compute, compare and release in a tight loop. A polynomial handed to
// two borrowers at once, or released while another goroutine's op still read
// it, would change somebody's bytes (the pools are poisoned). Run with -race
// in CI.
func TestConcurrentRelease(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	ev := tc.eval
	r := rand.New(rand.NewSource(21))
	a := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	step := func() *Ciphertext {
		sq := ev.mul(a, a)
		rot, err := ev.Rotate(sq, 1)
		if err != nil {
			t.Error(err)
			return sq
		}
		ev.addInPlace(rot, sq)
		ev.Release(sq)
		return rot
	}
	want := ctBytes(t, step())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got := step()
				b, err := got.MarshalBinary()
				if err != nil || !bytes.Equal(b, want) {
					t.Errorf("concurrent step differs from the serial one (err %v)", err)
					return
				}
				ev.Release(got)
			}
		}()
	}
	wg.Wait()
}
