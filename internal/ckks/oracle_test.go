package ckks

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// oracle is the plainly-correct reference the evaluator is held to: every
// kernel is a barriered, exact, full-polynomial ring/rns primitive, nothing is
// lazy, fused, pooled or cached (converters and rescale constants are rebuilt
// per call). Ciphertext bytes are a pure function of inputs and
// parameters, so the evaluator's one production path must reproduce these
// results byte for byte (TestDeterminismMatrix).
type oracle struct {
	p    *Parameters
	keys *EvaluationKeySet
	enc  *Encoder
}

// nttZero returns a zero polynomial flagged as NTT-domain.
func nttZero(r *ring.Ring, lvl int) *ring.Poly {
	p := r.NewPoly(lvl)
	p.IsNTT = true
	return p
}

func (o oracle) converter(from, to []modarith.Modulus) *rns.BasisConverter {
	bc, err := rns.NewBasisConverter(from, to)
	if err != nil {
		panic(err)
	}
	return bc
}

// qp is a value over the extended basis Q_lvl ∪ P.
type qp struct{ q, p *ring.Poly }

func (o oracle) zeroQP(lvl int) qp {
	return qp{nttZero(o.p.RingQ(), lvl), nttZero(o.p.RingP(), o.p.Alpha()-1)}
}

// macQP sets acc += a ⊙ (bq, bp).
func (o oracle) macQP(acc, a qp, bq, bp *ring.Poly) {
	o.p.RingQ().MulCoeffsAdd(acc.q, a.q, bq, acc.q.Level())
	o.p.RingP().MulCoeffsAdd(acc.p, a.p, bp, acc.p.Level())
}

func (o oracle) addQP(acc, a qp) {
	o.p.RingQ().Add(acc.q, acc.q, a.q, acc.q.Level())
	o.p.RingP().Add(acc.p, acc.p, a.p, acc.p.Level())
}

func (o oracle) autQP(a qp, g uint64) qp {
	return qp{o.aut(o.p.RingQ(), a.q, g), o.aut(o.p.RingP(), a.p, g)}
}

func (o oracle) aut(r *ring.Ring, a *ring.Poly, g uint64) *ring.Poly {
	out := nttZero(r, a.Level())
	r.AutomorphismNTT(out, a, g, a.Level())
	return out
}

// decompose is ModUp: INTT, cut into α-limb digits, base-convert each digit
// to Q_lvl ∪ P, NTT.
func (o oracle) decompose(c *ring.Poly, lvl int) []qp {
	rq, rp := o.p.RingQ(), o.p.RingP()
	alpha := o.p.Alpha()
	coeff := c.Truncated(lvl).CopyNew()
	rq.INTT(coeff, lvl)
	to := append(append([]modarith.Modulus{}, rq.Moduli[:lvl+1]...), rp.Moduli...)
	digits := make([]qp, o.p.Digits(lvl))
	for d := range digits {
		lo, hi := d*alpha, min((d+1)*alpha, lvl+1)
		dg := qp{rq.NewPoly(lvl), rp.NewPoly(alpha - 1)}
		rows := append(append([][]uint64{}, dg.q.Coeffs...), dg.p.Coeffs...)
		o.converter(rq.Moduli[lo:hi], to).Convert(rows, coeff.Coeffs[lo:hi])
		rq.NTT(dg.q, lvl)
		rp.NTT(dg.p, alpha-1)
		digits[d] = dg
	}
	return digits
}

// gadget is KeyMult: the inner product of the digits with the key's digit
// arrays.
func (o oracle) gadget(digits []qp, swk *SwitchingKey, lvl int) (u0, u1 qp) {
	u0, u1 = o.zeroQP(lvl), o.zeroQP(lvl)
	for d, dg := range digits {
		o.macQP(u0, dg, swk.BQ[d], swk.BP[d])
		aq, ap := keyA(o.p, swk, d, lvl)
		o.macQP(u1, dg, aq, ap)
	}
	return u0, u1
}

// keyA expands digit d of the key's uniform half over Q_lvl and P, whole, in
// fresh NTT-flagged polynomials: what the key stored before its seed did.
func keyA(p *Parameters, swk *SwitchingKey, d, lvl int) (aq, ap *ring.Poly) {
	expand := func(r *ring.Ring, half, level int) *ring.Poly {
		a := r.NewPoly(level)
		for i := 0; i <= level; i++ {
			r.Moduli[i].ExpandUniform(a.Coeffs[i], modarith.NewStreamKey(swk.Seed), ring.KeyRowTag(d, half, i), 0)
		}
		a.IsNTT = true
		return a
	}
	return expand(p.RingQ(), 0, lvl), expand(p.RingP(), 1, p.RingP().MaxLevel())
}

// modDown returns round(u / P) over Q_lvl: (u.q − BConv_{P→Q}(u.p)) · P^{-1}.
func (o oracle) modDown(u qp) *ring.Poly {
	rq, rp := o.p.RingQ(), o.p.RingP()
	lvl := u.q.Level()
	work := u.p.CopyNew()
	rp.INTT(work, rp.MaxLevel())
	conv := rq.NewPoly(lvl)
	o.converter(rp.Moduli, rq.Moduli[:lvl+1]).Convert(conv.Coeffs, work.Coeffs)
	rq.NTT(conv, lvl)
	out := nttZero(rq, lvl)
	rq.Sub(out, u.q, conv, lvl)
	rq.MulByLimbScalars(out, out, rns.ProductInvMod(rp.Moduli, rq.Moduli[:lvl+1]), lvl)
	return out
}

func (o oracle) keySwitch(c *ring.Poly, lvl int, swk *SwitchingKey) (d0, d1 *ring.Poly) {
	u0, u1 := o.gadget(o.decompose(c, lvl), swk, lvl)
	return o.modDown(u0), o.modDown(u1)
}

func (o oracle) switchKeys(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	lvl := ct.Level()
	d0, d1 := o.keySwitch(ct.C1, lvl, swk)
	o.p.RingQ().Add(d0, d0, ct.C0, lvl)
	return &Ciphertext{C0: d0, C1: d1, Scale: ct.Scale}
}

// automorphism is σ_g(switchKeys(ct)) under the Galois key for g.
func (o oracle) automorphism(ct *Ciphertext, g uint64) *Ciphertext {
	sw := o.switchKeys(ct, o.keys.Gal[g])
	rq := o.p.RingQ()
	return &Ciphertext{C0: o.aut(rq, sw.C0, g), C1: o.aut(rq, sw.C1, g), Scale: ct.Scale}
}

func (o oracle) rotate(ct *Ciphertext, k int) *Ciphertext {
	return o.automorphism(ct, o.p.RingQ().GaloisElement(k))
}

func (o oracle) mulRelin(a, b *Ciphertext) *Ciphertext {
	rq := o.p.RingQ()
	lvl := a.Level()
	d0, d1, d2 := nttZero(rq, lvl), nttZero(rq, lvl), nttZero(rq, lvl)
	rq.MulCoeffs(d0, a.C0, b.C0, lvl)
	rq.MulCoeffs(d1, a.C0, b.C1, lvl)
	rq.MulCoeffsAdd(d1, a.C1, b.C0, lvl)
	rq.MulCoeffs(d2, a.C1, b.C1, lvl)
	u0, u1 := o.keySwitch(d2, lvl, o.keys.Rlk)
	rq.Add(d0, d0, u0, lvl)
	rq.Add(d1, d1, u1, lvl)
	return &Ciphertext{C0: d0, C1: d1, Scale: a.Scale * b.Scale}
}

func (o oracle) rescale(ct *Ciphertext) *Ciphertext {
	rq := o.p.RingQ()
	lvl := ct.Level()
	drop := func(c *ring.Poly) *ring.Poly {
		w := c.CopyNew()
		rq.INTT(w, lvl)
		rns.NewRescaler(rq.Moduli[:lvl+1]).DivRoundByLastModulus(w.Coeffs)
		out := w.Truncated(lvl - 1).CopyNew()
		rq.NTT(out, lvl-1)
		return out
	}
	return &Ciphertext{C0: drop(ct.C0), C1: drop(ct.C1), Scale: ct.Scale / float64(rq.Moduli[lvl].Q)}
}

// bigScaled returns round(c * scale) as a big.Int, computed in high
// precision (bootstrapping constants overflow float64 mantissas): the
// reference ring.ScaledResidues is held to.
func bigScaled(c *big.Float, scale float64) *big.Int {
	v := new(big.Float).SetPrec(200).Mul(c, big.NewFloat(scale))
	half := big.NewFloat(0.5)
	if v.Sign() >= 0 {
		v.Add(v, half)
	} else {
		v.Sub(v, half)
	}
	out, _ := v.Int(nil)
	return out
}

// bigResidues returns v mod q_i in [0, q_i) for the first n limbs of r.
func bigResidues(r *ring.Ring, v *big.Int, n int) []uint64 {
	res := make([]uint64, n)
	for i := range res {
		res[i] = new(big.Int).Mod(v, new(big.Int).SetUint64(r.Moduli[i].Q)).Uint64()
	}
	return res
}

// mulConstAccum returns Σ_i consts[i]·cts[i], every constant encoded at
// constScale, as constant-product temporaries chained through two-operand
// adds.
func (o oracle) mulConstAccum(cts []*Ciphertext, consts []float64, constScale float64) *Ciphertext {
	rq := o.p.RingQ()
	lvl := cts[0].Level()
	out := &Ciphertext{C0: nttZero(rq, lvl), C1: nttZero(rq, lvl), Scale: cts[0].Scale * constScale}
	for i, ct := range cts {
		k := bigResidues(rq, bigScaled(big.NewFloat(consts[i]), constScale), lvl+1)
		t0, t1 := nttZero(rq, lvl), nttZero(rq, lvl)
		rq.MulByLimbScalars(t0, ct.C0, k, lvl)
		rq.MulByLimbScalars(t1, ct.C1, k, lvl)
		rq.Add(out.C0, out.C0, t0, lvl)
		rq.Add(out.C1, out.C1, t1, lvl)
	}
	return out
}

// sweep evaluates the diagonal linear transform with baby step bs, written as
// the BSGS identity itself:
//
//	Σ_g σ_g( Σ_b d'_{g,b} ⊙ σ_b(ct) ) ,  r = g + b ,  b = r mod bs ,
//
// baby rotations sharing one decomposition of c1 and staying in QP, each
// giant's inner sum key-switched once more by g, one ModDown at the end.
// bs = Slots is the per-diagonal hoisted sweep (a single giant, g = 0).
func (o oracle) sweep(ct *Ciphertext, lt *LinearTransform, bs int, gain float64) *Ciphertext {
	rq := o.p.RingQ()
	lvl := ct.Level()
	ptScale := float64(rq.Moduli[lvl].Q) * gain
	digits := o.decompose(ct.C1, lvl)

	giants := map[int][]int{}
	for r := range lt.Diags {
		giants[r-r%bs] = append(giants[r-r%bs], r)
	}
	e0, e1 := o.zeroQP(lvl), o.zeroQP(lvl)
	q0, q1 := nttZero(rq, lvl), nttZero(rq, lvl)
	for rot, offsets := range giants {
		t0, t1 := o.zeroQP(lvl), o.zeroQP(lvl)
		a0, a1 := nttZero(rq, lvl), nttZero(rq, lvl)
		anyBaby := false
		for _, r := range offsets {
			ptQ, ptP, err := o.enc.encodeDiagQP(lt.Diags[r], -rot, lvl, ptScale)
			if err != nil {
				panic(err)
			}
			b := r - rot
			if b == 0 {
				rq.MulCoeffsAdd(a0, ct.C0, ptQ, lvl)
				rq.MulCoeffsAdd(a1, ct.C1, ptQ, lvl)
				continue
			}
			anyBaby = true
			g := rq.GaloisElement(b)
			u0, u1 := o.gadget(digits, o.keys.Gal[g], lvl)
			o.macQP(t0, o.autQP(u0, g), ptQ, ptP)
			o.macQP(t1, o.autQP(u1, g), ptQ, ptP)
			rq.MulCoeffsAdd(a0, o.aut(rq, ct.C0, g), ptQ, lvl)
		}
		if rot == 0 {
			o.addQP(e0, t0)
			o.addQP(e1, t1)
			rq.Add(q0, q0, a0, lvl)
			rq.Add(q1, q1, a1, lvl)
			continue
		}
		// The inner sum is the ciphertext (ModDown(t0)+a0, ModDown(t1)+a1);
		// key-switch its c1 by the giant rotation, keeping t0 and the new
		// halves in QP so the ModDown stays deferred.
		inner1 := a1
		if anyBaby {
			inner1 = o.modDown(t1)
			rq.Add(inner1, inner1, a1, lvl)
		}
		g := rq.GaloisElement(rot)
		v0, v1 := o.gadget(o.decompose(inner1, lvl), o.keys.Gal[g], lvl)
		o.addQP(v0, t0)
		o.addQP(e0, o.autQP(v0, g))
		o.addQP(e1, o.autQP(v1, g))
		rq.Add(q0, q0, o.aut(rq, a0, g), lvl)
	}
	rq.Add(q0, q0, o.modDown(e0), lvl)
	rq.Add(q1, q1, o.modDown(e1), lvl)
	return &Ciphertext{C0: q0, C1: q1, Scale: ct.Scale * ptScale}
}

func ctBytes(t testing.TB, ct *Ciphertext) []byte {
	t.Helper()
	b, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wideBoundParams has 61-bit moduli (modarith.MaxModulusBits), where the
// products of a lazy and an exact residue come within a factor 32 of 2^128:
// a sweep giant fed by more babies than modarith.MaxDotTerms must fold its
// 128-bit accumulators mid-chain to stay exact.
func wideBoundParams() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     []int{61, 61, 61},
		LogP:     []int{61, 61},
		LogScale: 50,
	}
}

// tableEvaluator is an evaluator and an encoder whose rings run one kernel
// table at one pool width.
type tableEvaluator struct {
	label string
	ev    *Evaluator
	enc   *Encoder
}

// evaluatorsAt returns an evaluator over tc's keys for every kernel table the
// host runs at pool widths 1, 2 and 4, each on poisoned rings of its own, so
// the whole matrix lives side by side in one process.
func (tc *testContext) evaluatorsAt(t *testing.T) []tableEvaluator {
	t.Helper()
	var evs []tableEvaluator
	for _, k := range modarith.KernelTables() {
		for _, width := range []int{1, 2, 4} {
			p := paramsAt(t, tc.params, k, width)
			p.RingQ().PoisonPool()
			p.RingP().PoisonPool()
			evs = append(evs, tableEvaluator{fmt.Sprintf("table %v width %d", k, width), NewEvaluator(p, tc.keys), NewEncoder(p)})
		}
	}
	return evs
}

// goOracle returns tc's oracle on the pure-Go kernel table at width 1.
func (tc *testContext) goOracle(t *testing.T) oracle {
	t.Helper()
	p := paramsAt(t, tc.params, modarith.KernelTables()[0], 1)
	return oracle{p: p, keys: tc.keys, enc: NewEncoder(p)}
}

// matchOracle evaluates want once, then got on every evaluator of evs, and
// fails unless every result is byte for byte (MarshalBinary) the oracle's.
func matchOracle(t *testing.T, label string, evs []tableEvaluator, want func() []*Ciphertext, got func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error)) {
	t.Helper()
	ref := want()
	for _, e := range evs {
		out, err := got(e.ev, e.enc)
		if err != nil {
			t.Fatalf("%s %s: %v", label, e.label, err)
		}
		for i := range ref {
			if !bytes.Equal(ctBytes(t, out[i]), ctBytes(t, ref[i])) {
				t.Fatalf("%s[%d] %s: evaluator bytes differ from the oracle", label, i, e.label)
			}
		}
	}
}

// TestDeterminismMatrix is the one differential the evaluator answers to:
// op × every level × par width {1, 2, 4} × every kernel table the host has,
// each compared byte for byte (MarshalBinary) against the oracle run on the
// pure-Go table, on poisoned pools, with one ring per (table, width). It covers what the per-mode differential
// files used to: lazy vs exact kernels, pipelined vs barriered chains, the
// ragged last digit of the levels α does not divide, the per-diagonal sweep
// as the degenerate BSGS plan, a sweep giant with more babies than one
// 128-bit accumulation may sum at 61-bit moduli, the rescale merged into the
// ModDown of HMULT and of the sweep against the oracle's ModDown-then-Rescale,
// and independence from the worker count and from the CPU's kernel tier.
func TestDeterminismMatrix(t *testing.T) {
	t.Parallel()
	tc := newTestContext(t, alpha4Params())
	p := tc.params
	slots := p.Slots()
	r := rand.New(rand.NewSource(70))
	lt := denseTestTransform(r, slots, 8)
	onlyDiag0 := randomSparseLT(r, slots, []int{0})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1, 2, 3, 4, 5, 6, 7})
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)
	sparse := tc.kgen.GenSparseSecretKey()
	swk := tc.kgen.genSwitchingKey(tc.params.MaxLevel(), tc.kgen.freshID(), tc.sk.Q, sparse.Q, sparse.P)
	conj := p.RingQ().GaloisElementConjugate()

	accumConsts := []float64{0.5, -1.25, 0.75}
	ctA := tc.encryptVec(t, randomComplex(r, slots, 1))
	ctB := tc.encryptVec(t, randomComplex(r, slots, 1))

	evs := tc.evaluatorsAt(t)
	or := tc.goOracle(t)
	for lvl := 0; lvl <= p.MaxLevel(); lvl++ {
		a, b := dropTo(tc.eval, ctA, lvl), dropTo(tc.eval, ctB, lvl)

		type opCase struct {
			name string
			want func() []*Ciphertext
			got  func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error)
		}
		one := func(ct *Ciphertext, err error) ([]*Ciphertext, error) { return []*Ciphertext{ct}, err }
		ops := []opCase{
			{"switch-keys",
				func() []*Ciphertext { return []*Ciphertext{or.switchKeys(a, swk)} },
				func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.SwitchKeys(a, swk)) }},
			{"rotate",
				func() []*Ciphertext { return []*Ciphertext{or.rotate(a, 3)} },
				func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.Rotate(a, 3)) }},
			{"conjugate",
				func() []*Ciphertext { return []*Ciphertext{or.automorphism(a, conj)} },
				func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.Conjugate(a)) }},
		}
		// The ops that end in a rescale need a prime to drop; the oracle runs
		// them long-hand, the rescale after the ModDown it rides on.
		if lvl > 0 {
			ops = append(ops,
				opCase{"rescale",
					func() []*Ciphertext { return []*Ciphertext{or.rescale(a)} },
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.Rescale(a)) }},
				opCase{"mul",
					func() []*Ciphertext { return []*Ciphertext{or.rescale(or.mulRelin(a, b))} },
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.Mul(a, b)) }},
				opCase{"square",
					func() []*Ciphertext { return []*Ciphertext{or.rescale(or.mulRelin(a, a))} },
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.Square(a)) }},
				opCase{"mul-const-accum",
					func() []*Ciphertext {
						qd := float64(p.RingQ().Moduli[lvl].Q)
						return []*Ciphertext{or.rescale(or.mulConstAccum([]*Ciphertext{a, b, a}, accumConsts, qd))}
					},
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) {
						return one(ev.MulConstAccum([]*Ciphertext{a, b, a}, accumConsts))
					}},
				opCase{"mul-const",
					func() []*Ciphertext {
						qd := float64(p.RingQ().Moduli[lvl].Q)
						return []*Ciphertext{or.rescale(or.mulConstAccum([]*Ciphertext{a}, []float64{-1.25}, qd))}
					},
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) { return one(ev.MultConst(a, -1.25)) }},
				opCase{"sweep-diag0",
					func() []*Ciphertext { return []*Ciphertext{or.rescale(or.sweep(a, onlyDiag0, slots, 1))} },
					func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) {
						return one(ev.EvaluateLinearTransform(a, onlyDiag0, enc))
					}})
			// The bootstrap's two variants beside the plain sweep: diagonals
			// encoded at a gain (the conjugate split's 1/2 and EvalMod's
			// 1/(K+1) at K = 12), and a tail without the rescale.
			for _, bs := range []int{slots, 4} {
				for _, v := range []struct {
					gain    float64
					rescale bool
				}{{1, true}, {0.5 / 13, true}, {1, false}} {
					ops = append(ops, opCase{fmt.Sprintf("sweep-bs%d-gain%.4g-rescale%v", bs, v.gain, v.rescale),
						func() []*Ciphertext {
							out := or.sweep(a, lt, bs, v.gain)
							if v.rescale {
								out = or.rescale(out)
							}
							return []*Ciphertext{out}
						},
						func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) {
							plan := newBSGSPlan(lt.Diags, bs)
							keys, err := ev.sweepKeys(plan, a.Level())
							if err != nil {
								return nil, err
							}
							return one(ev.evaluateSweep(a, lt, enc, plan, keys, v.gain, v.rescale))
						}})
				}
			}
		}

		for _, op := range ops {
			matchOracle(t, fmt.Sprintf("%s lvl %d plan %+v", op.name, lvl, p.PlanAt(lvl)), evs, op.want, op.got)
		}
	}

	// The per-diagonal plan of a transform with more diagonals than
	// modarith.MaxDotTerms: its one giant takes that many babies' MACs into
	// each accumulator, so the baby phase folds the 128-bit sums mid-chain.
	wide := newTestContext(t, wideBoundParams())
	wslots := wide.params.Slots()
	wlt := denseTestTransform(r, wslots, modarith.MaxDotTerms+8)
	wplan := newBSGSPlan(wlt.Diags, wslots)
	if len(wplan.babies) <= modarith.MaxDotTerms {
		t.Fatalf("%d babies: the plan must exceed the wide term bound %d", len(wplan.babies), modarith.MaxDotTerms)
	}
	wide.kgen.GenRotationKeys(wide.sk, wide.keys, wplan.rotations())
	wkeys, err := wide.eval.sweepKeys(wplan, wide.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	wor := wide.goOracle(t)
	wevs := wide.evaluatorsAt(t)
	wct := wide.encryptVec(t, randomComplex(r, wslots, 1))
	for lvl := 1; lvl <= wide.params.MaxLevel(); lvl++ {
		a := dropTo(wide.eval, wct, lvl)
		matchOracle(t, fmt.Sprintf("sweep-%d-babies lvl %d", len(wplan.babies), lvl), wevs,
			func() []*Ciphertext { return []*Ciphertext{wor.rescale(wor.sweep(a, wlt, wslots, 1))} },
			func(ev *Evaluator, enc *Encoder) ([]*Ciphertext, error) {
				ct, err := ev.evaluateSweep(a, wlt, enc, wplan, wkeys, 1, true)
				return []*Ciphertext{ct}, err
			})
	}
}

// TestScaledResiduesMatchBigFloat holds ring.ScaledResidues, the word
// arithmetic every constant op encodes its constant with, to bigScaled's
// 200-bit big.Float rounding: the EvalMod and Chebyshev constants at the
// scales they are encoded at, exact ties of either sign, values rounding to
// zero, |c·scale| past 2^128, extreme exponents and random pairs.
func TestScaledResiduesMatchBigFloat(t *testing.T) {
	params, err := NewParameters(BootTestParameters())
	if err != nil {
		t.Fatal(err)
	}
	rq := params.RingQ()
	var scales []float64
	for _, m := range rq.Moduli {
		scales = append(scales, float64(m.Q))
	}
	q0 := scales[0]
	delta := params.DefaultScale()
	scales = append(scales, delta, q0, 2*math.Pi*delta, q0*delta/(q0+12345), 1, 0.5, -1)

	cfg := DefaultBootstrapConfig()
	h := cfg.evalModHalfWidth()
	consts := append(evalModPoly(cfg), 0.5/h, -0.25/h, 0, -1, 0.5, -0.5, 1.5, 1.0)
	consts = append(consts, ChebyshevInterpolation(math.Exp, -1, 1, 31)...)
	consts = append(consts, ChebyshevInterpolation(func(x float64) float64 { return 1 / x }, 1, 8, 63)...)

	type pair struct{ c, scale float64 }
	var pairs []pair
	for _, c := range consts {
		for _, s := range scales {
			pairs = append(pairs, pair{c, s}, pair{-c, s})
		}
	}
	pairs = append(pairs,
		// Exact ties: k + 1/2 rounds away from zero on both sides.
		pair{0.5, 1}, pair{-0.5, 1}, pair{2.5, 1}, pair{-2.5, 1}, pair{3.5, 1},
		pair{0x1.8p-60, 0x1p60}, pair{-0x1.8p-60, 0x1p60},
		pair{(1<<52 + 1) * 0x1p-1, 1}, pair{-(1<<52 + 1) * 0x1p-1, 1},
		// Just below and above one half, and far below.
		pair{math.Nextafter(0.5, 0), 1}, pair{math.Nextafter(0.5, 1), 1},
		pair{0x1p-107, 1}, pair{0x1.fffffffffffffp-54, 0x1p52}, pair{-0x1p-300, 0x1p100},
		pair{math.SmallestNonzeroFloat64, math.MaxFloat64}, pair{-math.SmallestNonzeroFloat64, 0x1p1023},
		// |c·scale| ≥ 2^128, up to the float64 range squared.
		pair{0x1.23456789abcdep70, 0x1p60}, pair{-1e30, 1e30}, pair{math.MaxFloat64, math.MaxFloat64},
		pair{-math.MaxFloat64, 3.7}, pair{1e200, -1e-100}, pair{0, math.MaxFloat64},
	)
	rng := rand.New(rand.NewSource(11))
	for range 2000 {
		c := math.Ldexp(rng.NormFloat64(), rng.Intn(260)-130)
		s := math.Ldexp(1+rng.Float64(), rng.Intn(260)-100)
		pairs = append(pairs, pair{c, s})
	}

	got := make([]uint64, len(rq.Moduli))
	for _, p := range pairs {
		want := bigResidues(rq, bigScaled(big.NewFloat(p.c), p.scale), len(rq.Moduli))
		rq.ScaledResidues(got, p.c, p.scale)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round(%b · %b) mod q_%d = %d, want %d", p.c, p.scale, i, got[i], want[i])
			}
		}
	}
}
