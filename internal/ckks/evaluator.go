package ckks

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// Evaluator executes homomorphic operations: the basic functions HADD,
// PMULT, HMULT and HROT of §II-A and the primitives they decompose into
// (ModUp, KeyMult, MAC, automorphism, ModDown, rescaling). Its constants are
// built by NewEvaluator (the monomial once, on first use) and only read
// afterwards, so ops share them without a lock.
type Evaluator struct {
	params *Parameters
	keys   *EvaluationKeySet

	levels      []levelConsts       // indexed by level
	downConv    *rns.BasisConverter // BConv P -> Q over the full chain
	rescaleConv *rns.BasisConverter // downConv with row i scaled by −P^{-1} mod q_i
	pModQ       []uint64            // P mod q_i (full chain)
	pInvModQ    []uint64            // P^{-1} mod q_i (full chain)

	monoOnce sync.Once
	mono     *ring.Poly // NTT(X^{N/2}) over the full chain
}

// levelConsts holds one level's key-switch and rescale constants: per digit
// of the level's plan, the ModUp BConv from the digit's Q limbs onto
// Q_ℓ ∪ P (target row i is limb i of Q, target ℓ+1+j limb j of P), and per Q
// limb the factor its digit's conversion premultiplies it by; the rescaler
// dropping q_ℓ and (P·q_ℓ)^{-1} mod q_i, i < ℓ, for modDownRescale (both nil
// at level 0). A digit's own limbs are targets too but are never converted:
// BConv onto a source prime q_j returns the source residue (every other
// Q_d/q_i term vanishes mod q_j), which the input already holds.
type levelConsts struct {
	conv    []*rns.BasisConverter
	qHatInv []uint64
	rs      *rns.Rescaler
	pqInv   []uint64
}

// NewEvaluator binds a key set (which may be extended later; the map is
// shared) and builds every level's constants. A BConv target row depends only
// on the source basis and its own prime, so one P -> Q converter serves every
// level.
func NewEvaluator(params *Parameters, keys *EvaluationKeySet) *Evaluator {
	q, pm := params.RingQ().Moduli, params.RingP().Moduli
	ev := &Evaluator{
		params:   params,
		keys:     keys,
		levels:   make([]levelConsts, params.MaxLevel()+1),
		downConv: mustConverter(pm, q),
		pModQ:    rns.ProductMod(pm, q),
		pInvModQ: rns.ProductInvMod(pm, q),
	}
	negPInv := make([]uint64, len(q))
	for i := range negPInv {
		negPInv[i] = q[i].Neg(ev.pInvModQ[i])
	}
	ev.rescaleConv = ev.downConv.Scaled(negPInv)
	for lvl := range ev.levels {
		lc := &ev.levels[lvl]
		pl := params.PlanAt(lvl)
		to := append(append(make([]modarith.Modulus, 0, lvl+1+pl.Alpha), q[:lvl+1]...), pm...)
		for d := 0; d < pl.Digits; d++ {
			lo, hi := pl.digitLimbs(d)
			bc := mustConverter(q[lo:hi], to)
			lc.conv = append(lc.conv, bc)
			lc.qHatInv = append(lc.qHatInv, bc.QHatInv()...)
		}
		if lvl == 0 {
			continue
		}
		lc.rs = rns.NewRescaler(q[:lvl+1])
		lc.pqInv = make([]uint64, lvl)
		for i := range lc.pqInv {
			lc.pqInv[i] = q[i].Mul(ev.pInvModQ[i], lc.rs.LastModulusInv()[i])
		}
	}
	return ev
}

// mustConverter is rns.NewBasisConverter over prime chains NewParameters
// already checked to be distinct.
func mustConverter(from, to []modarith.Modulus) *rns.BasisConverter {
	bc, err := rns.NewBasisConverter(from, to)
	if err != nil {
		panic(err)
	}
	return bc
}

// ---------------------------------------------------------------------------
// Element-wise operations (the PIM-friendly class of the Anaheim paper)

const scaleTolerance = 1e-3

// ErrLevel marks an operand whose level does not allow the op. The ops that
// end in a rescale — Mul, Square, Rescale, MulPlain, MultConst,
// MulConstAccum, EvaluateLinearTransform — return it for an operand at level
// 0, which has no prime left to drop, and DropLevel for a target outside
// [0, ct.Level()]. Each checks before borrowing or writing anything.
var ErrLevel = errors.New("ckks: operand level out of range")

var errLevelZero = fmt.Errorf("%w: operand at level 0 has no prime left to rescale by", ErrLevel)

// ErrScale marks operands whose scales disagree by more than the tolerance
// that near-Δ primes need: their sum would mean nothing. MulConstAccum returns
// it before borrowing anything; CheckScales is the same test for callers of
// Add and Sub, which panic on it.
var ErrScale = errors.New("ckks: operand scales differ")

// CheckScales returns nil if every ciphertext's scale agrees with the first's
// up to the tolerance Add, Sub and MulConstAccum allow, and an error wrapping
// ErrScale naming the first that does not.
func CheckScales(cts ...*Ciphertext) error {
	for i, ct := range cts[min(1, len(cts)):] {
		if !scalesMatch(cts[0].Scale, ct.Scale) {
			return fmt.Errorf("%w: operand %d at scale %g, operand 0 at %g", ErrScale, i+1, ct.Scale, cts[0].Scale)
		}
	}
	return nil
}

func scalesMatch(a, b float64) bool { return math.Abs(a/b-1) <= scaleTolerance }

func (ev *Evaluator) checkScales(a, b float64) {
	if !scalesMatch(a, b) {
		panic(fmt.Sprintf("ckks: scale mismatch on add: %g vs %g", a, b))
	}
}

// newCiphertext returns an NTT-flagged ciphertext at lvl whose polynomials
// come from the ring pool: their rows hold unspecified values, so the op that
// asked must write every one of them.
func (ev *Evaluator) newCiphertext(lvl int, scale float64) *Ciphertext {
	rq := ev.params.RingQ()
	return &Ciphertext{C0: getNTT(rq, lvl), C1: getNTT(rq, lvl), Scale: scale}
}

// zeroCiphertext returns the trivial encryption of zero at lvl.
func (ev *Evaluator) zeroCiphertext(lvl int, scale float64) *Ciphertext {
	out := ev.newCiphertext(lvl, scale)
	for i := 0; i <= lvl; i++ {
		clear(out.C0.Coeffs[i])
		clear(out.C1.Coeffs[i])
	}
	return out
}

// copyAt returns a copy of ct's first level+1 limbs.
func (ev *Evaluator) copyAt(ct *Ciphertext, level int) *Ciphertext {
	out := ev.newCiphertext(level, ct.Scale)
	out.C0.Copy(ct.C0.Truncated(level))
	out.C1.Copy(ct.C1.Truncated(level))
	return out
}

// Release hands the polynomials of ciphertexts the caller owns back to the
// ring pool, for the next op to reuse instead of allocating. Every ciphertext
// an evaluator op returns is a whole value of its own — it shares no row with
// an operand — and belongs to whoever received it. Releasing is optional (an
// unreleased result is collected like any other garbage) and final: the
// ciphertext is emptied, nothing else may still reference its polynomials,
// and a second Release of it, or one of nil, does nothing. A view or an
// unmarshalled ciphertext owns no pooled rows and is only emptied.
func (ev *Evaluator) Release(cts ...*Ciphertext) {
	rq := ev.params.RingQ()
	for _, ct := range cts {
		if ct == nil {
			continue
		}
		rq.PutPoly(ct.C0)
		rq.PutPoly(ct.C1)
		ct.C0, ct.C1 = nil, nil
	}
}

// Add returns ct0 + ct1 (HADD). Operands are aligned to the lower of the two
// levels; scales must agree up to the tolerance imposed by near-Δ primes.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	// Explicit done() instead of defer: Add is the one op cheap enough
	// (~35µs at test scale) that defer overhead shows up in benchmarks.
	start := time.Now()
	ev.checkScales(ct0.Scale, ct1.Scale)
	rq := ev.params.RingQ()
	lvl := min(ct0.Level(), ct1.Level())
	out := ev.newCiphertext(lvl, ct0.Scale)
	rq.Add(out.C0, ct0.C0, ct1.C0, lvl)
	rq.Add(out.C1, ct0.C1, ct1.C1, lvl)
	obsAdd.done(start)
	return out
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) *Ciphertext {
	ev.checkScales(ct0.Scale, ct1.Scale)
	rq := ev.params.RingQ()
	lvl := min(ct0.Level(), ct1.Level())
	out := ev.newCiphertext(lvl, ct0.Scale)
	rq.Sub(out.C0, ct0.C0, ct1.C0, lvl)
	rq.Sub(out.C1, ct0.C1, ct1.C1, lvl)
	return out
}

// addInPlace sets ct += other for a ct the caller owns; other sits at ct's
// level or above.
func (ev *Evaluator) addInPlace(ct, other *Ciphertext) {
	ev.checkScales(ct.Scale, other.Scale)
	rq, lvl := ev.params.RingQ(), ct.Level()
	rq.Add(ct.C0, ct.C0, other.C0, lvl)
	rq.Add(ct.C1, ct.C1, other.C1, lvl)
}

// subInPlace sets ct -= other, as addInPlace.
func (ev *Evaluator) subInPlace(ct, other *Ciphertext) {
	ev.checkScales(ct.Scale, other.Scale)
	rq, lvl := ev.params.RingQ(), ct.Level()
	rq.Sub(ct.C0, ct.C0, other.C0, lvl)
	rq.Sub(ct.C1, ct.C1, other.C1, lvl)
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	rq := ev.params.RingQ()
	lvl := ct.Level()
	out := ev.newCiphertext(lvl, ct.Scale)
	rq.Neg(out.C0, ct.C0, lvl)
	rq.Neg(out.C1, ct.C1, lvl)
	return out
}

// MulPlain returns ct ⊙ pt rescaled (PMULT): the product, at the product of
// the operand scales, divided by the prime of the lower operand level ℓ. At
// ℓ = 0 there is no prime to drop: ErrLevel, before anything is borrowed.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	lvl := min(ct.Level(), pt.Level())
	if lvl == 0 {
		return nil, errLevelZero
	}
	rq := ev.params.RingQ()
	prod := ev.newCiphertext(lvl, ct.Scale*pt.Scale)
	rq.MulCoeffs(prod.C0, ct.C0, pt.Value, lvl)
	rq.MulCoeffs(prod.C1, ct.C1, pt.Value, lvl)
	return ev.rescaleOwned(prod), nil
}

// ---------------------------------------------------------------------------
// Key switching: ModUp -> KeyMult/MAC -> ModDown (Fig 1)

// digitLimbs returns the Q limbs [lo, hi) that form digit d of the plan.
func (pl GadgetPlan) digitLimbs(d int) (lo, hi int) {
	return d * pl.Alpha, min((d+1)*pl.Alpha, pl.Level+1)
}

// decomposed is a polynomial made ready for ModUp in the extended basis
// Q_level ∪ P. No digit polynomial exists: the Run that consumes the
// decomposition converts each digit onto each limb into that limb's scratch
// and transforms it there (ring.Lane.ModUp), so its digit rows are formed
// where the dots read them. One decomposition feeding many gadget products in
// one Run — the sweep's babies — is exactly the hoisting optimization of
// §III-B.
type decomposed struct {
	level int
	in    *ring.Poly            // the NTT-domain input: each digit's own Q rows
	pre   *ring.Poly            // its coefficient rows, premultiplied by their digit's q̂⁻¹
	conv  []*rns.BasisConverter // digit -> its limbs onto Q_level ∪ P
}

// decompose performs the whole-polynomial half of ModUp on c (NTT, level
// lvl): one Run copies c, inverse-transforms the copy and premultiplies each
// row by its digit's q̂⁻¹ in place, the per-source-row half of every digit's
// BConv, done once (§II-B's "ModSwitch" INTT). The rest of ModUp runs per
// limb inside the consuming gadget product. c is read there too — a digit's
// own Q rows are c's NTT rows, not a copy — so the caller keeps c unchanged
// until that Run ends. The premultiplied copy is borrowed from the ring pool;
// release it with dec.release.
func (ev *Evaluator) decompose(c *ring.Poly, lvl int) *decomposed {
	defer obsKSBConv.done(time.Now())
	rq := ev.params.RingQ()
	m := &ev.levels[lvl]
	obsKSDigits.Observe(float64(len(m.conv)))

	pre := rq.GetPoly(lvl)
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl)
	ln.Copy(pre, c)
	ln.INTT(pre)
	ln.MulByLimbScalars(pre, pre, m.qHatInv)
	pipe.Run()
	pipe.Release()
	return &decomposed{level: lvl, in: c, pre: pre, conv: m.conv}
}

// release returns the premultiplied copy to the buffer pool. The decomposed
// value must not be used afterwards.
func (dec *decomposed) release(p *Parameters) {
	p.RingQ().PutPoly(dec.pre)
	dec.pre = nil
}

// getNTT borrows an NTT-flagged polynomial from r's pool. Its contents are
// unspecified.
func getNTT(r *ring.Ring, level int) *ring.Poly {
	p := r.GetPoly(level)
	p.IsNTT = true
	return p
}

// getQP borrows two NTT-flagged QP accumulators (Q halves at lvl, P halves
// over all of P) from the ring pools; putQP returns them. Their contents are
// unspecified: the gadget product that fills them overwrites every row.
func (ev *Evaluator) getQP(lvl int) (u0q, u0p, u1q, u1p *ring.Poly) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	lvlP := rp.MaxLevel()
	return getNTT(rq, lvl), getNTT(rp, lvlP), getNTT(rq, lvl), getNTT(rp, lvlP)
}

func (ev *Evaluator) putQP(u0q, u0p, u1q, u1p *ring.Poly) {
	rq, rp := ev.params.RingQ(), ev.params.RingP()
	rq.PutPoly(u0q)
	rq.PutPoly(u1q)
	rp.PutPoly(u0p)
	rp.PutPoly(u1p)
}

// keySwitch applies the full ModUp -> KeyMult/MAC -> ModDown pipeline to c
// at level lvl: (d0, d1) with d0 + d1·under = c·w + e over Q_lvl, plus add on
// d0 (nil adds nothing), both permuted by σ_g when g ≠ 0 — all of it fused
// into the one modDown tail.
func (ev *Evaluator) keySwitch(c *ring.Poly, lvl int, swk *SwitchingKey, add *ring.Poly, g uint64) (d0, d1 *ring.Poly) {
	defer obsKeySwitch.done(time.Now())
	dec := ev.decompose(c, lvl)
	u0q, u0p, u1q, u1p := ev.getQP(lvl)
	ev.gadgetProductInto(dec, swk, u0q, u1q, u0p, u1p, false, false)
	dec.release(ev.params)
	out := ev.modDown([2]*ring.Poly{u0q, u1q}, [2]*ring.Poly{u0p, u1p}, [2]*ring.Poly{add}, g, lvl)
	ev.putQP(u0q, u0p, u1q, u1p)
	return out[0], out[1]
}

// SwitchKeys re-encrypts ct under the key targeted by swk (used for
// sparse-secret encapsulation in bootstrapping). A key below ct's level
// returns an error wrapping ErrMissingKey, before anything is borrowed.
func (ev *Evaluator) SwitchKeys(ct *Ciphertext, swk *SwitchingKey) (*Ciphertext, error) {
	lvl := ct.Level()
	if !swk.covers(ev.params, lvl) {
		return nil, keyBelow("switching key", swk, lvl)
	}
	d0, d1 := ev.keySwitch(ct.C1, lvl, swk, ct.C0, 0)
	return &Ciphertext{C0: d0, C1: d1, Scale: ct.Scale}, nil
}

// Mul returns ct0 ⊙ ct1 relinearized and rescaled (HMULT): the Tensor
// element-wise step, the key switch of the degree-2 component, and the
// rescale by the top prime of the lower operand's level, which rides the key
// switch's ModDown (modDownRescale). An operand at level 0 leaves no prime to
// rescale by: ErrLevel; a relinearization key that is absent or below the
// operands' level: ErrMissingKey. Both come before anything is written.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	lvl := min(ct0.Level(), ct1.Level())
	switch rlk := ev.keys.Rlk; {
	case lvl == 0:
		return nil, errLevelZero
	case rlk == nil:
		return nil, fmt.Errorf("%w: no relinearization key", ErrMissingKey)
	case !rlk.covers(ev.params, lvl):
		return nil, keyBelow("relinearization key", rlk, lvl)
	}
	return ev.mul(ct0, ct1), nil
}

// Square returns ct ⊙ ct relinearized and rescaled, as Mul.
func (ev *Evaluator) Square(ct *Ciphertext) (*Ciphertext, error) { return ev.Mul(ct, ct) }

// mul is Mul for operands above level 0 — the compound ops budget their
// levels up front.
func (ev *Evaluator) mul(ct0, ct1 *Ciphertext) *Ciphertext {
	defer obsMul.done(time.Now())
	rq := ev.params.RingQ()
	lvl := min(ct0.Level(), ct1.Level())
	a0, a1, b0, b1 := ct0.C0, ct0.C1, ct1.C0, ct1.C1 // read on limbs 0..lvl only

	// Tensor as one per-limb chain (each input row is read while hot across
	// the four products). The degree-0 and -1 terms go straight into the key
	// switch's Q accumulators, times P: the gadget product of the degree-2
	// term adds onto them, and the ModDown of the merged tail, which also
	// rescales, divides the P back out.
	u0q, u0p, u1q, u1p := ev.getQP(lvl)
	d2 := rq.GetPoly(lvl)
	pipe := ring.GetPipeline()
	ln := pipe.Lane(rq, lvl)
	ln.MulCoeffs(u0q, a0, b0)
	ln.MulByLimbScalars(u0q, u0q, ev.pModQ)
	ln.MulCoeffs(u1q, a0, b1)
	ln.MulCoeffsAdd(u1q, a1, b0)
	ln.MulByLimbScalars(u1q, u1q, ev.pModQ)
	ln.MulCoeffs(d2, a1, b1)
	pipe.Run()
	pipe.Release()

	ksStart := time.Now()
	dec := ev.decompose(d2, lvl)
	ev.gadgetProductInto(dec, ev.keys.Rlk, u0q, u1q, u0p, u1p, false, true)
	dec.release(ev.params)
	rq.PutPoly(d2)
	o0, o1 := ev.modDownRescale(u0q, u0p, u1q, u1p, nil, nil, lvl)
	obsKeySwitch.done(ksStart)
	ev.putQP(u0q, u0p, u1q, u1p)
	return &Ciphertext{C0: o0, C1: o1, Scale: ct0.Scale * ct1.Scale / float64(rq.Moduli[lvl].Q)}
}

// DropLevel discards limbs down to the target level without scaling. The
// result is a copy, like every other op's: ops that take operands at
// different levels align them themselves, without one. A target outside
// [0, ct.Level()] is an error wrapping ErrLevel, before anything is borrowed.
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level < 0 || level > ct.Level() {
		return nil, fmt.Errorf("%w: cannot drop a level-%d operand to level %d", ErrLevel, ct.Level(), level)
	}
	return ev.copyAt(ct, level), nil
}

// ---------------------------------------------------------------------------
// Automorphisms: HROT and conjugation

// automorphism applies σ_g with key switching: ModUp(c1) -> KeyMult/MAC ->
// ModDown -> automorphism, the order of Fig 1 enabled by the key layout. The
// rotation's c0-add and both permutations ride the ModDown's final per-limb
// chain (one pass over each row instead of four).
func (ev *Evaluator) automorphism(ct *Ciphertext, galEl uint64) (*Ciphertext, error) {
	swk, err := ev.galoisKeyAt(galEl, ct.Level())
	if err != nil {
		return nil, err
	}
	o0, o1 := ev.keySwitch(ct.C1, ct.Level(), swk, ct.C0, galEl)
	return &Ciphertext{C0: o0, C1: o1, Scale: ct.Scale}, nil
}

// galoisKeyAt returns the Galois key for galEl if it serves a key switch at
// level lvl, or an error wrapping ErrMissingKey naming the element (and both
// levels, for a key below lvl).
func (ev *Evaluator) galoisKeyAt(galEl uint64, lvl int) (*SwitchingKey, error) {
	swk, err := ev.keys.GaloisKey(galEl)
	if err != nil {
		return nil, err
	}
	if !swk.covers(ev.params, lvl) {
		return nil, keyBelow(fmt.Sprintf("Galois key for element %d", galEl), swk, lvl)
	}
	return swk, nil
}

// Rotate returns HROT(ct, k): the slot vector cyclically rotated by k.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) (*Ciphertext, error) {
	defer obsRotate.done(time.Now())
	if k%ev.params.Slots() == 0 {
		return ev.copyAt(ct, ct.Level()), nil
	}
	return ev.automorphism(ct, ev.params.RingQ().GaloisElement(k))
}

// Conjugate returns the slot-wise complex conjugate of ct.
func (ev *Evaluator) Conjugate(ct *Ciphertext) (*Ciphertext, error) {
	defer obsConjugate.done(time.Now())
	return ev.automorphism(ct, ev.params.RingQ().GaloisElementConjugate())
}

// ---------------------------------------------------------------------------
// Scalar operations

// AddConst adds the real constant c to every slot.
func (ev *Evaluator) AddConst(ct *Ciphertext, c float64) *Ciphertext {
	out := ev.copyAt(ct, ct.Level())
	ev.addConstInPlace(out, c)
	return out
}

// addConstInPlace adds c to every slot of a ct the caller owns.
func (ev *Evaluator) addConstInPlace(ct *Ciphertext, c float64) {
	rq, lvl := ev.params.RingQ(), ct.Level()
	rq.AddLimbScalars(ct.C0, ct.C0, rq.ScaledResidues(make([]uint64, lvl+1), c, ct.Scale), lvl)
}

// MultConst returns c·ct rescaled: c is encoded at the prime the rescale
// drops, q_ℓ of ct's level ℓ, so the result keeps ct's scale one level
// lower. At ℓ = 0 there is no prime to drop: ErrLevel, before anything is
// borrowed.
func (ev *Evaluator) MultConst(ct *Ciphertext, c float64) (*Ciphertext, error) {
	if ct.Level() == 0 {
		return nil, errLevelZero
	}
	return ev.multConst(ct, c, float64(ev.params.RingQ().Moduli[ct.Level()].Q)), nil
}

// multConst is MultConst for an operand above level 0 with c encoded at
// constScale: the result's scale is ct.Scale·constScale/q_ℓ.
func (ev *Evaluator) multConst(ct *Ciphertext, c, constScale float64) *Ciphertext {
	rq := ev.params.RingQ()
	lvl := ct.Level()
	k := rq.ScaledResidues(make([]uint64, lvl+1), c, constScale)
	prod := ev.newCiphertext(lvl, ct.Scale*constScale)
	rq.MulByLimbScalars(prod.C0, ct.C0, k, lvl)
	rq.MulByLimbScalars(prod.C1, ct.C1, k, lvl)
	prod.C0.IsNTT, prod.C1.IsNTT = true, true
	return ev.rescaleOwned(prod)
}

// monomial returns the NTT form of X^{N/2} over the full chain, built on
// first use; its slots are the constant i, so multiplying by it is an exact
// multiply-by-i. Level ℓ reads its first ℓ+1 rows.
func (ev *Evaluator) monomial() *ring.Poly {
	ev.monoOnce.Do(func() {
		rq := ev.params.RingQ()
		lvl := ev.params.MaxLevel()
		m := rq.NewPoly(lvl)
		for i := 0; i <= lvl; i++ {
			m.Coeffs[i][ev.params.N()/2] = 1
		}
		rq.NTT(m, lvl)
		ev.mono = m
	})
	return ev.mono
}

// MulByI multiplies every slot by the imaginary unit, exactly and without
// consuming a level.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	rq := ev.params.RingQ()
	lvl := ct.Level()
	m := ev.monomial()
	out := ev.newCiphertext(lvl, ct.Scale)
	rq.MulCoeffs(out.C0, ct.C0, m, lvl)
	rq.MulCoeffs(out.C1, ct.C1, m, lvl)
	return out
}
