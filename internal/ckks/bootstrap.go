package ckks

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// BootstrapConfig selects the bootstrapping hyper-parameters (§II-C, §IV-C).
type BootstrapConfig struct {
	FFTIterC2S   int // number of grouped CoeffToSlot matrices
	FFTIterS2C   int // number of grouped SlotToCoeff matrices
	EvalModDeg   int // Chebyshev degree of the cosine approximation
	DoubleAngles int // r: cos(θ/2^r) is interpolated, then doubled r times
	K            int // bound on the modular-reduction integer I
}

// DefaultBootstrapConfig mirrors the paper's default fftIter mix of 3 and 4
// at test scale (3 C2S / 3 S2C groups) with a degree-31 cosine and 3 double
// angles. Degree 31 is the degree the error budget needs: its interpolation
// error (2^-36.5 in sine units, 2^-29.1 once scaled by q0/(2πΔ) into
// coefficient units) sits 5 bits under the noise at EvalMod's output at
// logN 12 (3.4 at logN 11), so a higher degree only adds products and their
// noise — degree 47 spends three more HMULTs per ciphertext and ends 1.4 bits
// worse — while degree 27 (2^-19 in coefficient units) is limited by the
// approximation.
func DefaultBootstrapConfig() BootstrapConfig {
	return BootstrapConfig{FFTIterC2S: 3, FFTIterS2C: 3, EvalModDeg: 31, DoubleAngles: 3, K: 12}
}

// Bootstrapper refreshes exhausted ciphertexts: sparse-secret encapsulation
// [9], ModRaise, CoeffToSlot, EvalMod (homomorphic modular reduction by q0
// via a scaled sine), SlotToCoeff.
type Bootstrapper struct {
	params *Parameters
	enc    *Encoder
	eval   *Evaluator
	cfg    BootstrapConfig

	c2s, s2c []*LinearTransform
	evalMod  []float64 // Chebyshev coefficients of cos(2π(t-1/4)/2^r)

	toSparse *SwitchingKey // dense -> sparse
	toDense  *SwitchingKey // sparse -> dense

	q0 float64

	centered sync.Pool // *[]int64: ModRaise's signed-coefficient scratch
}

// NewBootstrapper generates all keys (encapsulation, rotations for the DFT
// matrices, conjugation, relinearization if absent), each at the highest
// level a bootstrap spends it, and precomputes the transform matrices and
// EvalMod polynomial. Parameters whose chain is shorter than the levels the
// config consumes are an error.
func NewBootstrapper(params *Parameters, enc *Encoder, eval *Evaluator,
	kgen *KeyGenerator, sk *SecretKey, keys *EvaluationKeySet, cfg BootstrapConfig) (*Bootstrapper, error) {

	switch {
	case cfg.FFTIterC2S < 1 || cfg.FFTIterS2C < 1:
		return nil, fmt.Errorf("ckks: fftIter must be >= 1")
	case cfg.EvalModDeg < 1:
		return nil, fmt.Errorf("ckks: EvalMod degree %d must be >= 1", cfg.EvalModDeg)
	case cfg.DoubleAngles < 0:
		return nil, fmt.Errorf("ckks: double angles %d must be >= 0", cfg.DoubleAngles)
	case cfg.K < 1:
		return nil, fmt.Errorf("ckks: EvalMod bound K %d must be >= 1", cfg.K)
	case params.MaxLevel() < cfg.levels():
		return nil, fmt.Errorf("ckks: bootstrapping consumes %d levels, the parameters have %d", cfg.levels(), params.MaxLevel())
	}
	b := &Bootstrapper{
		params: params,
		enc:    enc,
		eval:   eval,
		cfg:    cfg,
		q0:     float64(params.RingQ().Moduli[0].Q),
	}
	b.c2s = enc.CoeffToSlotMatrices(cfg.FFTIterC2S)
	b.s2c = enc.SlotToCoeffMatrices(cfg.FFTIterS2C)
	b.evalMod = evalModPoly(cfg)

	// Keys, each at the highest level a bootstrap spends it (a key at level
	// ℓ is the level-ℓ prefix of a full one: see SwitchingKey). The
	// encapsulation switches to the sparse secret at level 0 and back at the
	// top; the conjugation runs at the CoeffToSlot output. A key the set
	// already holds at or above its level is kept; the relinearization key
	// serves the caller's own products too, so it is a top-level one.
	top := params.MaxLevel()
	lv := cfg.stageLevels(top)
	skSparse := kgen.GenSparseSecretKey()
	b.toSparse = kgen.genSwitchingKey(0, idToSparse, sk.Q, skSparse.Q, skSparse.P)
	b.toDense = kgen.genSwitchingKey(top, idToDense, skSparse.Q, sk.Q, sk.P)
	if keys.Rlk == nil {
		keys.Rlk = kgen.GenRelinearizationKey(sk)
	}
	kgen.ensureGaloisKey(sk, keys, params.RingQ().GaloisElementConjugate(), lv.conj)
	// The six DFT sweeps are planned as one set (planSweeps): no more Galois
	// keys than their leanest plans need between them, the least modeled time
	// within that, so a key two matrices share is paid once. The plans are
	// fixed on the bootstrapper's own matrices, and exactly their baby + giant
	// rotations get keys, each at the highest level of a sweep spending it.
	lts := append(append([]*LinearTransform{}, b.c2s...), b.s2c...)
	sweepLevel := append(append([]int{}, lv.c2s...), lv.s2c...)
	keyLevel := make(map[int]int)
	for i, pl := range planSweeps(params, lts) {
		lts[i].fixPlan(pl)
		for _, r := range pl.rotations() {
			keyLevel[r] = max(keyLevel[r], sweepLevel[i])
		}
	}
	for _, r := range GaloisKeysForLinearTransform(params, lts...) {
		kgen.ensureGaloisKey(sk, keys, params.RingQ().GaloisElement(r), keyLevel[r])
	}
	return b, nil
}

// bootDepths is the number of levels each stage of a bootstrap consumes.
type bootDepths struct {
	c2s, split, evalMod, s2c, fix int
}

// depths accounts a bootstrap under cfg stage by stage: one level per
// CoeffToSlot matrix and one for the conjugate split; EvalMod's affine map
// onto the Chebyshev interval, its series and one per double angle; one per
// SlotToCoeff matrix and one for the closing scale fix. The series' depth
// follows EvaluateChebyshev: a leaf is one CAccum over T_1 … T_deg, the
// deepest built ⌈log2 deg⌉ products up, and a split multiplies the quotient
// by its giant step T_split.
func (cfg BootstrapConfig) depths() bootDepths {
	baby := max(2, 1<<((bitsLen(cfg.EvalModDeg)+1)/2))
	var series func(deg int) int
	series = func(deg int) int {
		if deg < baby {
			return 1 + bitsLen(deg-1)
		}
		split := max(baby, 1<<(bitsLen(deg)-1))
		return max(1+max(series(deg-split), bitsLen(split-1)), series(split-1))
	}
	return bootDepths{c2s: cfg.FFTIterC2S, split: 1, evalMod: 1 + series(cfg.EvalModDeg) + cfg.DoubleAngles,
		s2c: cfg.FFTIterS2C, fix: 1}
}

// levels returns the levels a bootstrap under cfg consumes from the top of
// the chain.
func (cfg BootstrapConfig) levels() int {
	d := cfg.depths()
	return d.c2s + d.split + d.evalMod + d.s2c + d.fix
}

// bootLevels holds the levels a bootstrap's key switches run at, from the
// same accounting as levels: each CoeffToSlot and SlotToCoeff sweep's input
// level and the conjugation's.
type bootLevels struct {
	c2s, s2c []int
	conj     int
}

// stageLevels returns the levels of a bootstrap under cfg raising to top.
func (cfg BootstrapConfig) stageLevels(top int) bootLevels {
	d := cfg.depths()
	var lv bootLevels
	for i := 0; i < d.c2s; i++ {
		lv.c2s = append(lv.c2s, top-i)
	}
	lv.conj = top - d.c2s
	s2cTop := lv.conj - d.split - d.evalMod
	for i := 0; i < d.s2c; i++ {
		lv.s2c = append(lv.s2c, s2cTop-i)
	}
	return lv
}

// evalModPoly interpolates cos(2π(t − 1/4)/2^r) on t ∈ [−(K+1), K+1]; after
// r double-angle steps this becomes cos(2πt − π/2) = sin(2πt).
func evalModPoly(cfg BootstrapConfig) []float64 {
	r := float64(int(1) << uint(cfg.DoubleAngles))
	f := func(t float64) float64 { return math.Cos(2 * math.Pi * (t - 0.25) / r) }
	return ChebyshevInterpolation(f, -float64(cfg.K+1), float64(cfg.K+1), cfg.EvalModDeg)
}

// ModRaise reinterprets a level-0 ciphertext at the full modulus: each
// centered residue mod q0 is embedded into every prime of the chain. The
// raised ciphertext encrypts W = Δu + q0·I for a small integer polynomial I
// bounded by the (sparse) secret's Hamming weight.
func (b *Bootstrapper) ModRaise(ct *Ciphertext) *Ciphertext {
	rq := b.params.RingQ()
	top := b.params.MaxLevel()
	q0 := rq.Moduli[0]
	out := &Ciphertext{C0: rq.GetPoly(top), C1: rq.GetPoly(top), Scale: ct.Scale}
	vp, _ := b.centered.Get().(*[]int64)
	if vp == nil {
		v := make([]int64, b.params.N())
		vp = &v
	}
	w := rq.GetPoly(0)
	for k, src := range ct.polys() {
		row := w.Coeffs[0]
		copy(row, src.Coeffs[0])
		rq.INTTLimb(row, 0)
		for j, x := range row {
			(*vp)[j] = q0.Centered(x)
		}
		raised := out.polys()[k]
		rq.EmbedCentered(raised, *vp, top)
		rq.NTT(raised, top)
	}
	rq.PutPoly(w)
	b.centered.Put(vp)
	return out
}

// evalModCt removes the q0·I component of one real-slotted ciphertext. On
// entry the slots hold w/s where w = Δu + q0·I and s is the declared scale;
// on exit they hold u at the returned (re-declared) scale ≈ 2πΔ.
func (b *Bootstrapper) evalModCt(ct *Ciphertext, delta float64) *Ciphertext {
	ev := b.eval
	k1 := float64(b.cfg.K + 1)

	// Re-declare the scale so the message becomes t = w/q0 ∈ [-K-1, K+1]: a
	// second header over ct's polynomials, which are only read.
	work := &Ciphertext{C0: ct.C0, C1: ct.C1, Scale: b.q0}

	// cos(2π(t-1/4)/2^r), then r double angles -> sin(2πt).
	out := ev.EvaluateChebyshev(work, b.evalMod, -k1, k1)
	for i := 0; i < b.cfg.DoubleAngles; i++ {
		sq := ev.mul(out, out)
		ev.Release(out)
		ev.addInPlace(sq, sq)
		ev.addConstInPlace(sq, -1)
		out = sq
	}
	// sin(2πt) = 2π(Δu)/q0 + O((Δu/q0)³): fold q0/(2πΔ) into the scale.
	out.Scale *= 2 * math.Pi * delta / b.q0
	return out
}

// Bootstrap refreshes ct (consumed at its lowest levels) back to a high
// level. The input is dropped to level 0 first, matching the paper's L
// schedule (2 -> 54 -> 24 for the full-scale Boot workload). ct is only read;
// every intermediate goes back to the ring pool as soon as its successor
// exists, so a bootstrap's footprint is its widest live set. The stages run
// in order: raise, coeffsToSlots, evalModCt on each real vector,
// slotsToCoeffs.
func (b *Bootstrapper) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	defer obsBootstrap.done(time.Now())
	delta := ct.Scale
	raised, err := b.raise(ct)
	if err != nil {
		return nil, err
	}
	ct0, ct1, err := b.coeffsToSlots(raised)
	if err != nil {
		return nil, err
	}
	re := b.evalModCt(ct0, delta)
	im := b.evalModCt(ct1, delta)
	b.eval.Release(ct0, ct1)
	return b.slotsToCoeffs(re, im, delta)
}

// raise is the bootstrap's first stage: sparse-secret encapsulation at the
// bottom of the chain (on a level-0 view of ct, which is only read), ModRaise
// under the sparse secret, then the switch back to the dense secret at the
// top of the chain.
func (b *Bootstrapper) raise(ct *Ciphertext) (*Ciphertext, error) {
	ev := b.eval
	low, err := ev.SwitchKeys(&Ciphertext{C0: ct.C0.Truncated(0), C1: ct.C1.Truncated(0), Scale: ct.Scale}, b.toSparse)
	if err != nil {
		return nil, err
	}
	raised := b.ModRaise(low)
	ev.Release(low)
	out, err := ev.SwitchKeys(raised, b.toDense)
	ev.Release(raised)
	return out, err
}

// coeffsToSlots consumes cur: CoeffToSlot puts its raw coefficients in the
// slots (bit-reversed), and the conjugate split returns their real and
// imaginary halves as two real-slotted ciphertexts.
func (b *Bootstrapper) coeffsToSlots(cur *Ciphertext) (ct0, ct1 *Ciphertext, err error) {
	ev := b.eval
	cur, err = b.transforms(cur, b.c2s)
	if err != nil {
		return nil, nil, err
	}
	conj, err := ev.Conjugate(cur)
	if err != nil {
		ev.Release(cur)
		return nil, nil, err
	}
	qd := float64(b.params.RingQ().Moduli[cur.Level()].Q)
	sum := ev.Add(cur, conj)
	ev.subInPlace(conj, cur) // conj − cur
	ev.Release(cur)
	ct0 = ev.multConst(sum, 0.5, qd)
	diff := ev.MulByI(conj)
	ct1 = ev.multConst(diff, 0.5, qd)
	ev.Release(sum, conj, diff)
	return ct0, ct1, nil
}

// slotsToCoeffs consumes the two EvalMod outputs: it recombines z = re + i·im,
// returns to coefficient packing and normalizes the scale back to exactly Δ
// using one level.
func (b *Bootstrapper) slotsToCoeffs(re, im *Ciphertext, delta float64) (*Ciphertext, error) {
	ev := b.eval
	iim := ev.MulByI(im)
	cur := ev.Add(re, iim)
	ev.Release(re, im, iim)
	cur, err := b.transforms(cur, b.s2c)
	if err != nil {
		return nil, err
	}
	qd := float64(b.params.RingQ().Moduli[cur.Level()].Q)
	out := ev.multConst(cur, 1.0, qd*delta/cur.Scale)
	ev.Release(cur)
	out.Scale = delta
	return out, nil
}

// transforms applies a DFT factorization, one (rescaled) linear transform per
// group, consuming cur.
func (b *Bootstrapper) transforms(cur *Ciphertext, groups []*LinearTransform) (*Ciphertext, error) {
	for _, g := range groups {
		next, err := b.eval.EvaluateLinearTransform(cur, g, b.enc)
		b.eval.Release(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}
