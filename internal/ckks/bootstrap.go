package ckks

import (
	"fmt"
	"math"
	"slices"
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
// angles. The cosine is even about t = 1/4, so the degree-31 series runs as
// one of degree 15 in T₂(x) (evalModPoly): 8 products per ciphertext at the
// depth, 6, that the odd series spent 11 on. Degree 31 is the degree the
// error budget needs: its approximation error (2^-37.7 in sine units,
// 2^-30.4 once scaled by q0/(2πΔ) into coefficient units) sits 6.2 bits under
// the noise at EvalMod's output at logN 12 (3.7 at logN 11), while degree 27
// (2^-20.3 in coefficient units) is limited by the approximation.
func DefaultBootstrapConfig() BootstrapConfig {
	return BootstrapConfig{FFTIterC2S: 3, FFTIterS2C: 3, EvalModDeg: 31, DoubleAngles: 3, K: 12}
}

// BootstrapKeys is the bootstrap section of an evaluation key set: the config
// the set was generated under and the two encapsulation keys of the
// sparse-secret encapsulation [9], dense to sparse at level 0 and sparse to
// dense at the top. The relinearization, conjugation and DFT Galois keys a
// bootstrap spends sit in the set itself. Which keys a bootstrap needs, and
// at which levels, is a pure function of the parameters and the config, so
// the config travels with the keys.
type BootstrapKeys struct {
	Config   BootstrapConfig
	ToSparse *SwitchingKey
	ToDense  *SwitchingKey
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
	evalMod  []float64 // Chebyshev coefficients of cos(2πs/2^r) in y = T₂(s/h) (evalModPoly)

	toSparse *SwitchingKey // dense -> sparse
	toDense  *SwitchingKey // sparse -> dense

	q0 float64

	centered sync.Pool // *[]int64: ModRaise's signed-coefficient scratch
}

// bootPlan is what key generation and the bootstrapper both derive from the
// parameters and a config: the DFT matrices with their sweeps planned as one
// set, and the one list of keys a bootstrap spends, each at the highest level
// a stage spends it.
type bootPlan struct {
	c2s, s2c []*LinearTransform
	keys     []bootKey
}

// bootKey is one key a bootstrap spends, named by its key id (a Galois
// element for a Galois key), and the highest level it is spent at.
type bootKey struct {
	id    uint64
	level int
}

// in returns the key of ks that k names, and its name for an error.
func (k bootKey) in(ks *EvaluationKeySet) (*SwitchingKey, string) {
	switch k.id {
	case idToSparse:
		return ks.Boot.ToSparse, "dense-to-sparse encapsulation key"
	case idToDense:
		return ks.Boot.ToDense, "sparse-to-dense encapsulation key"
	case idRelinearization:
		return ks.Rlk, "relinearization key"
	}
	return ks.Gal[k.id], fmt.Sprintf("Galois key for element %d", k.id)
}

// newBootPlan checks cfg against params and plans a bootstrap under it. The
// six DFT sweeps are planned as one set (planSweeps): no more Galois keys
// than their leanest plans need between them, the least modeled time within
// that, so a key two matrices share is paid once. The plans are fixed on the
// returned matrices, and exactly their baby + giant rotations get keys, each
// at the highest level of a sweep spending it; the other keys sit at their
// stages' levels in the bootstrap's shape.
func newBootPlan(params *Parameters, enc *Encoder, cfg BootstrapConfig) (*bootPlan, error) {
	if err := cfg.check(params); err != nil {
		return nil, err
	}
	rq := params.RingQ()
	s := cfg.shape(params.MaxLevel())
	bp := &bootPlan{
		c2s:  enc.CoeffToSlotMatrices(cfg.FFTIterC2S),
		s2c:  enc.SlotToCoeffMatrices(cfg.FFTIterS2C),
		keys: []bootKey{{idToSparse, 0}, {idToDense, s.top}, {idRelinearization, s.mul}},
	}
	galois := map[uint64]int{rq.GaloisElementConjugate(): s.conj}
	lts := append(append([]*LinearTransform{}, bp.c2s...), bp.s2c...)
	sweepLevel := append(append([]int{}, s.c2s...), s.s2c...)
	for i, pl := range planSweeps(params, lts) {
		lts[i].fixPlan(pl)
		for _, r := range pl.rotations() {
			el := rq.GaloisElement(r)
			galois[el] = max(galois[el], sweepLevel[i])
		}
	}
	for el, level := range galois {
		bp.keys = append(bp.keys, bootKey{el, level})
	}
	return bp, nil
}

// GenBootstrapKeys is the client half of bootstrapping. It adds to ks every
// key a bootstrap under cfg spends (bootPlan.keys), each at the highest level
// a stage spends it (a key at level ℓ is the level-ℓ prefix of a full one:
// see SwitchingKey), and the bootstrap section holding cfg and the two
// encapsulation keys. A Galois key ks already holds at or above its level is
// kept; the relinearization key serves the caller's own products too, so an
// absent one is generated at the top. A config the parameters cannot
// bootstrap under is an error, and ks is left as it was. NewBootstrapper then
// builds the bootstrapper from ks alone.
func (kg *KeyGenerator) GenBootstrapKeys(sk *SecretKey, ks *EvaluationKeySet, cfg BootstrapConfig) error {
	bp, err := newBootPlan(kg.params, NewEncoder(kg.params), cfg)
	if err != nil {
		return err
	}
	skSparse := kg.GenSparseSecretKey()
	ks.Boot = &BootstrapKeys{Config: cfg}
	for _, k := range bp.keys {
		switch k.id {
		case idToSparse:
			ks.Boot.ToSparse = kg.genSwitchingKey(k.level, k.id, sk.Q, skSparse.Q, skSparse.P)
		case idToDense:
			ks.Boot.ToDense = kg.genSwitchingKey(k.level, k.id, skSparse.Q, sk.Q, sk.P)
		case idRelinearization:
			if ks.Rlk == nil {
				ks.Rlk = kg.GenRelinearizationKey(sk)
			}
		default:
			kg.ensureGaloisKey(sk, ks, k.id, k.level)
		}
	}
	return nil
}

// NewBootstrapper is the server half of bootstrapping: it builds a
// bootstrapper from an evaluation key set with a bootstrap section
// (GenBootstrapKeys) and holds no secret. It re-plans the DFT sweeps from the
// section's config and precomputes the transform matrices and the EvalMod
// polynomial. A config the parameters cannot run is an error: a chain
// shorter than the levels it consumes, or EvalMod primes that cannot carry
// its scale (ErrScale). A key a bootstrap spends that is absent, or below the
// level a stage spends it at, is ErrMissingKey. The keys' layout is
// Parameters.CheckKeys, which a server runs on every uploaded set; eval must
// be an evaluator over keys.
func NewBootstrapper(params *Parameters, enc *Encoder, eval *Evaluator, keys *EvaluationKeySet) (*Bootstrapper, error) {
	if keys == nil || keys.Boot == nil {
		return nil, fmt.Errorf("%w: the key set has no bootstrap section", ErrMissingKey)
	}
	bk := keys.Boot
	bp, err := newBootPlan(params, enc, bk.Config)
	if err != nil {
		return nil, err
	}
	for _, k := range bp.keys {
		switch key, name := k.in(keys); {
		case key == nil:
			return nil, fmt.Errorf("%w: no %s", ErrMissingKey, name)
		case !key.covers(params, k.level):
			return nil, keyBelow(name, key, k.level)
		}
	}
	return &Bootstrapper{
		params:   params,
		enc:      enc,
		eval:     eval,
		cfg:      bk.Config,
		c2s:      bp.c2s,
		s2c:      bp.s2c,
		evalMod:  evalModPoly(bk.Config),
		toSparse: bk.ToSparse,
		toDense:  bk.ToDense,
		q0:       float64(params.RingQ().Moduli[0].Q),
	}, nil
}

// maxBootParam bounds every field of a config, far above any chain's depth:
// a config off the wire that exceeds it is refused before anything is sized
// by it.
const maxBootParam = 1 << 10

// valid refuses a config no bootstrap runs under any parameters.
func (cfg BootstrapConfig) valid() error {
	switch {
	case cfg.FFTIterC2S < 1 || cfg.FFTIterS2C < 1:
		return fmt.Errorf("ckks: fftIter must be >= 1")
	case cfg.EvalModDeg < 1:
		return fmt.Errorf("ckks: EvalMod degree %d must be >= 1", cfg.EvalModDeg)
	case cfg.DoubleAngles < 0:
		return fmt.Errorf("ckks: double angles %d must be >= 0", cfg.DoubleAngles)
	case cfg.K < 1:
		return fmt.Errorf("ckks: EvalMod bound K %d must be >= 1", cfg.K)
	case max(cfg.FFTIterC2S, cfg.FFTIterS2C, cfg.EvalModDeg, cfg.DoubleAngles, cfg.K) > maxBootParam:
		return fmt.Errorf("ckks: implausible bootstrap config %+v: a field exceeds %d", cfg, maxBootParam)
	}
	return nil
}

// check refuses a config a bootstrap under p cannot run: one that is not
// valid, one consuming more levels than the chain has, or one whose EvalMod
// runs on primes that cannot carry its scale. EvalMod re-declares the scale
// as q0, and its Chebyshev series adds branches that rescaled by different
// primes: a series term's scale is q0 times the ratios q0/q_ℓ of fewer than
// deg of them, so every prime the series rescales by must lie within
// scaleTolerance/(2·deg) of q0 for two branches to agree within the add
// tolerance. A chain that breaks this would panic inside Bootstrap.
func (cfg BootstrapConfig) check(p *Parameters) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	s := cfg.shape(p.MaxLevel())
	if s.out < 0 {
		return fmt.Errorf("ckks: bootstrapping consumes %d levels, the parameters have %d", s.top-s.out, p.MaxLevel())
	}
	moduli := p.RingQ().Moduli
	q0 := float64(moduli[0].Q)
	for _, l := range s.series {
		if q := float64(moduli[l].Q); math.Abs(q/q0-1) > scaleTolerance/float64(2*cfg.EvalModDeg) {
			return fmt.Errorf("%w: EvalMod rescales by q_%d = 2^%.1f, which cannot carry its scale q0 = 2^%.1f",
				ErrScale, l, math.Log2(q), math.Log2(q0))
		}
	}
	return nil
}

// bootShape is the level map of a bootstrap raising to top: the levels its
// stages run at, each rescaling by its level's prime, and the level out it
// hands back.
type bootShape struct {
	top, out int
	c2s, s2c []int // each CoeffToSlot and SlotToCoeff sweep's input level
	conj     int   // the conjugation's: the last CoeffToSlot matrix's, whose rescale waits for the split
	mul      int   // EvalMod's first product, the CoeffToSlot output
	series   []int // EvalMod's T₂ step and its series in y, from mul down
	angles   []int // EvalMod's double angles
}

// shape walks a bootstrap under cfg down the chain from top: one level per
// CoeffToSlot matrix, EvalMod's T₂ step, its series in y (seriesDepth of
// degree ⌊deg/2⌋) and each double angle, and one per SlotToCoeff matrix. The
// conjugate split, EvalMod's affine map and the scale fix ride the DFT
// matrices' diagonals and the map's −1/4 shift is a constant add: none spends.
func (cfg BootstrapConfig) shape(top int) bootShape {
	l := top
	spend := func(n int) []int {
		lv := make([]int, n)
		for i := range lv {
			lv[i], l = l, l-1
		}
		return lv
	}
	s := bootShape{top: top, c2s: spend(cfg.FFTIterC2S)}
	s.conj, s.mul = l+1, l
	s.series = spend(1 + seriesDepth(cfg.EvalModDeg/2))
	s.angles = spend(cfg.DoubleAngles)
	s.s2c = spend(cfg.FFTIterS2C)
	s.out = l
	return s
}

// bootChain sizes, in bits, the Q primes of the chain a bootstrap under cfg
// leaves left levels on: q0's size for q0, SlotToCoeff, EvalMod and the last
// CoeffToSlot matrix (check; its diagonals carry the split's and EvalMod's
// gains), Δ's size for the rest, so a product after a bootstrap rescales to Δ.
func (cfg BootstrapConfig) bootChain(left int) []int {
	s := cfg.shape(left - cfg.shape(0).out) // shape(0).out is minus the levels spent
	logQ := repeatInts(bootLogScale, s.top+1)
	for _, l := range slices.Concat([]int{0, s.conj}, s.series, s.angles, s.s2c) {
		logQ[l] = bootLogQ0
	}
	return logQ
}

// evalModHalfWidth is the half-width K + 5/4 of EvalMod's symmetric
// interval in s = t − 1/4: it holds every t ∈ [−(K+1), K+1].
func (cfg BootstrapConfig) evalModHalfWidth() float64 { return float64(cfg.K) + 1.25 }

// evalModFit approximates cos(2πs/2^r), s = t − 1/4, on s ∈ [−h, h],
// h = evalModHalfWidth; after r double-angle steps this becomes
// cos(2πt − π/2) = sin(2πt). A double angle c → 2c² − 1 multiplies an error
// in c by 4c, so the series' error reaches the sine times
// w(s) = |Π_{i<r} 4·cos(2^i·θ)|, θ = 2πs/2^r: 4^r where θ is a multiple of π,
// far less between. The coefficients are the least-squares fit under w on 16
// nodes per coefficient, not the interpolant, whose flat error the peaks of w
// amplify. The cosine and w are even in s, so the fit's odd coefficients
// vanish.
func evalModFit(cfg BootstrapConfig) []float64 {
	r := float64(int(1) << uint(cfg.DoubleAngles))
	theta := func(s float64) float64 { return 2 * math.Pi * s / r }
	f := func(s float64) float64 { return math.Cos(theta(s)) }
	w := func(s float64) float64 {
		g := 1.0
		for i := 0; i < cfg.DoubleAngles; i++ {
			g *= 4 * math.Cos(float64(int(1)<<uint(i))*theta(s))
		}
		return math.Abs(g)
	}
	h := cfg.evalModHalfWidth()
	return weightedChebyshevFit(f, w, -h, h, cfg.EvalModDeg, 16*(cfg.EvalModDeg+1))
}

// evalModPoly returns the even part of evalModFit as a series in
// y = T₂(x) = 2x² − 1, x = s/h: T_{2j}(x) = T_j(y), so coefficient j is the
// fit's coefficient 2j and the degree is ⌊deg/2⌋. At degree 31 the sine is
// 2^-37.7 off on the interval.
func evalModPoly(cfg BootstrapConfig) []float64 {
	fit := evalModFit(cfg)
	q := make([]float64, cfg.EvalModDeg/2+1)
	for j := range q {
		q[j] = fit[2*j]
	}
	return q
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

// evalModCt removes the q0·I component of one real-slotted ciphertext and
// consumes it. On entry its plaintext is w/h, w = Δu + q0·I, h =
// evalModHalfWidth: read at scale q0, the slots hold t/h, t = w/q0 ∈
// [−K−1, K+1] (coeffsToSlots put the 1/h there). A constant add shifts them
// to x = s/h, s = t − 1/4, where the cosine is even, and one product takes
// them to y = T₂(x), the series' variable (evalModPoly). On exit they hold
// sin(2πt) = 2πΔu/q0 + O((Δu/q0)³) at the returned scale ≈ q0.
func (b *Bootstrapper) evalModCt(ct *Ciphertext) *Ciphertext {
	ev := b.eval
	// Re-declare the scale as q0: a second header over ct's polynomials.
	x := &Ciphertext{C0: ct.C0, C1: ct.C1, Scale: b.q0}
	ev.addConstInPlace(x, -0.25/b.cfg.evalModHalfWidth())
	y := ev.mul(x, x)
	ev.Release(ct)
	ev.addInPlace(y, y)
	ev.addConstInPlace(y, -1)

	// cos(2πs/2^r), then r double angles -> sin(2πt).
	out := ev.chebyshevSeries(y, b.evalMod)
	ev.Release(y)
	for i := 0; i < b.cfg.DoubleAngles; i++ {
		sq := ev.mul(out, out)
		ev.Release(out)
		ev.addInPlace(sq, sq)
		ev.addConstInPlace(sq, -1)
		out = sq
	}
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
	re := b.evalModCt(ct0)
	im := b.evalModCt(ct1)
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
// imaginary halves as two real-slotted ciphertexts, each over h =
// evalModHalfWidth. The last matrix's diagonals are encoded at gain 1/(2h):
// they carry the split's 1/2 and the scaling of EvalMod's map onto the
// Chebyshev interval, both real, so they commute with the conjugation; the
// map's −1/4 shift is evalModCt's constant add. The split is then a sum and a
// difference; and that matrix leaves its rescale to the split's two halves,
// so the conjugation's key-switch noise is divided by q_ℓ with the product
// and does not grow against the shrunken message. The halves' declared scale carries the gain; evalModCt
// re-declares it.
func (b *Bootstrapper) coeffsToSlots(cur *Ciphertext) (ct0, ct1 *Ciphertext, err error) {
	ev := b.eval
	last := len(b.c2s) - 1
	cur, err = b.transforms(cur, b.c2s[:last])
	if err != nil {
		return nil, nil, err
	}
	top, err := ev.linearTransform(cur, b.c2s[last], b.enc, 0.5/b.cfg.evalModHalfWidth(), false)
	ev.Release(cur)
	if err != nil {
		return nil, nil, err
	}
	conj, err := ev.Conjugate(top)
	if err != nil {
		ev.Release(top)
		return nil, nil, err
	}
	sum := ev.Add(top, conj)
	ev.subInPlace(conj, top) // conj − top
	ev.Release(top)
	diff := ev.MulByI(conj)
	ev.Release(conj)
	return ev.rescaleOwned(sum), ev.rescaleOwned(diff), nil
}

// slotsToCoeffs consumes the two EvalMod outputs: it recombines z = re + i·im
// and returns to coefficient packing. The last matrix also fixes the scale:
// its diagonals are encoded at q_ℓ·q0/(2π·scale) rather than at q_ℓ, which
// lands the sine's 2πΔu/q0 at exactly Δ·u. The factor depends on the chain
// alone, not on Δ, so the matrix is encoded once.
func (b *Bootstrapper) slotsToCoeffs(re, im *Ciphertext, delta float64) (*Ciphertext, error) {
	ev := b.eval
	iim := ev.MulByI(im)
	cur := ev.Add(re, iim)
	ev.Release(re, im, iim)
	last := len(b.s2c) - 1
	cur, err := b.transforms(cur, b.s2c[:last])
	if err != nil {
		return nil, err
	}
	out, err := ev.linearTransform(cur, b.s2c[last], b.enc, b.q0/(2*math.Pi*cur.Scale), true)
	ev.Release(cur)
	if err != nil {
		return nil, err
	}
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
