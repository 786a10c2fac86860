package ckks

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// SecretKey holds the ternary secret s embedded in both the Q and P bases
// (NTT domain).
type SecretKey struct {
	Q *ring.Poly // over RingQ at max level
	P *ring.Poly // over RingP
}

// PublicKey is an RLWE encryption of zero: (B, A) = (-A·s + e, A) over Q.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey is a gadget ("hybrid") key-switching key with D digits. Digit
// d encrypts P·g_d·w under the key s', where g_d = (Q/Q_d)·[(Q/Q_d)^{-1}]_{Q_d}
// is the RNS gadget factor:
//
//	B[d] + A[d]·s' = P·g_d·w + e_d  (mod PQ).
//
// Table I counts 2·D polynomials in R_PQ; a key here stores D of them, the B
// halves, and a public 32-byte Seed. A[d] is uniform, and the seed determines
// it: row i of A[d]'s Q (P) part is modarith.ExpandUniform under the seed at
// tag ring.KeyRowTag(d, 0 (1), i). Key generation and every key switch call
// that one expander — the key switch expands each row where its dot consumes
// it (Lane.DotKeyLazy) — so A is never stored, shipped or cached.
//
// For rotation keys, w = s and s' = σ_g^{-1}(s), the layout that supports
// hoisting: the ModUp digits of c1 can be computed once and reused across
// rotations, with the automorphism applied after the inner product (§III-B).
//
// A key has a level ℓ: D(ℓ) digits over Q_ℓ ∪ P. The gadget term of a
// digit is (P mod q_i)·w_i on the digit's own limbs and zero elsewhere, and
// neither A's rows nor a digit's error depend on the level, so a key at ℓ is
// the level-ℓ prefix of a full-level one with the same seed — the prefix a key
// switch at any level ≤ ℓ reads — and serves exactly those levels.
type SwitchingKey struct {
	Seed   [32]byte     // AES-256 key of the uniform A rows; set before first use
	BQ, BP []*ring.Poly // Q and P parts of B, indexed by digit, level ℓ, NTT

	uniform atomic.Pointer[modarith.StreamKey] // Seed expanded, on first use
}

// uniformKey returns the expanded Seed the A rows are generated under.
func (k *SwitchingKey) uniformKey() *modarith.StreamKey {
	if u := k.uniform.Load(); u != nil {
		return u
	}
	k.uniform.CompareAndSwap(nil, modarith.NewStreamKey(k.Seed))
	return k.uniform.Load()
}

// Digits returns the decomposition number D of the key.
func (k *SwitchingKey) Digits() int { return len(k.BQ) }

// Level returns the highest ciphertext level the key serves (−1 for a key
// without digits).
func (k *SwitchingKey) Level() int {
	if len(k.BQ) == 0 || k.BQ[0] == nil {
		return -1
	}
	return k.BQ[0].Level()
}

// covers reports whether the key serves a key switch at level lvl, which
// reads its level-lvl prefix: a key of the parameters' layout (checkKeyRows)
// at lvl or above.
func (k *SwitchingKey) covers(p *Parameters, lvl int) bool {
	return k.Level() >= lvl && checkKeyRows(k, k.Level()+1, p.Alpha(), p.N(), nil, nil) == nil
}

// keyBelow is the error of an op at level lvl handed a key that does not
// serve it.
func keyBelow(name string, k *SwitchingKey, lvl int) error {
	return fmt.Errorf("%w: %s at level %d does not cover level %d", ErrMissingKey, name, k.Level(), lvl)
}

// polysBytes sums the coefficient storage the polynomials pin: their
// capacity, which for a result borrowed from a larger pooled polynomial
// exceeds its limbs.
func polysBytes(ps []*ring.Poly) int64 {
	var n int64
	for _, p := range ps {
		if p != nil && len(p.Coeffs) > 0 {
			n += int64(p.Capacity()) * int64(len(p.Coeffs[0])) * 8
		}
	}
	return n
}

// CoeffBytes returns the bytes the key pins in memory — the figure keycache
// accounting uses: its B rows and its seed, D·(ℓ+1+α)·N·8 + 32 for a key at
// level ℓ.
func (k *SwitchingKey) CoeffBytes() int64 {
	return polysBytes(k.BQ) + polysBytes(k.BP) + int64(len(k.Seed))
}

// EvaluationKeySet bundles the keys an Evaluator may need.
type EvaluationKeySet struct {
	Rlk *SwitchingKey            // relinearization key (w = s²)
	Gal map[uint64]*SwitchingKey // Galois keys by Galois element
}

// NewEvaluationKeySet returns an empty key set.
func NewEvaluationKeySet() *EvaluationKeySet {
	return &EvaluationKeySet{Gal: make(map[uint64]*SwitchingKey)}
}

// ErrMissingKey is returned by the ops that switch keys — Rotate, Conjugate,
// EvaluateLinearTransform, Mul, SwitchKeys — when the key they need is absent
// or sits below the op's level. They check before borrowing or writing
// anything. The error wraps it with the key and, for a key too low, both
// levels.
var ErrMissingKey = errors.New("ckks: missing key")

// GaloisKey returns the switching key for a Galois element, or ErrMissingKey
// naming the element.
func (s *EvaluationKeySet) GaloisKey(galEl uint64) (*SwitchingKey, error) {
	if k, ok := s.Gal[galEl]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("%w: no Galois key for element %d", ErrMissingKey, galEl)
}

// CoeffBytes returns the coefficient bytes of every key in the set.
func (s *EvaluationKeySet) CoeffBytes() int64 {
	var n int64
	if s.Rlk != nil {
		n += s.Rlk.CoeffBytes()
	}
	for _, k := range s.Gal {
		n += k.CoeffBytes()
	}
	return n
}

// KeyGenerator samples keys for a parameter set. Every key's bytes are a
// function of the generator's master seed, the key's id and its level only,
// never of what else the generator drew before, so generating keys in another
// order, or one key more or fewer, leaves every other key byte-identical.
//
// Two derivations hang off the master, in separate domains: the public one
// gives each key the Seed its uniform half expands from, and the secret one
// gives a secret key its stream and each key digit its error stream, keyed by
// (key id, digit). A key id is the Galois element for a Galois key, a fixed
// role for the relinearization key, the public key and the bootstrap's two
// encapsulation keys, and a fresh counter value for every GenSecretKey,
// GenSparseSecretKey and GenKeySwitchKey call. The level is never part of an
// id: a key at level ℓ is the prefix of the top-level key with its id.
type KeyGenerator struct {
	params       *Parameters
	master       [32]byte
	secretDomain string // domainSecret; a field so a test can move it alone
	fresh        uint64 // ids handed out to calls without a role
}

// The derivation domains of a KeyGenerator's master seed.
const (
	domainPublic = "anaheim/key/public"
	domainSecret = "anaheim/key/secret"
)

// Key ids with a fixed role, and the base of the fresh ones. Galois elements
// are odd and below 2N, far below both.
const (
	idRelinearization uint64 = 1<<62 + iota
	idPublicKey
	idToSparse
	idToDense
	idFresh uint64 = 1 << 63
)

// NewKeyGenerator returns a deterministic key generator: its master seed is
// derived from seed, so every secret it draws carries at most 64 bits of
// entropy. Tests and the benchmark use it; real data needs a master from
// crypto/rand (NewKeyGeneratorFromMaster).
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return NewKeyGeneratorFromMaster(params, seedFromInt64("anaheim/key/master", seed))
}

// NewKeyGeneratorFromMaster returns the key generator whose master seed is
// master itself. Drawn from crypto/rand, it gives every key the master's 256
// bits of entropy.
func NewKeyGeneratorFromMaster(params *Parameters, master [32]byte) *KeyGenerator {
	return &KeyGenerator{params: params, master: master, secretDomain: domainSecret}
}

// seedFromInt64 hashes an integer seed into a 32-byte stream seed under a
// domain label.
func seedFromInt64(domain string, seed int64) [32]byte {
	return sha256.Sum256(binary.LittleEndian.AppendUint64([]byte(domain+"\x00"), uint64(seed)))
}

// derive returns the 32-byte seed of (id, digit) in a domain of the master.
func (kg *KeyGenerator) derive(domain string, id, digit uint64) [32]byte {
	b := append([]byte(domain+"\x00"), kg.master[:]...)
	b = binary.LittleEndian.AppendUint64(b, id)
	return sha256.Sum256(binary.LittleEndian.AppendUint64(b, digit))
}

// secretStream returns the secret stream of (id, digit).
func (kg *KeyGenerator) secretStream(id, digit uint64) *ring.Stream {
	return ring.NewStream(kg.derive(kg.secretDomain, id, digit))
}

// freshID returns an id no other call of this generator gets.
func (kg *KeyGenerator) freshID() uint64 {
	kg.fresh++
	return idFresh | kg.fresh
}

// GenSecretKey samples a dense ternary secret of Hamming weight params.HDense.
// Each call draws a new secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	return kg.genSecretKeyWithWeight(kg.params.HDense())
}

// GenSparseSecretKey samples a sparse ternary secret (Hamming weight H_s)
// for the sparse-secret encapsulation of bootstrapping [9].
func (kg *KeyGenerator) GenSparseSecretKey() *SecretKey {
	return kg.genSecretKeyWithWeight(kg.params.HSparse())
}

func (kg *KeyGenerator) genSecretKeyWithWeight(h int) *SecretKey {
	p := kg.params
	v := kg.secretStream(kg.freshID(), 0).TernaryVector(p.N(), h)
	sk := &SecretKey{
		Q: ring.SmallVectorToPoly(p.RingQ(), p.MaxLevel(), v),
		P: ring.SmallVectorToPoly(p.RingP(), p.RingP().MaxLevel(), v),
	}
	p.RingQ().NTT(sk.Q, p.MaxLevel())
	p.RingP().NTT(sk.P, p.RingP().MaxLevel())
	return sk
}

// GenPublicKey returns an RLWE encryption of zero under sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	p := kg.params
	rq := p.RingQ()
	lvl := p.MaxLevel()
	a := ring.NewStream(kg.derive(domainPublic, idPublicKey, 0)).UniformPoly(rq, lvl, true)
	e := kg.secretStream(idPublicKey, 0).GaussianPoly(rq, lvl, p.Sigma())
	rq.NTT(e, lvl)
	b := rq.NewPoly(lvl)
	b.IsNTT = true
	rq.MulCoeffs(b, a, sk.Q, lvl)
	rq.Neg(b, b, lvl)
	rq.Add(b, b, e, lvl)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey produces the key with the given id at level ℓ, digit d
// satisfying B[d] + A[d]·under = P·g_d·w + e_d over Q_ℓ ∪ P, where w and under
// are NTT-form secrets over (Q, P) (rows 0..ℓ of their Q parts are read) and
// digit d covers the Q limbs PlanAt(ℓ).digitLimbs(d). A[d] is expanded row
// by row from the key's seed (ring.SubUniformProduct) and never held whole;
// the error polynomials are borrowed from the ring pools and handed back: a
// key keeps only its B digits.
func (kg *KeyGenerator) genSwitchingKey(level int, id uint64, wQ *ring.Poly, underQ, underP *ring.Poly) *SwitchingKey {
	p := kg.params
	rq, rp := p.RingQ(), p.RingP()
	lvlP, pl := rp.MaxLevel(), p.PlanAt(level)
	pModQ := rns.ProductMod(rp.Moduli, rq.Moduli[:level+1]) // the in-group gadget term

	k := &SwitchingKey{
		Seed: kg.derive(domainPublic, id, 0),
		BQ:   make([]*ring.Poly, pl.Digits),
		BP:   make([]*ring.Poly, pl.Digits),
	}
	a := k.uniformKey()
	eQ, eP := rq.GetPoly(level), rp.GetPoly(lvlP)
	defer rq.PutPoly(eQ)
	defer rp.PutPoly(eP)
	for d := 0; d < pl.Digits; d++ {
		ev := kg.secretStream(id, uint64(d)).GaussianVector(p.N(), p.Sigma())
		rq.EmbedCentered(eQ, ev, level)
		rp.EmbedCentered(eP, ev, lvlP)
		rq.NTT(eQ, level)
		rp.NTT(eP, lvlP)

		bQ := rq.NewPoly(level)
		rq.SubUniformProduct(bQ, eQ, underQ, a, d, 0, level)
		// Gadget term: P·g_d·w has residue (P mod q_i)·w_i for i in the
		// digit's prime group and 0 elsewhere (and 0 mod every p_j).
		lo, hi := pl.digitLimbs(d)
		for i := lo; i < hi; i++ {
			mod := rq.Moduli[i]
			dst, src := bQ.Coeffs[i], wQ.Coeffs[i]
			c := pModQ[i]
			cs := mod.ShoupPrecomp(c)
			for j := range dst {
				dst[j] = mod.Add(dst[j], mod.MulShoup(src[j], c, cs))
			}
		}

		bP := rp.NewPoly(lvlP)
		rp.SubUniformProduct(bP, eP, underP, a, d, 1, lvlP)

		k.BQ[d], k.BP[d] = bQ, bP
	}
	return k
}

// GenRelinearizationKey returns the key switching s² -> s, at the top level.
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *SwitchingKey {
	p := kg.params
	rq := p.RingQ()
	lvl := p.MaxLevel()
	s2 := rq.GetPoly(lvl)
	defer rq.PutPoly(s2)
	rq.MulCoeffs(s2, sk.Q, sk.Q, lvl)
	s2.IsNTT = true
	return kg.genSwitchingKey(lvl, idRelinearization, s2, sk.Q, sk.P)
}

// genGaloisKey returns the level-ℓ key enabling the automorphism σ_g on
// ciphertexts under sk, in the hoisting-compatible layout (w = s,
// under = σ_g^{-1}(s)): the level-ℓ prefix of the top-level key, id galEl.
// σ_g^{-1}(s) is pooled scratch.
func (kg *KeyGenerator) genGaloisKey(sk *SecretKey, galEl uint64, level int) *SwitchingKey {
	p := kg.params
	rq, rp := p.RingQ(), p.RingP()
	gInv := invGalois(galEl, uint64(2*p.N()))
	underQ, underP := rq.GetPoly(level), rp.GetPoly(rp.MaxLevel())
	defer rq.PutPoly(underQ)
	defer rp.PutPoly(underP)
	rq.AutomorphismNTT(underQ, sk.Q, gInv, level)
	rp.AutomorphismNTT(underP, sk.P, gInv, rp.MaxLevel())
	return kg.genSwitchingKey(level, galEl, sk.Q, underQ, underP)
}

// ensureGaloisKey gives ks a Galois key for galEl that serves level: a key
// at or above it is kept, a lower one replaced.
func (kg *KeyGenerator) ensureGaloisKey(sk *SecretKey, ks *EvaluationKeySet, galEl uint64, level int) {
	if k, ok := ks.Gal[galEl]; ok && k.Level() >= level {
		return
	}
	ks.Gal[galEl] = kg.genGaloisKey(sk, galEl, level)
}

// GenRotationKeys populates ks with top-level Galois keys for the given slot
// rotations, replacing any lower-level key the set holds for one of them.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, ks *EvaluationKeySet, rotations []int) {
	rq := kg.params.RingQ()
	for _, r := range rotations {
		kg.ensureGaloisKey(sk, ks, rq.GaloisElement(r), kg.params.MaxLevel())
	}
}

// GenConjugationKey adds the top-level key for complex conjugation,
// replacing a lower-level one.
func (kg *KeyGenerator) GenConjugationKey(sk *SecretKey, ks *EvaluationKeySet) {
	kg.ensureGaloisKey(sk, ks, kg.params.RingQ().GaloisElementConjugate(), kg.params.MaxLevel())
}

// GenKeySwitchKey returns the top-level key switching ciphertexts under
// skFrom to skTo. Each call draws a new key, under a fresh id.
func (kg *KeyGenerator) GenKeySwitchKey(skFrom, skTo *SecretKey) *SwitchingKey {
	return kg.genSwitchingKey(kg.params.MaxLevel(), kg.freshID(), skFrom.Q, skTo.Q, skTo.P)
}

// invGalois returns g^{-1} mod m for odd g (m a power of two).
func invGalois(g, m uint64) uint64 {
	// The multiplicative group mod 2^k has exponent 2^{k-2}; brute power is
	// fine for our sizes, but extended Euclid is simplest and exact.
	var inv func(a, m int64) int64
	inv = func(a, m int64) int64 {
		g0, g1 := m, a
		x0, x1 := int64(0), int64(1)
		for g1 != 0 {
			q := g0 / g1
			g0, g1 = g1, g0-q*g1
			x0, x1 = x1, x0-q*x1
		}
		return ((x0 % m) + m) % m
	}
	return uint64(inv(int64(g%m), int64(m)))
}
