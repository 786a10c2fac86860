package ckks

import (
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// Ciphertext is an RLWE pair (C0, C1) in NTT form decrypting to
// C0 + C1·s = ⟨u⟩ + e at the tracked scale.
type Ciphertext struct {
	C0, C1 *ring.Poly
	Scale  float64
}

// Level returns the ciphertext level (limbs - 1).
func (ct *Ciphertext) Level() int { return ct.C0.Level() }

// polys returns the two components, for code that treats them alike.
func (ct *Ciphertext) polys() [2]*ring.Poly { return [2]*ring.Poly{ct.C0, ct.C1} }

// CoeffBytes returns the coefficient bytes the ciphertext keeps alive: its
// two polynomials' capacity, 8 bytes per coefficient — at least Level()+1
// limbs each, more for a result the pool served from a larger backing. It is
// the figure the serving engine charges a retained result at.
func (ct *Ciphertext) CoeffBytes() int64 {
	return polysBytes([]*ring.Poly{ct.C0, ct.C1})
}

// CopyNew returns a deep copy.
func (ct *Ciphertext) CopyNew() *Ciphertext {
	return &Ciphertext{C0: ct.C0.CopyNew(), C1: ct.C1.CopyNew(), Scale: ct.Scale}
}

// Plaintext couples an encoded polynomial with its scale.
type Plaintext struct {
	Value *ring.Poly
	Scale float64
}

// Level returns the plaintext level.
func (pt *Plaintext) Level() int { return pt.Value.Level() }

// Encryptor encrypts plaintexts under a public or secret key. It is safe for
// concurrent use: its one stream is drawn under its mutex, and everything
// after the draws runs unlocked. Concurrent callers get valid encryptions
// whose randomness depends on the order their draws take the lock.
type Encryptor struct {
	params *Parameters
	mu     sync.Mutex // serializes the draws from stream
	stream *ring.Stream
}

// NewEncryptor returns a deterministic encryptor: its stream is seeded from
// seed.
func NewEncryptor(params *Parameters, seed int64) *Encryptor {
	return NewEncryptorFromSeed(params, seedFromInt64("anaheim/encryptor", seed))
}

// NewEncryptorFromSeed returns the encryptor whose stream is keyed by seed
// itself. Draw it from crypto/rand, independently of the key master.
func NewEncryptorFromSeed(params *Parameters, seed [32]byte) *Encryptor {
	return &Encryptor{params: params, stream: ring.NewStream(seed)}
}

// EncryptNew encrypts the NTT-domain plaintext pt under the public key:
// (C0, C1) = (B·u + e0 + pt, A·u + e1).
func (e *Encryptor) EncryptNew(pt *Plaintext, pk *PublicKey) *Ciphertext {
	defer obsEncrypt.done(time.Now())
	lvl := pt.Level()
	ct := e.encrypt(nil, pt.Scale, lvl, pk)
	e.params.RingQ().Add(ct.C0, ct.C0, pt.Value, lvl)
	return ct
}

// EncodeEncryptNew encodes values at the given level and scale and encrypts
// them under the public key. The encoded message stays in the coefficient
// domain and joins e0 before its transform — the NTT is linear and both sums
// are exact mod q_i — so the ciphertext is, byte for byte, EncryptNew of
// Encode at 3(ℓ+1) forward transforms instead of 4(ℓ+1).
func (e *Encryptor) EncodeEncryptNew(enc *Encoder, values []complex128, level int, scale float64, pk *PublicKey) (*Ciphertext, error) {
	defer obsEncrypt.done(time.Now())
	rq := e.params.RingQ()
	m := rq.GetPoly(level)
	defer rq.PutPoly(m)
	if err := enc.encodeCoeffs(m, values, scale); err != nil {
		return nil, err
	}
	return e.encrypt(m, scale, level, pk), nil
}

// encrypt returns (B·u + e0 + m, A·u + e1) for a coefficient-domain message m
// (nil for an encryption of zero). The stream is drawn in the order u, e0,
// e1, which fixes the ciphertext bytes of a seeded encryptor.
func (e *Encryptor) encrypt(m *ring.Poly, scale float64, lvl int, pk *PublicKey) *Ciphertext {
	p := e.params
	rq := p.RingQ()
	e.mu.Lock()
	uv := e.stream.TernaryVector(rq.N, p.HDense())
	e0 := e.stream.GaussianVector(rq.N, p.Sigma())
	e1 := e.stream.GaussianVector(rq.N, p.Sigma())
	e.mu.Unlock()

	u := rq.GetPoly(lvl)
	defer rq.PutPoly(u)
	rq.EmbedCentered(u, uv, lvl)
	rq.NTT(u, lvl)

	c0 := rq.NewPoly(lvl)
	rq.EmbedCentered(c0, e0, lvl)
	if m != nil {
		rq.Add(c0, c0, m, lvl)
	}
	rq.NTT(c0, lvl)
	rq.MulCoeffsAdd(c0, pk.B.Truncated(lvl), u, lvl)

	c1 := rq.NewPoly(lvl)
	rq.EmbedCentered(c1, e1, lvl)
	rq.NTT(c1, lvl)
	rq.MulCoeffsAdd(c1, pk.A.Truncated(lvl), u, lvl)

	return &Ciphertext{C0: c0, C1: c1, Scale: scale}
}

// EncryptSkNew encrypts pt under the secret key (fresh uniform mask, lower
// noise than public-key encryption; used by tests and bootstrapping
// internals).
func (e *Encryptor) EncryptSkNew(pt *Plaintext, sk *SecretKey) *Ciphertext {
	defer obsEncrypt.done(time.Now())
	p := e.params
	rq := p.RingQ()
	lvl := pt.Level()

	e.mu.Lock()
	a := e.stream.UniformPoly(rq, lvl, true)
	ev := e.stream.GaussianVector(rq.N, p.Sigma())
	e.mu.Unlock()
	err := ring.SmallVectorToPoly(rq, lvl, ev)
	rq.NTT(err, lvl)

	c0 := rq.NewPoly(lvl)
	c0.IsNTT = true
	rq.MulCoeffs(c0, a, sk.Q.Truncated(lvl), lvl)
	rq.Neg(c0, c0, lvl)
	rq.Add(c0, c0, err, lvl)
	rq.Add(c0, c0, pt.Value, lvl)

	return &Ciphertext{C0: c0, C1: a, Scale: pt.Scale}
}

// Decryptor recovers plaintexts.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor binds a secret key.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// decryptRows sets the first len(m.Coeffs) limbs of m to C0 + C1·s (NTT
// domain).
func (d *Decryptor) decryptRows(m *ring.Poly, ct *Ciphertext) {
	rq := d.params.RingQ()
	lvl := m.Level()
	rq.MulCoeffs(m, ct.C1.Truncated(lvl), d.sk.Q.Truncated(lvl), lvl)
	rq.Add(m, m, ct.C0.Truncated(lvl), lvl)
}

// DecryptNew returns the plaintext C0 + C1·s on every limb of ct.
func (d *Decryptor) DecryptNew(ct *Ciphertext) *Plaintext {
	defer obsDecrypt.done(time.Now())
	m := d.params.RingQ().NewPoly(ct.Level())
	d.decryptRows(m, ct)
	return &Plaintext{Value: m, Scale: ct.Scale}
}

// DecryptDecodeNew returns the slot vector of ct. Only the limb prefix that
// determines a plaintext of ct's scale (Encoder.decodeLimbs) is multiplied,
// added and inverse-transformed, in pooled scratch.
func (d *Decryptor) DecryptDecodeNew(ct *Ciphertext, enc *Encoder) []complex128 {
	defer obsDecrypt.done(time.Now())
	rq := d.params.RingQ()
	m := rq.GetPoly(enc.decodeLimbs(ct.Level(), ct.Scale) - 1)
	defer rq.PutPoly(m)
	d.decryptRows(m, ct)
	for i, row := range m.Coeffs {
		rq.INTTLimb(row, i)
	}
	return enc.decodeCoeffs(m, ct.Scale)
}
