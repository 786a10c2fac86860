package ckks

import (
	"encoding/binary"
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

// Encryptor encrypts values under the secret key. It is safe for concurrent
// use: its one stream is drawn under its mutex, and everything after the
// draws runs unlocked. Concurrent callers get valid encryptions whose
// randomness depends on the order their draws take the lock.
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

// EncodeEncryptNew encodes values at the given level and scale and encrypts
// them under the secret key: (−a·s + m + e, a). The message joins the error
// in the coefficient domain before their one transform — the NTT is linear
// and the sum is exact mod q_i — so the ciphertext is, byte for byte, the
// encryption of the NTT-domain Encode at ℓ+1 forward limb transforms. The
// stream is drawn in the order a's 32-byte seed, e. The mask a is that
// seed's uniform expansion, already in the NTT domain, so the ciphertext is
// a function of the seed and C0 alone.
func (e *Encryptor) EncodeEncryptNew(enc *Encoder, values []complex128, level int, scale float64, sk *SecretKey) (*Ciphertext, error) {
	defer obsEncrypt.done(time.Now())
	p := e.params
	rq := p.RingQ()
	c0 := rq.NewPoly(level)
	if err := enc.encodeCoeffs(c0, values, scale); err != nil {
		return nil, err
	}
	var seed [32]byte
	e.mu.Lock()
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], e.stream.Uint64())
	}
	ev := e.stream.GaussianVector(rq.N, p.Sigma())
	e.mu.Unlock()

	t := rq.GetPoly(level)
	defer rq.PutPoly(t)
	rq.EmbedCentered(t, ev, level)
	rq.Add(c0, c0, t, level)
	rq.NTT(c0, level)
	c1 := ring.NewStream(seed).UniformPoly(rq, level, true)
	rq.MulCoeffs(t, c1, sk.Q.Truncated(level), level)
	rq.Sub(c0, c0, t, level)
	return &Ciphertext{C0: c0, C1: c1, Scale: scale}, nil
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

// DecryptDecodeNew returns the slot vector of ct. Only the limb prefix that
// determines a plaintext of ct's scale (Encoder.decodeLimbs) is multiplied,
// added and inverse-transformed, in pooled scratch.
func (d *Decryptor) DecryptDecodeNew(ct *Ciphertext, enc *Encoder) []complex128 {
	defer obsDecrypt.done(time.Now())
	rq := d.params.RingQ()
	m := rq.GetPoly(enc.decodeLimbs(ct.Level(), ct.Scale) - 1)
	defer rq.PutPoly(m)
	d.decryptRows(m, ct)
	rq.INTT(m, m.Level())
	return enc.decodeCoeffs(m, ct.Scale)
}
