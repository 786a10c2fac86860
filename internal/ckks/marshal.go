package ckks

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// Binary serialization of ciphertexts, plaintexts and keys: length-prefixed
// concatenations of the ring-level polynomial encoding. Intended for
// persisting evaluation keys and shipping ciphertexts between parties.

func appendChunk(buf []byte, chunk []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(chunk)))
	return append(append(buf, l[:]...), chunk...)
}

func readChunk(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("ckks: chunk header truncated")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, nil, fmt.Errorf("ckks: chunk body truncated (%d < %d)", len(data), n)
	}
	return data[:n], data[n:], nil
}

func appendPoly(buf []byte, p *ring.Poly) ([]byte, error) {
	b, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return appendChunk(buf, b), nil
}

func readPoly(data []byte) (*ring.Poly, []byte, error) {
	chunk, rest, err := readChunk(data)
	if err != nil {
		return nil, nil, err
	}
	p := &ring.Poly{}
	if err := p.UnmarshalBinary(chunk); err != nil {
		return nil, nil, err
	}
	return p, rest, nil
}

// MarshalBinary encodes the ciphertext (scale + both components).
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	buf := ring.AppendFloat64(nil, ct.Scale)
	var err error
	if buf, err = appendPoly(buf, ct.C0); err != nil {
		return nil, err
	}
	return appendPoly(buf, ct.C1)
}

// UnmarshalBinary decodes a ciphertext. Beyond framing, it rejects inputs
// that decode but could never have come from MarshalBinary — mismatched
// component shapes or a non-finite/non-positive scale — so untrusted wire
// bytes cannot smuggle a structurally broken ciphertext past the decoder
// and panic an evaluator op later.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	scale, rest, err := ring.ReadFloat64(data)
	if err != nil {
		return err
	}
	if !(scale > 0) || math.IsInf(scale, 0) { // !(>0) also catches NaN
		return fmt.Errorf("ckks: ciphertext scale %v is not a positive finite number", scale)
	}
	c0, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	c1, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes after ciphertext", len(rest))
	}
	if len(c0.Coeffs) != len(c1.Coeffs) {
		return fmt.Errorf("ckks: ciphertext components disagree on level (%d vs %d limbs)",
			len(c0.Coeffs), len(c1.Coeffs))
	}
	if len(c0.Coeffs) > 0 && len(c0.Coeffs[0]) != len(c1.Coeffs[0]) {
		return fmt.Errorf("ckks: ciphertext components disagree on ring degree (%d vs %d)",
			len(c0.Coeffs[0]), len(c1.Coeffs[0]))
	}
	ct.Scale, ct.C0, ct.C1 = scale, c0, c1
	return nil
}

// MarshalBinary encodes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	buf := ring.AppendFloat64(nil, pt.Scale)
	return appendPoly(buf, pt.Value)
}

// UnmarshalBinary decodes a plaintext.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	scale, rest, err := ring.ReadFloat64(data)
	if err != nil {
		return err
	}
	v, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: trailing bytes after plaintext")
	}
	pt.Scale, pt.Value = scale, v
	return nil
}

// MarshalBinary encodes the secret key (both basis embeddings).
func (sk *SecretKey) MarshalBinary() ([]byte, error) {
	buf, err := appendPoly(nil, sk.Q)
	if err != nil {
		return nil, err
	}
	return appendPoly(buf, sk.P)
}

// UnmarshalBinary decodes a secret key.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	q, rest, err := readPoly(data)
	if err != nil {
		return err
	}
	p, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: trailing bytes after secret key")
	}
	sk.Q, sk.P = q, p
	return nil
}

// MarshalBinary encodes the public key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	buf, err := appendPoly(nil, pk.B)
	if err != nil {
		return nil, err
	}
	return appendPoly(buf, pk.A)
}

// UnmarshalBinary decodes a public key.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	b, rest, err := readPoly(data)
	if err != nil {
		return err
	}
	a, rest, err := readPoly(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: trailing bytes after public key")
	}
	pk.B, pk.A = b, a
	return nil
}

// MarshalBinary encodes the full evaluation key set: the relinearization
// key (if present) and every Galois key with its element.
func (s *EvaluationKeySet) MarshalBinary() ([]byte, error) {
	var buf []byte
	if s.Rlk != nil {
		b, err := s.Rlk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendChunk([]byte{1}, b)
	} else {
		buf = []byte{0}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(s.Gal)))
	buf = append(buf, hdr[:]...)
	// Deterministic order.
	els := make([]uint64, 0, len(s.Gal))
	for g := range s.Gal {
		els = append(els, g)
	}
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
	for _, g := range els {
		var ge [8]byte
		binary.LittleEndian.PutUint64(ge[:], g)
		buf = append(buf, ge[:]...)
		b, err := s.Gal[g].MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendChunk(buf, b)
	}
	return buf, nil
}

// UnmarshalBinary decodes an evaluation key set.
func (s *EvaluationKeySet) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("ckks: key set truncated")
	}
	if data[0] > 1 {
		return fmt.Errorf("ckks: bad key set flag byte %#x", data[0])
	}
	hasRlk := data[0] == 1
	rest := data[1:]
	s.Rlk = nil
	s.Gal = make(map[uint64]*SwitchingKey)
	if hasRlk {
		chunk, r, err := readChunk(rest)
		if err != nil {
			return err
		}
		s.Rlk = &SwitchingKey{}
		if err := s.Rlk.UnmarshalBinary(chunk); err != nil {
			return err
		}
		rest = r
	}
	if len(rest) < 4 {
		return fmt.Errorf("ckks: key set galois header truncated")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return fmt.Errorf("ckks: key set galois element truncated")
		}
		g := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		chunk, r, err := readChunk(rest)
		if err != nil {
			return err
		}
		k := &SwitchingKey{}
		if err := k.UnmarshalBinary(chunk); err != nil {
			return err
		}
		s.Gal[g] = k
		rest = r
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: trailing bytes after key set")
	}
	return nil
}

// MarshalBinary encodes a switching key: its seed (a 32-byte chunk), the
// digit count, then every digit's two B polynomials (Q and P parts). The A
// half is not on the wire: the seed regenerates it.
func (k *SwitchingKey) MarshalBinary() ([]byte, error) {
	buf := appendChunk(nil, k.Seed[:])
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k.Digits()))
	var err error
	for d := 0; d < k.Digits(); d++ {
		for _, p := range []*ring.Poly{k.BQ[d], k.BP[d]} {
			if buf, err = appendPoly(buf, p); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a switching key. Beyond framing, it rejects a key
// no generator could have produced, so a hostile upload cannot panic a key
// switch later: a seed that is not 32 bytes, bytes after the last digit, a B
// polynomial in the coefficient domain, digits that disagree on the ring
// degree or on their Q or P row counts, and a digit count other than
// ⌈(ℓ+1)/α⌉ for the level ℓ and α the rows give. Whether the shape is the
// one a parameter set expects is the caller's check (the engine's
// checkKeyShapes).
func (k *SwitchingKey) UnmarshalBinary(data []byte) error {
	seed, rest, err := readChunk(data)
	if err != nil {
		return err
	}
	if len(seed) != len(k.Seed) {
		return fmt.Errorf("ckks: switching key seed is %d bytes, want %d", len(seed), len(k.Seed))
	}
	if len(rest) < 4 {
		return fmt.Errorf("ckks: switching key truncated")
	}
	digits := int(binary.LittleEndian.Uint32(rest))
	if digits <= 0 || digits > 256 {
		return fmt.Errorf("ckks: implausible digit count %d", digits)
	}
	rest = rest[4:]
	bq, bp := make([]*ring.Poly, digits), make([]*ring.Poly, digits)
	for d := 0; d < digits; d++ {
		for _, dst := range []**ring.Poly{&bq[d], &bp[d]} {
			if *dst, rest, err = readPoly(rest); err != nil {
				return err
			}
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes after switching key", len(rest))
	}
	qRows, pRows, n := len(bq[0].Coeffs), len(bp[0].Coeffs), len(bq[0].Coeffs[0])
	for d := 0; d < digits; d++ {
		q, p := bq[d], bp[d]
		if !q.IsNTT || !p.IsNTT {
			return fmt.Errorf("ckks: switching key digit %d is not in the NTT domain", d)
		}
		if len(q.Coeffs) != qRows || len(p.Coeffs) != pRows || len(q.Coeffs[0]) != n || len(p.Coeffs[0]) != n {
			return fmt.Errorf("ckks: switching key digit %d is not %d Q and %d P rows of %d coefficients like digit 0", d, qRows, pRows, n)
		}
	}
	if want := (qRows + pRows - 1) / pRows; digits != want {
		return fmt.Errorf("ckks: switching key has %d digits, want %d for %d Q rows at α = %d", digits, want, qRows, pRows)
	}
	k.Seed, k.BQ, k.BP = [32]byte(seed), bq, bp
	k.uniform.Store(nil)
	return nil
}
