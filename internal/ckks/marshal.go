package ckks

import (
	"encoding"
	"encoding/binary"
	"fmt"
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

// appendPoly appends each polynomial as a length-prefixed chunk.
func appendPoly(buf []byte, ps ...*ring.Poly) ([]byte, error) {
	for _, p := range ps {
		b, err := p.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendChunk(buf, b)
	}
	return buf, nil
}

// readPolys decodes n length-prefixed polynomials and refuses bytes after
// the last; what names the value in that error.
func readPolys(data []byte, what string, n int) ([]*ring.Poly, error) {
	ps := make([]*ring.Poly, n)
	for i := range ps {
		chunk, rest, err := readChunk(data)
		if err != nil {
			return nil, err
		}
		ps[i] = &ring.Poly{}
		if err := ps[i].UnmarshalBinary(chunk); err != nil {
			return nil, err
		}
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("ckks: %d trailing bytes after %s", len(data), what)
	}
	return ps, nil
}

// MarshalBinary encodes the ciphertext (scale + both components).
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	return appendPoly(ring.AppendFloat64(nil, ct.Scale), ct.C0, ct.C1)
}

// UnmarshalBinary decodes a ciphertext. Beyond framing, it rejects inputs
// that decode but could never have come from MarshalBinary — mismatched
// component shapes or a non-finite/non-positive scale (checkComponents).
// Whether the ciphertext is one of a given parameter set is
// Parameters.CheckCiphertext.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	scale, rest, err := ring.ReadFloat64(data)
	if err != nil {
		return err
	}
	c, err := readPolys(rest, "ciphertext", 2)
	if err != nil {
		return err
	}
	if err := checkComponents(c[0], c[1], scale); err != nil {
		return err
	}
	ct.Scale, ct.C0, ct.C1 = scale, c[0], c[1]
	return nil
}

// MarshalBinary encodes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	return appendPoly(ring.AppendFloat64(nil, pt.Scale), pt.Value)
}

// UnmarshalBinary decodes a plaintext.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	scale, rest, err := ring.ReadFloat64(data)
	if err != nil {
		return err
	}
	v, err := readPolys(rest, "plaintext", 1)
	if err != nil {
		return err
	}
	pt.Scale, pt.Value = scale, v[0]
	return nil
}

// MarshalBinary encodes the secret key (both basis embeddings).
func (sk *SecretKey) MarshalBinary() ([]byte, error) { return appendPoly(nil, sk.Q, sk.P) }

// UnmarshalBinary decodes a secret key.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	ps, err := readPolys(data, "secret key", 2)
	if err != nil {
		return err
	}
	sk.Q, sk.P = ps[0], ps[1]
	return nil
}

// appendOptional appends v behind a presence byte: 1 and v's length-prefixed
// encoding, or a lone 0 for nil. It frames every optional part of a key set.
func appendOptional[T any, PT interface {
	*T
	encoding.BinaryMarshaler
}](buf []byte, v PT) ([]byte, error) {
	if v == nil {
		return append(buf, 0), nil
	}
	b, err := v.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return appendChunk(append(buf, 1), b), nil
}

// readOptional decodes what appendOptional wrote, nil for an absent part;
// what names the part in errors.
func readOptional[T any, PT interface {
	*T
	encoding.BinaryUnmarshaler
}](data []byte, what string) (PT, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("ckks: %s truncated", what)
	}
	switch data[0] {
	case 0:
		return nil, data[1:], nil
	case 1:
	default:
		return nil, nil, fmt.Errorf("ckks: bad %s flag byte %#x", what, data[0])
	}
	chunk, rest, err := readChunk(data[1:])
	if err != nil {
		return nil, nil, err
	}
	v := PT(new(T))
	if err := v.UnmarshalBinary(chunk); err != nil {
		return nil, nil, err
	}
	return v, rest, nil
}

// MarshalBinary encodes the full evaluation key set: the relinearization
// key (if present), every Galois key with its element, and the bootstrap
// section (if present).
func (s *EvaluationKeySet) MarshalBinary() ([]byte, error) {
	buf, err := appendOptional(nil, s.Rlk)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Gal)))
	// Deterministic order.
	els := make([]uint64, 0, len(s.Gal))
	for g := range s.Gal {
		els = append(els, g)
	}
	sort.Slice(els, func(i, j int) bool { return els[i] < els[j] })
	for _, g := range els {
		buf = binary.LittleEndian.AppendUint64(buf, g)
		b, err := s.Gal[g].MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendChunk(buf, b)
	}
	return appendOptional(buf, s.Boot)
}

// UnmarshalBinary decodes an evaluation key set.
func (s *EvaluationKeySet) UnmarshalBinary(data []byte) error {
	rlk, rest, err := readOptional[SwitchingKey](data, "key set")
	if err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("ckks: key set galois header truncated")
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	gal := make(map[uint64]*SwitchingKey)
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return fmt.Errorf("ckks: key set galois element truncated")
		}
		g := binary.LittleEndian.Uint64(rest)
		chunk, r, err := readChunk(rest[8:])
		if err != nil {
			return err
		}
		k := &SwitchingKey{}
		if err := k.UnmarshalBinary(chunk); err != nil {
			return err
		}
		gal[g] = k
		rest = r
	}
	boot, rest, err := readOptional[BootstrapKeys](rest, "bootstrap section")
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: trailing bytes after key set")
	}
	s.Rlk, s.Gal, s.Boot = rlk, gal, boot
	return nil
}

// bootConfigBytes is the wire size of a BootstrapConfig: five uint32 fields.
const bootConfigBytes = 5 * 4

// MarshalBinary encodes a bootstrap section: the config's five fields, then
// each encapsulation key framed as optional, as the relinearization key is.
func (b *BootstrapKeys) MarshalBinary() ([]byte, error) {
	c := b.Config
	var buf []byte
	for _, v := range []int{c.FFTIterC2S, c.FFTIterS2C, c.EvalModDeg, c.DoubleAngles, c.K} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf, err := appendOptional(buf, b.ToSparse)
	if err != nil {
		return nil, err
	}
	return appendOptional(buf, b.ToDense)
}

// UnmarshalBinary decodes a bootstrap section. Beyond framing, it refuses a
// config no bootstrap runs under any parameters (a field out of range), so a
// hostile upload cannot size anything by it; whether the parameters can run
// it is NewBootstrapper's check.
func (b *BootstrapKeys) UnmarshalBinary(data []byte) error {
	if len(data) < bootConfigBytes {
		return fmt.Errorf("ckks: bootstrap config truncated (%d < %d bytes)", len(data), bootConfigBytes)
	}
	var f [5]int
	for i := range f {
		f[i] = int(binary.LittleEndian.Uint32(data[4*i:]))
	}
	cfg := BootstrapConfig{FFTIterC2S: f[0], FFTIterS2C: f[1], EvalModDeg: f[2], DoubleAngles: f[3], K: f[4]}
	if err := cfg.valid(); err != nil {
		return err
	}
	toSparse, rest, err := readOptional[SwitchingKey](data[bootConfigBytes:], "encapsulation key")
	if err != nil {
		return err
	}
	toDense, rest, err := readOptional[SwitchingKey](rest, "encapsulation key")
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ckks: %d trailing bytes after bootstrap section", len(rest))
	}
	*b = BootstrapKeys{Config: cfg, ToSparse: toSparse, ToDense: toDense}
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
		if buf, err = appendPoly(buf, k.BQ[d], k.BP[d]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a switching key. Beyond framing, it rejects a key
// no generator could have produced, so a hostile upload cannot panic a key
// switch later: a seed that is not 32 bytes, bytes after the last digit, or
// digits that break checkKeyRows for digit 0's shape. Whether the shape is
// the one a parameter set expects is Parameters.CheckKeys.
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
	ps, err := readPolys(rest[4:], "switching key", 2*digits)
	if err != nil {
		return err
	}
	key := &SwitchingKey{Seed: [32]byte(seed), BQ: make([]*ring.Poly, digits), BP: make([]*ring.Poly, digits)}
	for d := range key.BQ {
		key.BQ[d], key.BP[d] = ps[2*d], ps[2*d+1]
	}
	if err := checkKeyRows(key, len(key.BQ[0].Coeffs), len(key.BP[0].Coeffs), len(key.BQ[0].Coeffs[0]), nil, nil); err != nil {
		return err
	}
	k.Seed, k.BQ, k.BP = key.Seed, key.BQ, key.BP
	k.uniform.Store(nil)
	return nil
}
