package ring

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary serialization of polynomials: a fixed header (limb count,
// coefficient count, domain flag) followed by little-endian uint64
// coefficients. Scales linearly and round-trips exactly.

const polyMagic = 0x414e504f // "ANPO"

// MarshalBinary encodes the polynomial.
func (p *Poly) MarshalBinary() ([]byte, error) {
	limbs := len(p.Coeffs)
	if limbs == 0 {
		return nil, fmt.Errorf("ring: cannot marshal an empty polynomial")
	}
	n := len(p.Coeffs[0])
	buf := make([]byte, 16+8*limbs*n)
	binary.LittleEndian.PutUint32(buf[0:], polyMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(limbs))
	binary.LittleEndian.PutUint32(buf[8:], uint32(n))
	if p.IsNTT {
		buf[12] = 1
	}
	off := 16
	for _, row := range p.Coeffs {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[off:], v)
			off += 8
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes into p, allocating storage.
func (p *Poly) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("ring: polynomial data truncated (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != polyMagic {
		return fmt.Errorf("ring: bad polynomial magic")
	}
	limbs := int(binary.LittleEndian.Uint32(data[4:]))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if limbs <= 0 || n <= 0 || limbs > 1<<16 || n > 1<<20 {
		return fmt.Errorf("ring: implausible polynomial shape %dx%d", limbs, n)
	}
	if want := 16 + 8*limbs*n; len(data) != want {
		return fmt.Errorf("ring: polynomial data length %d, want %d", len(data), want)
	}
	// The flag word is 0 or 1; anything else would not re-marshal to itself.
	if flag := binary.LittleEndian.Uint32(data[12:]); flag > 1 {
		return fmt.Errorf("ring: bad polynomial domain flag %#x", flag)
	}
	p.IsNTT = data[12] == 1
	backing := make([]uint64, limbs*n)
	p.Coeffs = make([][]uint64, limbs)
	off := 16
	for i := 0; i < limbs; i++ {
		p.Coeffs[i], backing = backing[:n], backing[n:]
		for j := 0; j < n; j++ {
			p.Coeffs[i][j] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
	}
	return nil
}

// AppendFloat64 and ReadFloat64 are helpers for composite structures that
// carry scales alongside polynomials.
func AppendFloat64(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

// ReadFloat64 reads a float64 and returns the remaining slice.
func ReadFloat64(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("ring: float64 data truncated")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}
