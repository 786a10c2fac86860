package ckks

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// decodeHeadroomBits is the decode contract: a plaintext of declared scale Δ
// must hold coefficients |m| < 2^decodeHeadroomBits·Δ/2 (slot values far
// beyond anything a CKKS circuit carries at 45–60-bit scales). Decode then
// reads only the shortest limb prefix q_0…q_{k−1} whose product exceeds
// 2^decodeHeadroomBits·Δ: the centered residue of m modulo that product is m
// itself, so the remaining limbs carry no further information. A chain
// shorter than the rule asks for is decoded whole, which is the exact
// centered CRT modulo Q_ℓ.
const decodeHeadroomBits = 32

// ErrEncodeRange is returned (wrapped) by Encode when a scaled coefficient is
// NaN, infinite or does not fit a signed 64-bit integer.
var ErrEncodeRange = errors.New("ckks: scaled coefficient is not finite or exceeds 63 bits")

// obsDecodeLimbs records the limb prefix k each decode read.
var obsDecodeLimbs = obs.Default.Histogram("ckks_decode_limbs")

// Encoder maps complex slot vectors u ∈ C^{N/2} to plaintext polynomials
// ⟨u⟩ ∈ R_Q via the canonical embedding restricted to the rotation-group
// orbit of 5 (§II-A). The special FFT below evaluates/interpolates at the
// primitive 2N-th roots ζ^{5^j}, the ordering that makes slot rotations
// Galois automorphisms.
type Encoder struct {
	params   *Parameters
	m        int          // 2N
	rotGroup []int        // 5^j mod 2N
	ksiPows  []complex128 // ζ^k, k = 0..m

	// Decode tables, one entry per prime of the Q chain (see decodeCoeffs).
	logQ             []float64  // log2(q_0···q_i)
	qHi, qLo         []float64  // q_i = qHi[i] + qLo[i] exactly
	negBase          []uint64   // a multiple of q_i in [2^61, 2^62]
	garner, garnerSh [][]uint64 // garner[i][l] = q_l^{-1} mod q_i, l < i, and its Shoup companion
}

// NewEncoder builds the FFT and CRT-decode tables for the parameter set.
func NewEncoder(params *Parameters) *Encoder {
	m := 2 * params.N()
	e := &Encoder{
		params:   params,
		m:        m,
		rotGroup: make([]int, params.Slots()),
		ksiPows:  make([]complex128, m+1),
	}
	fivePow := 1
	for j := 0; j < params.Slots(); j++ {
		e.rotGroup[j] = fivePow
		fivePow = fivePow * 5 % m
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksiPows[k] = cmplx.Exp(complex(0, angle))
	}

	moduli := params.RingQ().Moduli
	n := len(moduli)
	e.logQ, e.qHi, e.qLo = make([]float64, n), make([]float64, n), make([]float64, n)
	e.negBase = make([]uint64, n)
	e.garner, e.garnerSh = make([][]uint64, n), make([][]uint64, n)
	sum := 0.0
	for i, mod := range moduli {
		sum += math.Log2(float64(mod.Q))
		e.logQ[i] = sum
		e.qHi[i], e.qLo[i] = splitInt(int64(mod.Q))
		e.negBase[i] = (1 << 62) / mod.Q * mod.Q
		e.garner[i], e.garnerSh[i] = make([]uint64, i), make([]uint64, i)
		for l := 0; l < i; l++ {
			e.garner[i][l] = mod.MustInv(moduli[l].Q % mod.Q)
			e.garnerSh[i][l] = mod.ShoupPrecomp(e.garner[i][l])
		}
	}
	return e
}

func bitReversePermute(vals []complex128) {
	n := len(vals)
	logN := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> uint(64-logN))
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

// specialFFT evaluates: slots(m) from coefficients layout (decode direction).
func (e *Encoder) specialFFT(vals []complex128) {
	n := len(vals)
	bitReversePermute(vals)
	for size := 2; size <= n; size <<= 1 {
		lenh, lenq := size>>1, size<<2
		// lenq divides m, both powers of two: (r mod lenq)·m/lenq is a mask
		// and a shift.
		mask, shift := lenq-1, uint(bits.TrailingZeros(uint(e.m/lenq)))
		for i := 0; i < n; i += size {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] & mask) << shift
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// specialIFFT interpolates: coefficients layout from slots (encode
// direction), including the 1/n scaling.
func (e *Encoder) specialIFFT(vals []complex128) {
	n := len(vals)
	for size := n; size >= 2; size >>= 1 {
		lenh, lenq := size>>1, size<<2
		mask, shift := lenq-1, uint(bits.TrailingZeros(uint(e.m/lenq)))
		for i := 0; i < n; i += size {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] & mask)) << shift
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReversePermute(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

// Encode produces an NTT-domain plaintext polynomial at the given level and
// scale from at most N/2 complex values (shorter inputs are zero-padded; the
// input slice is not modified).
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*ring.Poly, error) {
	rq := e.params.RingQ()
	p := rq.NewPoly(level)
	if err := e.encodeCoeffs(p, values, scale); err != nil {
		return nil, err
	}
	rq.NTT(p, level)
	return p, nil
}

// encodeCoeffs writes the coefficient-domain encoding of values at the given
// scale into every limb of p (the message EncodeEncryptNew adds to the error
// before their one transform).
func (e *Encoder) encodeCoeffs(p *ring.Poly, values []complex128, scale float64) error {
	slots := e.params.Slots()
	if len(values) > slots {
		return fmt.Errorf("ckks: %d values exceed %d slots", len(values), slots)
	}
	vals := make([]complex128, slots)
	copy(vals, values)
	m, err := e.roundCoeffs(vals, scale)
	if err != nil {
		return err
	}
	e.params.RingQ().EmbedCentered(p, m, p.Level())
	return nil
}

// roundCoeffs interpolates a full slot vector (which it overwrites) and
// returns its N integer coefficients at the given scale: the special IFFT and
// one rounding each, real parts first.
func (e *Encoder) roundCoeffs(vals []complex128, scale float64) ([]int64, error) {
	e.specialIFFT(vals)
	nh := len(vals)
	m := make([]int64, 2*nh)
	for j, v := range vals {
		re, im := real(v)*scale, imag(v)*scale
		// Negated so that NaN fails too; beyond 2^63 the conversion below is
		// implementation-defined.
		if !(math.Abs(re) < 1<<63 && math.Abs(im) < 1<<63) {
			return nil, fmt.Errorf("%w: coefficient %d = (%g, %g) at scale 2^%.1f", ErrEncodeRange, j, re, im, math.Log2(scale))
		}
		m[j], m[j+nh] = int64(math.Round(re)), int64(math.Round(im))
	}
	return m, nil
}

// decodeLimbs is the prefix rule of decodeHeadroomBits: the number of limbs
// that determine a plaintext of the given level and declared scale.
func (e *Encoder) decodeLimbs(level int, scale float64) int {
	need := math.Log2(scale) + decodeHeadroomBits
	k := 1
	for k <= level && e.logQ[k-1] < need {
		k++
	}
	return k
}

// Decode recovers the slot vector of a plaintext polynomial of the declared
// scale (see decodeHeadroomBits for the contract). pt may be in either
// domain; it is not modified.
func (e *Encoder) Decode(pt *ring.Poly, scale float64) []complex128 {
	rq := e.params.RingQ()
	k := e.decodeLimbs(pt.Level(), scale)
	work := rq.GetPoly(k - 1)
	defer rq.PutPoly(work)
	for i, row := range work.Coeffs {
		copy(row, pt.Coeffs[i])
	}
	if pt.IsNTT {
		work.IsNTT = true
		rq.INTT(work, k-1)
	}
	return e.decodeCoeffs(work, scale)
}

// decodeCoeffs turns the coefficient-domain residues of a plaintext modulo
// q_0…q_{k−1} (the rows of work, which it overwrites) into slots, in machine
// words only: Garner digits, then one float per coefficient.
func (e *Encoder) decodeCoeffs(work *ring.Poly, scale float64) []complex128 {
	obsDecodeLimbs.Observe(float64(len(work.Coeffs)))
	e.garnerDigits(work)
	nh := e.params.N() / 2
	vals := make([]complex128, e.params.Slots())
	for j := range vals {
		vals[j] = complex(e.digitsToFloat(work, j)/scale, e.digitsToFloat(work, j+nh)/scale)
	}
	e.specialFFT(vals)
	return vals
}

// garnerDigits replaces the residues x_i of each coefficient by its centered
// mixed-radix digits d_i ∈ (−q_i/2, q_i/2] (row i holds them as
// two's-complement int64), m = d_0 + q_0·(d_1 + q_1·(d_2 + …)), solved row by
// row from d_i = (…((x_i − d_0)·q_0^{-1} − d_1)·q_1^{-1} − …)·q_{i−1}^{-1}
// mod q_i. Every integer of (−Q_k/2, Q_k/2) has exactly one such expansion,
// so the digits spell the centered residue mod Q_k — the plaintext itself
// under the headroom contract, the exact centered CRT when k is the whole
// chain — and a value below q_0/2 has d_0 = m and zeros above.
func (e *Encoder) garnerDigits(work *ring.Poly) {
	moduli := e.params.RingQ().Moduli
	for i, row := range work.Coeffs {
		mod := moduli[i]
		for l := 0; l < i; l++ {
			// x − d_l without reducing d_l first: negBase ≡ 0 keeps the
			// difference positive, and MulShoupLazy takes any 64-bit operand.
			w, wSh, base, dl := e.garner[i][l], e.garnerSh[i][l], e.negBase[i], work.Coeffs[l]
			for j, x := range row {
				row[j] = mod.ReduceTwoQ(mod.MulShoupLazy(x+base-dl[j], w, wSh))
			}
		}
		for j, x := range row {
			if x > mod.QHalf {
				row[j] = x - mod.Q
			}
		}
	}
}

// digitsToFloat evaluates coefficient j's digits (garnerDigits) by Horner's
// rule from the top digit, in double-double arithmetic: the result is the
// integer rounded to float64, to within its last bit.
func (e *Encoder) digitsToFloat(digits *ring.Poly, j int) float64 {
	var hi, lo float64
	for i := len(digits.Coeffs) - 1; i >= 0; i-- {
		hi, lo = hornerStep(hi, lo, e.qHi[i], e.qLo[i], int64(digits.Coeffs[i][j]))
	}
	return hi
}

// splitInt returns v as an exact sum of two float64 (|v| < 2^62).
func splitInt(v int64) (hi, lo float64) {
	hi = float64(v)
	return hi, float64(v - int64(hi))
}

// hornerStep returns (hi, lo)·q + d as a double-double: hi+lo carries about
// 106 bits, hi is their sum rounded to float64. q = qHi + qLo is a modulus
// and |d| < 2^62 a digit.
func hornerStep(hi, lo, qHi, qLo float64, d int64) (float64, float64) {
	p := hi * qHi
	pe := math.FMA(hi, qHi, -p) + (hi*qLo + lo*qHi) // p + pe = (hi+lo)·q, lo·qLo below the last bit
	dHi, dLo := splitInt(d)
	s := p + dHi
	t := s - p
	se := (p - (s - t)) + (dHi - t) // s + se = p + dHi exactly (two-sum)
	se += pe + dLo
	hi = s + se
	return hi, se - (hi - s)
}
