// Package modarith provides 64-bit modular arithmetic primitives used by the
// RNS-CKKS stack: Barrett reduction, Shoup multiplication for
// fixed operands (NTT twiddle factors), modular exponentiation and inversion,
// and primitive-root search for number-theoretic transforms.
//
// All moduli are odd primes q < 2^61 so that lazy values up to 4q (and the
// transient sums up to 8q that appear inside Harvey butterflies) fit in a
// uint64 without overflow.
//
// # Lazy-reduction domains
//
// The hot kernels defer exact reduction and instead track which interval a
// value lives in (DESIGN.md §3.8.1 has the full discipline):
//
//   - exact:     [0, q)  — what every public non-Lazy function accepts/returns
//   - lazy:      [0, 2q) — *Lazy kernel outputs; normalized by ReduceTwoQ
//   - butterfly: [0, 4q) — internal to the Harvey NTT stages (internal/ntt)
//
// MulShoupLazy and MulBarrettLazy both land in [0, 2q) and tolerate lazy
// (and, for MulShoupLazy, arbitrary uint64) variable operands, which is what
// lets whole NTT + MAC chains run with one exact reduction at the end.
package modarith

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus size in bits.
const MaxModulusBits = 61

// Modulus bundles a prime modulus with its precomputed reduction constants.
// The zero value is not usable; construct with NewModulus.
type Modulus struct {
	Q     uint64 // the modulus itself
	Bits  int    // bit length of Q
	QHalf uint64 // floor(Q/2), used for centered representations

	// Barrett constants: BRedHi:BRedLo = floor(2^128 / Q), the two words of
	// the reciprocal used by MulBarrett/MulBarrettLazy to replace the
	// hardware division in variable-operand products. TwoQ = 2*Q caches the
	// lazy-reduction bound.
	BRedHi uint64
	BRedLo uint64
	TwoQ   uint64
}

// NewModulus precomputes the Barrett constants for an odd modulus q < 2^61
// (every modulus the stack uses is an NTT prime).
func NewModulus(q uint64) (Modulus, error) {
	if q < 3 || q&1 == 0 {
		return Modulus{}, fmt.Errorf("modarith: modulus %d must be an odd integer >= 3", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return Modulus{}, fmt.Errorf("modarith: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	m := Modulus{
		Q:     q,
		Bits:  bits.Len64(q),
		QHalf: q >> 1,
	}
	// floor(2^128/q) by schoolbook long division over base-2^64 digits
	// [1,0,0]: the leading digit divides to 0 remainder 1, then each
	// bits.Div64 has its high word < q by construction.
	var rem uint64
	m.BRedHi, rem = bits.Div64(1, 0, q)
	m.BRedLo, _ = bits.Div64(rem, 0, q)
	m.TwoQ = 2 * q
	return m, nil
}

// MustModulus is NewModulus that panics on error; for package-internal tables
// and tests with known-good inputs.
func MustModulus(q uint64) Modulus {
	m, err := NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

// Add returns a+b mod q for a,b < q.
func (m Modulus) Add(a, b uint64) uint64 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns a-b mod q for a,b < q.
func (m Modulus) Sub(a, b uint64) uint64 {
	d := a - b
	if d > a { // borrow
		d += m.Q
	}
	return d
}

// Neg returns -a mod q for a < q.
func (m Modulus) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return m.Q - a
}

// Mul returns a*b mod q for a,b < q using a 128-bit product and hardware
// division. Exact for all inputs; the hot NTT paths use MulShoup instead.
func (m Modulus) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, r := bits.Div64(hi%m.Q, lo, m.Q)
	return r
}

// MulBarrettLazy returns a*b mod q up to one multiple of q: the result is in
// [0, 2q) and congruent to a*b. Operands may themselves be lazy (a,b < 2q):
// the derivation below only needs a*b < 2^128, and 4q^2 < 2^124. This is the
// core of the fused multiply-accumulate kernels: the quotient t ≈
// floor(a*b/q) comes from the precomputed 128-bit reciprocal instead of a
// hardware division, and the final exact reduction is deferred to ReduceTwoQ
// after the whole accumulation chain.
func (m Modulus) MulBarrettLazy(a, b uint64) uint64 {
	xhi, xlo := bits.Mul64(a, b)
	// t = floor(x * floor(2^128/q) / 2^128) approximated by summing the
	// high words of the three contributing partial products and dropping
	// their low-word carries. Each dropped piece underestimates t by < 1
	// (three in total, plus one from flooring the reciprocal), so the raw
	// remainder is in [0, 4q) — one conditional 2q subtraction lands in
	// [0, 2q). Requires 4q < 2^64, guaranteed by MaxModulusBits = 61.
	t := xhi * m.BRedHi
	hhi, _ := bits.Mul64(xlo, m.BRedHi)
	t += hhi
	hhi, _ = bits.Mul64(xhi, m.BRedLo)
	t += hhi
	r := xlo - t*m.Q
	if r >= m.TwoQ {
		r -= m.TwoQ
	}
	return r
}

// MulBarrett returns a*b mod q exactly for a,b < q, using the Barrett
// reciprocal instead of hardware division.
func (m Modulus) MulBarrett(a, b uint64) uint64 {
	r := m.MulBarrettLazy(a, b)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// AddLazy returns a+b reduced to [0, 2q), for a,b < 2q. The sum is < 4q <
// 2^63, so no overflow. Used to keep accumulators in the lazy domain.
func (m Modulus) AddLazy(a, b uint64) uint64 {
	s := a + b
	if s >= m.TwoQ {
		s -= m.TwoQ
	}
	return s
}

// ReduceTwoQ maps a lazy value in [0, 2q) to its exact residue in [0, q).
func (m Modulus) ReduceTwoQ(a uint64) uint64 {
	if a >= m.Q {
		a -= m.Q
	}
	return a
}

// ShoupPrecomp returns floor(w * 2^64 / q), the Shoup companion constant for
// multiplying by the fixed operand w < q.
func (m Modulus) ShoupPrecomp(w uint64) uint64 {
	// floor(w * 2^64 / q); bits.Div64 requires w < q, which holds for all
	// valid fixed operands.
	q, _ := bits.Div64(w, 0, m.Q)
	return q
}

// MulShoup returns a*w mod q where wShoup = ShoupPrecomp(w). Requires a < q
// (w < q by construction). This is the fast fixed-operand multiplication used
// throughout the NTT.
func (m Modulus) MulShoup(a, w, wShoup uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	r := a*w - hi*m.Q
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

// MulShoupLazy is MulShoup without the final correction: the result is in
// [0, 2q) and congruent to a*w — for ANY a, not just a < q. With
// w' = floor(w·2^64/q) and c = a·w' mod 2^64, the returned value equals
// (a·(w·2^64 - w'·q) + c·q)/2^64 < q·(a/2^64 + 1) < 2q. This is what lets
// the Harvey NTT butterflies feed [0, 4q) values straight into the twiddle
// multiply without reducing first.
func (m Modulus) MulShoupLazy(a, w, wShoup uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	return a*w - hi*m.Q
}

// Pow returns a^e mod q by square-and-multiply.
func (m Modulus) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % m.Q
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^{-1} mod q (q prime, a != 0 mod q) via Fermat's little
// theorem.
func (m Modulus) Inv(a uint64) (uint64, error) {
	if a%m.Q == 0 {
		return 0, fmt.Errorf("modarith: no inverse of 0 mod %d", m.Q)
	}
	return m.Pow(a, m.Q-2), nil
}

// MustInv is Inv that panics on error.
func (m Modulus) MustInv(a uint64) uint64 {
	v, err := m.Inv(a)
	if err != nil {
		panic(err)
	}
	return v
}

// Centered maps a residue a < q to its centered signed representative in
// (-q/2, q/2].
func (m Modulus) Centered(a uint64) int64 {
	if a > m.QHalf {
		return int64(a) - int64(m.Q)
	}
	return int64(a)
}

// FromCentered maps a signed value to its residue mod q.
func (m Modulus) FromCentered(v int64) uint64 {
	r := v % int64(m.Q)
	if r < 0 {
		r += int64(m.Q)
	}
	return uint64(r)
}

// primeFactors returns the distinct prime factors of n by trial division.
// The moduli used in this package have smooth q-1 = 2^k * odd with small odd
// cofactors, so trial division is adequate.
func primeFactors(n uint64) []uint64 {
	var fs []uint64
	for _, p := range []uint64{2, 3, 5, 7, 11, 13} {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	for p := uint64(17); p*p <= n; p += 2 {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// PrimitiveRoot returns a generator of the multiplicative group Z_q^*.
func (m Modulus) PrimitiveRoot() (uint64, error) {
	factors := primeFactors(m.Q - 1)
	for g := uint64(2); g < m.Q; g++ {
		ok := true
		for _, p := range factors {
			if m.Pow(g, (m.Q-1)/p) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("modarith: no primitive root found mod %d", m.Q)
}

// PrimitiveNthRoot returns a primitive n-th root of unity mod q. Requires
// n | q-1.
func (m Modulus) PrimitiveNthRoot(n uint64) (uint64, error) {
	if (m.Q-1)%n != 0 {
		return 0, fmt.Errorf("modarith: %d does not divide q-1 = %d", n, m.Q-1)
	}
	g, err := m.PrimitiveRoot()
	if err != nil {
		return 0, err
	}
	psi := m.Pow(g, (m.Q-1)/n)
	// Verify order is exactly n.
	if m.Pow(psi, n/2) == 1 {
		return 0, fmt.Errorf("modarith: root order check failed for n=%d mod %d", n, m.Q)
	}
	return psi, nil
}
