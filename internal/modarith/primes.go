package modarith

import (
	"fmt"
	"math/bits"
)

// millerRabinWitnesses is a deterministic witness set for 64-bit integers
// (Sinclair 2011): testing against these bases is a proof of primality for
// all n < 2^64.
var millerRabinWitnesses = []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// IsPrime reports whether n is prime, deterministically for all uint64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^s.
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)

	mulmod := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		_, r := bits.Div64(hi%n, lo, n)
		return r
	}
	powmod := func(a, e uint64) uint64 {
		r := uint64(1)
		a %= n
		for e > 0 {
			if e&1 == 1 {
				r = mulmod(r, a)
			}
			a = mulmod(a, a)
			e >>= 1
		}
		return r
	}

witness:
	for _, a := range millerRabinWitnesses {
		x := powmod(a, d)
		if x == 1 || x == n-1 {
			continue
		}
		for i := 0; i < s-1; i++ {
			x = mulmod(x, x)
			if x == n-1 {
				continue witness
			}
		}
		return false
	}
	return true
}

// GenerateNTTPrimes returns count distinct primes q ≡ 1 (mod 2N), N = 2^logN
// — the eligibility condition for negacyclic NTT (§VI-A of the Anaheim paper
// uses the same condition to build the Montgomery reduction circuit) — nearest
// to 2^bitSize. Candidates are scanned outward from 2^bitSize in steps of 2N,
// alternating above and below, so the primes straddle the target as closely
// as possible (which keeps CKKS rescaling near-exact): those below it have
// bit length bitSize, those above it bitSize+1. Every prime returned is one
// NewModulus accepts: at bitSize == MaxModulusBits the candidates above the
// centre would be one bit too long, and only the downward scan runs.
func GenerateNTTPrimes(bitSize, logN, count int) ([]uint64, error) {
	if bitSize < logN+2 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("modarith: bitSize %d out of range for logN=%d", bitSize, logN)
	}
	step := uint64(1) << uint(logN+1) // 2N
	center := uint64(1) << uint(bitSize)
	// First candidate ≡ 1 mod 2N at or below the center.
	lo := center - (center-1)%step
	hi := lo + step

	primes := make([]uint64, 0, count)
	for len(primes) < count {
		progressed := false
		if n := bits.Len64(hi); n <= bitSize+1 && n <= MaxModulusBits {
			if IsPrime(hi) {
				primes = append(primes, hi)
			}
			hi += step
			progressed = true
		}
		if len(primes) < count && bits.Len64(lo) == bitSize {
			if IsPrime(lo) {
				primes = append(primes, lo)
			}
			if lo > step {
				lo -= step
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("modarith: exhausted %d-bit candidates ≡ 1 mod 2^%d (found %d/%d)",
				bitSize, logN+1, len(primes), count)
		}
	}
	return primes, nil
}

// GeneratePrimeChain returns one prime per entry of bitSizes, all ≡ 1 mod 2N,
// with no duplicates across entries of equal size.
func GeneratePrimeChain(bitSizes []int, logN int) ([]uint64, error) {
	// Group by size so equal-size requests share one scan.
	need := map[int]int{}
	for _, b := range bitSizes {
		need[b]++
	}
	pool := map[int][]uint64{}
	for b, n := range need {
		ps, err := GenerateNTTPrimes(b, logN, n)
		if err != nil {
			return nil, err
		}
		pool[b] = ps
	}
	out := make([]uint64, len(bitSizes))
	for i, b := range bitSizes {
		out[i] = pool[b][0]
		pool[b] = pool[b][1:]
	}
	return out, nil
}
