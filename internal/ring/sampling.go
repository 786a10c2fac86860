package ring

import (
	"math"
	"math/rand"
	"sync"
)

// Sampler draws the random polynomials used by RLWE key generation and
// encryption. It is deterministic given its seed, which the test suite and
// examples rely on; production use would seed from crypto/rand. The mutex
// serializes draws so encryptors can be shared across goroutines (the
// sequence of outputs then depends on caller interleaving, but each draw
// stays a valid sample).
type Sampler struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSampler returns a sampler seeded deterministically.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// UniformPoly fills a fresh polynomial with residues uniform in [0, q_i) per
// limb. Uniform polynomials are invariant under the NTT (the transform of a
// uniform polynomial is uniform), so the domain flag is set by the caller's
// needs via asNTT.
func (s *Sampler) UniformPoly(r *Ring, level int, asNTT bool) *Poly {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		row := p.Coeffs[i]
		bound := ^uint64(0) - ^uint64(0)%q // rejection bound for uniformity
		for j := range row {
			for {
				v := s.rng.Uint64()
				if v < bound {
					row[j] = v % q
					break
				}
			}
		}
	}
	p.IsNTT = asNTT
	return p
}

// EmbedCentered writes the residues of the signed vector v into limbs
// 0..level of p, row by row: p.Coeffs[i][j] = v[j] mod q_i in [0, q_i). It is
// the one centered embed of the client path (sampled secrets and errors, the
// encoder's rounded coefficients, ModRaise), and it runs without the divider:
// a row whose modulus exceeds every |v[j]| adds q_i to the negative entries
// (branch-free), any other row reduces |v[j]| by the Barrett reciprocal and
// negates. p is left in the coefficient domain.
func (r *Ring) EmbedCentered(p *Poly, v []int64, level int) {
	var maxAbs uint64
	for _, x := range v {
		s := uint64(x >> 63)
		if a := (uint64(x) ^ s) - s; a > maxAbs {
			maxAbs = a
		}
	}
	forEachLimb(level, func(i int) {
		mod := r.Moduli[i]
		row := p.Coeffs[i][:len(v)]
		if maxAbs < mod.Q {
			for j, x := range v {
				row[j] = uint64(x) + mod.Q&uint64(x>>63)
			}
			return
		}
		for j, x := range v {
			s := uint64(x >> 63)                    // all ones when x < 0
			a := mod.MulBarrett((uint64(x)^s)-s, 1) // |x| mod q: a·1 < 2^128 is all the reduction needs
			row[j] = mod.ReduceTwoQ(a ^ (a^(mod.Q-a))&s)
		}
	})
	p.IsNTT = false
}

// SmallVectorToPoly embeds a signed integer vector into all limbs of a fresh
// coefficient-domain polynomial. It is used to lift one sampled secret or
// error into several rings (e.g. both the Q and P bases of a key).
func SmallVectorToPoly(r *Ring, level int, v []int64) *Poly {
	p := r.NewPoly(level)
	r.EmbedCentered(p, v, level)
	return p
}

// TernaryVector samples a length-n vector with exactly h entries in {-1,+1}.
func (s *Sampler) TernaryVector(n, h int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := make([]int64, n)
	perm := s.rng.Perm(n)
	for k := 0; k < h && k < n; k++ {
		if s.rng.Intn(2) == 0 {
			v[perm[k]] = 1
		} else {
			v[perm[k]] = -1
		}
	}
	return v
}

// GaussianVector samples a length-n rounded-Gaussian vector with standard
// deviation sigma, truncated at 6 sigma.
func (s *Sampler) GaussianVector(n int, sigma float64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := make([]int64, n)
	bound := int64(math.Ceil(6 * sigma))
	for j := range v {
		for {
			x := int64(math.Round(s.rng.NormFloat64() * sigma))
			if x >= -bound && x <= bound {
				v[j] = x
				break
			}
		}
	}
	return v
}

// GaussianPoly samples a discrete Gaussian error polynomial with standard
// deviation sigma (rounded continuous Gaussian, adequate for a research
// implementation). Returned in the coefficient domain.
func (s *Sampler) GaussianPoly(r *Ring, level int, sigma float64) *Poly {
	return SmallVectorToPoly(r, level, s.GaussianVector(r.N, sigma))
}
