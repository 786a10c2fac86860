package ring

import (
	"math"
	"math/rand/v2"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// Stream is a keyed random stream: AES-256 in counter mode under a 32-byte
// seed (modarith.StreamKey), the library's one source of randomness. Uniform
// polynomials come from modarith.ExpandUniform, one fresh row tag per limb
// drawn; the small vectors — ternary secrets, Gaussian errors — come from the
// raw keystream of a counter space of their own. The output is a pure
// function of the seed and the sequence of draws, so a caller that wants
// draws independent of each other's order gives each its own stream. A
// Stream is not safe for concurrent use: its owner serializes the draws.
type Stream struct {
	key  *modarith.StreamKey
	rows uint64 // uniform rows drawn so far: the next row's tag

	raw   [64]uint64 // raw keystream words not yet handed out: raw[pos:]
	pos   int
	block uint64 // next raw keystream block
	rng   *rand.Rand
}

// rawTag is the counter space of a stream's raw words; its row tags count up
// from 0 and never reach it.
const rawTag = 1 << 63

// NewStream returns the stream of seed.
func NewStream(seed [32]byte) *Stream {
	s := &Stream{key: modarith.NewStreamKey(seed)}
	s.pos = len(s.raw)
	s.rng = rand.New(s)
	return s
}

// Uint64 returns the next raw keystream word: the stream as a math/rand/v2
// Source, which the small-vector samplers draw through.
func (s *Stream) Uint64() uint64 {
	if s.pos == len(s.raw) {
		s.key.Keystream(s.raw[:], rawTag, s.block)
		s.block += uint64(len(s.raw) / 2)
		s.pos = 0
	}
	s.pos++
	return s.raw[s.pos-1]
}

// UniformPoly fills a fresh polynomial with residues uniform in [0, q_i) per
// limb. Uniform polynomials are invariant under the NTT (the transform of a
// uniform polynomial is uniform), so the domain flag is set by the caller's
// needs via asNTT.
func (s *Stream) UniformPoly(r *Ring, level int, asNTT bool) *Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		r.Moduli[i].ExpandUniform(p.Coeffs[i], s.key, s.rows, 0)
		s.rows++
	}
	p.IsNTT = asNTT
	return p
}

// KeyRowTag is the row tag of a switching key's uniform rows under the key's
// own seed: digit, half (0 for the Q basis, 1 for P) and the limb within that
// half. The level is not part of it, so a key's rows at level ℓ are the
// first ℓ+1 of its rows at any higher level.
func KeyRowTag(digit, half, limb int) uint64 {
	return uint64(digit)<<32 | uint64(half)<<31 | uint64(limb)
}

// SubUniformProduct sets out_i = e_i − a_i ⊙ s_i on limbs 0..level, where a_i
// is the uniform row KeyRowTag(digit, half, i) under key: the b half of a
// switching key's digit before its gadget term, with each row of a expanded
// into pooled scratch and consumed at once — the key generator's twin of
// Lane.DotKeyLazy. e and s are NTT-domain and exact; out is flagged NTT.
//
// Like EmbedCentered it runs as a pipeline Func stage that declares no rows:
// key generation and encryption stay outside the traffic model.
func (r *Ring) SubUniformProduct(out, e, s *Poly, key *modarith.StreamKey, digit, half, level int) {
	r.run(level, func(ln *Lane) {
		ln.Func(func(i int) {
			a := r.GetPoly(0)
			defer r.PutPoly(a)
			row, mod := a.Coeffs[0], r.Moduli[i]
			mod.ExpandUniform(row, key, KeyRowTag(digit, half, i), 0)
			mod.VecMulBarrett(row, row, s.Coeffs[i])
			mod.VecSub(out.Coeffs[i], e.Coeffs[i], row)
		}, nil, nil)
	})
	out.IsNTT = true
}

// EmbedCentered writes the residues of the signed vector v into limbs
// 0..level of p, row by row: p.Coeffs[i][j] = v[j] mod q_i in [0, q_i). It is
// the one centered embed of the client path (sampled secrets and errors, the
// encoder's rounded coefficients, ModRaise), and it runs without the divider:
// a row whose modulus exceeds every |v[j]| adds q_i to the negative entries
// (branch-free), any other row reduces |v[j]| by the Barrett reciprocal and
// negates. p is left in the coefficient domain.
func (r *Ring) EmbedCentered(p *Poly, v []int64, level int) {
	embed := r.centeredRows(v)
	r.run(level, func(ln *Lane) {
		ln.Func(func(i int) { embed(p.Coeffs[i][:len(v)], i) }, nil, nil)
	})
	p.IsNTT = false
}

// EmbedCenteredNTT writes into limbs 0..level of p, whose rows hold N/k
// words, every k-th word of the forward transform of the signed vector v (N
// entries): p.Coeffs[i][b] = NTT(v mod q_i)[b·k]. A limb's whole transform
// lives only in the Run's scratch. When v lies in the subring Z[X^k] (v[j] = 0
// unless k divides j) the transform is constant on aligned blocks of k words
// — the evaluation at ψ^(2·brv(j)+1) sits at index j, and the k indices of a
// block share it raised to the k-th power — so p holds it whole and
// Lane.Expand restores every word. k = 1 is the whole transform. p is flagged
// NTT.
func (r *Ring) EmbedCenteredNTT(p *Poly, v []int64, k, level int) {
	if len(v) != r.N {
		panic("ring: EmbedCenteredNTT of a vector that is not N long")
	}
	embed := r.centeredRows(v)
	pl := GetPipeline()
	ln := pl.Lane(r, level)
	s := ln.Scratch(1)[0]
	ln.Func(func(i int) { embed(s.Coeffs[i], i) }, nil, nil)
	ln.NTT(s)
	ln.Func(func(i int) {
		row, out := s.Coeffs[i], p.Coeffs[i]
		for b := range out {
			out[b] = row[b*k]
		}
	}, nil, []*Poly{p})
	pl.Run()
	pl.Release()
	p.IsNTT = true
}

// centeredRows returns EmbedCentered's row body for v: row = v mod q_i.
func (r *Ring) centeredRows(v []int64) func(row []uint64, i int) {
	var maxAbs uint64
	for _, x := range v {
		s := uint64(x >> 63)
		if a := (uint64(x) ^ s) - s; a > maxAbs {
			maxAbs = a
		}
	}
	return func(row []uint64, i int) {
		mod := r.Moduli[i]
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
	}
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
func (s *Stream) TernaryVector(n, h int) []int64 {
	v := make([]int64, n)
	perm := s.rng.Perm(n)
	for k := 0; k < h && k < n; k++ {
		if s.rng.IntN(2) == 0 {
			v[perm[k]] = 1
		} else {
			v[perm[k]] = -1
		}
	}
	return v
}

// GaussianVector samples a length-n rounded-Gaussian vector with standard
// deviation sigma, truncated at 6 sigma.
func (s *Stream) GaussianVector(n int, sigma float64) []int64 {
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
