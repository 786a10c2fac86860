// Package ring implements arithmetic over the cyclotomic quotient rings
// R_Q = Z_Q[X]/(X^N+1) in RNS (residue number system) representation: a
// polynomial with L+1 limbs is stored as an (L+1)×N matrix of uint64
// residues, one row per prime of the basis (§II-A of the Anaheim paper).
//
// The package provides limb-wise ring operations, forward/inverse NTT across
// limbs, Galois automorphisms in both coefficient and NTT domains, and the
// random samplers (uniform, ternary with fixed Hamming weight, discrete
// Gaussian) needed by RLWE-based schemes.
package ring

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
	"github.com/anaheim-sim/anaheim/internal/par"
)

// Ring is an RNS cyclotomic ring: degree N = 2^LogN with a chain of NTT-
// friendly prime moduli. Operations take a level argument selecting how many
// limbs (level+1) participate, supporting CKKS modulus switching.
type Ring struct {
	N      int
	LogN   int
	Moduli []modarith.Modulus
	Tables []*ntt.Tables

	autoMu   sync.Mutex                 // serializes autoSnap writers (cold path only)
	autoSnap atomic.Pointer[autoTables] // automorphism caches; lock-free reads

	// pool recycles Poly scratch buffers by capacity (see pool.go).
	pool polyPool

	// Limb-transform counters (atomic), used to cross-validate the
	// simulator's kernel traces against the functional library's actual
	// operation counts.
	nttLimbs, inttLimbs atomic.Int64
}

// ResetCounters zeroes the limb-transform counters.
func (r *Ring) ResetCounters() {
	r.nttLimbs.Store(0)
	r.inttLimbs.Store(0)
}

// Counters returns the forward/inverse limb-transform counts since the last
// reset.
func (r *Ring) Counters() (ntt, intt int64) {
	return r.nttLimbs.Load(), r.inttLimbs.Load()
}

// NewRing constructs a ring of degree 2^logN over the given primes, which
// must all satisfy q ≡ 1 (mod 2N).
func NewRing(logN int, primes []uint64) (*Ring, error) {
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	r := &Ring{
		N:      1 << uint(logN),
		LogN:   logN,
		Moduli: make([]modarith.Modulus, len(primes)),
		Tables: make([]*ntt.Tables, len(primes)),
	}
	r.autoSnap.Store(&autoTables{perm: map[uint64][]uint32{}, gal: map[int]uint64{}})
	for i, q := range primes {
		mod, err := modarith.NewModulus(q)
		if err != nil {
			return nil, fmt.Errorf("ring: prime %d: %w", i, err)
		}
		tbl, err := ntt.NewTables(mod, logN)
		if err != nil {
			return nil, fmt.Errorf("ring: prime %d: %w", i, err)
		}
		r.Moduli[i] = mod
		r.Tables[i] = tbl
	}
	return r, nil
}

// MaxLevel is the level of a polynomial using every prime of the chain.
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// Poly is an RNS polynomial. Coeffs[i][j] is coefficient j modulo the i-th
// prime. IsNTT records the current domain; operations that require a
// specific domain check it.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool

	// rows is every row of the one backing allocation the polynomial owns
	// (NewPoly, CopyNew), nil for a Truncated view or an unmarshalled value.
	// Only an owner is pooled, so a row can never be handed out twice. Coeffs
	// is a prefix of rows: the pool lends a larger backing cut to the limbs
	// asked for, and PutPoly files it whole again.
	rows [][]uint64
}

// NewPoly allocates a zero polynomial with level+1 limbs, backed by a single
// contiguous allocation.
func (r *Ring) NewPoly(level int) *Poly {
	limbs := level + 1
	backing := make([]uint64, limbs*r.N)
	p := &Poly{Coeffs: make([][]uint64, limbs)}
	for i := 0; i < limbs; i++ {
		p.Coeffs[i], backing = backing[:r.N], backing[r.N:]
	}
	p.rows = p.Coeffs
	return p
}

// Level returns the polynomial's level (number of limbs minus one).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// Capacity returns the number of limbs of storage the polynomial keeps alive:
// its backing's, which for a borrow served from a larger pooled polynomial
// exceeds Level()+1. A view counts its own limbs.
func (p *Poly) Capacity() int {
	if p.rows != nil {
		return len(p.rows)
	}
	return len(p.Coeffs)
}

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	q := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	backing := make([]uint64, len(p.Coeffs)*len(p.Coeffs[0]))
	for i := range p.Coeffs {
		q.Coeffs[i], backing = backing[:len(p.Coeffs[i])], backing[len(p.Coeffs[i]):]
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	q.rows = q.Coeffs
	return q
}

// Copy copies q into p (p must have at least as many limbs).
func (p *Poly) Copy(q *Poly) {
	for i := range q.Coeffs {
		copy(p.Coeffs[i], q.Coeffs[i])
	}
	p.IsNTT = q.IsNTT
}

// Truncated returns a view of p restricted to level+1 limbs (shares backing
// storage with p).
func (p *Poly) Truncated(level int) *Poly {
	return &Poly{Coeffs: p.Coeffs[:level+1], IsNTT: p.IsNTT}
}

// Equal reports deep equality of coefficients and domain up to the smaller
// of the two levels.
func (p *Poly) Equal(q *Poly) bool {
	if p.IsNTT != q.IsNTT || len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// parallelLimbThreshold is the limb count above which per-limb work is
// spread over the shared worker pool (internal/par). Limbs are independent
// (RNS), so this is safe; below the threshold the synchronization overhead
// dominates.
const parallelLimbThreshold = 8

// forEachLimb runs f over limbs 0..level, on the shared worker pool when
// worthwhile. Workers get contiguous limb ranges (par.ForEachChunk): the
// limb rows of a Poly share one backing array, so a contiguous split keeps
// each worker streaming sequential memory instead of striding across it.
func forEachLimb(level int, f func(i int)) {
	limbs := level + 1
	if limbs < parallelLimbThreshold || par.Workers() < 2 {
		for i := 0; i < limbs; i++ {
			f(i)
		}
		return
	}
	par.ForEachChunk(limbs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// NTT transforms p in place to the NTT domain (all limbs up to level).
func (r *Ring) NTT(p *Poly, level int) {
	if p.IsNTT {
		panic("ring: NTT on a polynomial already in NTT form")
	}
	ntt.ForwardMany(r.Tables[:level+1], p.Coeffs[:level+1])
	r.nttLimbs.Add(int64(level + 1))
	accountRows(bytesTransform, 2, level+1, r.N)
	p.IsNTT = true
}

// INTT transforms p in place back to the coefficient domain.
func (r *Ring) INTT(p *Poly, level int) {
	if !p.IsNTT {
		panic("ring: INTT on a polynomial already in coefficient form")
	}
	ntt.InverseMany(r.Tables[:level+1], p.Coeffs[:level+1])
	r.inttLimbs.Add(int64(level + 1))
	accountRows(bytesTransform, 2, level+1, r.N)
	p.IsNTT = false
}

// INTTLimb inverse-transforms one row of limb i in place, for the callers
// that need a single limb out of the NTT domain (Rescale's dropped prime).
func (r *Ring) INTTLimb(row []uint64, i int) {
	r.Tables[i].Inverse(row)
	r.inttLimbs.Add(1)
	accountRows(bytesTransform, 2, 1, r.N)
}

// NTTLazy is NTT with lazy outputs: coefficients land in [0, 2q) instead of
// [0, q), skipping the transform's exit reduction. Use it when the result
// feeds a lazy-tolerant chain (the fused gadget-product MACs); end the chain
// with ReduceLazy before any exact kernel sees the polynomial. Counts toward
// the same limb-transform counters as NTT.
func (r *Ring) NTTLazy(p *Poly, level int) {
	if p.IsNTT {
		panic("ring: NTTLazy on a polynomial already in NTT form")
	}
	ntt.ForwardManyLazy(r.Tables[:level+1], p.Coeffs[:level+1])
	r.nttLimbs.Add(int64(level + 1))
	accountRows(bytesTransform, 2, level+1, r.N)
	p.IsNTT = true
}

// INTTLazy is INTT with lazy [0, 2q) outputs (inputs may also be lazy).
func (r *Ring) INTTLazy(p *Poly, level int) {
	if !p.IsNTT {
		panic("ring: INTTLazy on a polynomial already in coefficient form")
	}
	ntt.InverseManyLazy(r.Tables[:level+1], p.Coeffs[:level+1])
	r.inttLimbs.Add(int64(level + 1))
	accountRows(bytesTransform, 2, level+1, r.N)
	p.IsNTT = false
}
