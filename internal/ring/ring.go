// Package ring implements arithmetic over the cyclotomic quotient rings
// R_Q = Z_Q[X]/(X^N+1) in RNS (residue number system) representation: a
// polynomial with L+1 limbs is stored as an (L+1)×N matrix of uint64
// residues, one row per prime of the basis (§II-A of the Anaheim paper).
//
// The package provides limb-wise ring operations, forward/inverse NTT across
// limbs, Galois automorphisms as NTT-domain slot permutations, and the
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

	// width is the pool width a Pipeline.Run over the ring spreads its
	// limbs across.
	width int

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
// must all satisfy q ≡ 1 (mod 2N). Its moduli run the host's kernel table
// (modarith.NewModulus) and its pipelines the pool width GOMAXPROCS has now.
func NewRing(logN int, primes []uint64) (*Ring, error) {
	return newRing(logN, primes, modarith.Kernels{}, par.Workers())
}

// NewRingAt is NewRing on kernel table k at pool width width: the ring a
// test sweeps tables and widths with, side by side in one process.
// Production rings come from NewRing (CI's lint keeps it out of non-test
// code).
func NewRingAt(logN int, primes []uint64, k modarith.Kernels, width int) (*Ring, error) {
	return newRing(logN, primes, k, width)
}

func newRing(logN int, primes []uint64, k modarith.Kernels, width int) (*Ring, error) {
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	r := &Ring{
		N:      1 << uint(logN),
		LogN:   logN,
		Moduli: make([]modarith.Modulus, len(primes)),
		Tables: make([]*ntt.Tables, len(primes)),
		width:  width,
	}
	r.autoSnap.Store(&autoTables{perm: map[uint64]*modarith.BlockPerm{}, gal: map[int]uint64{}})
	for i, q := range primes {
		mod, err := k.NewModulus(q)
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
