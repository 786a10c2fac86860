package ring

import (
	"sync"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Pool traffic counters: the hit rate is the direct measure of how much GC
// pressure the buffer pool is absorbing on the evaluator hot paths, and the
// miss bytes are what filling it cost.
var (
	poolHits      = obs.Default.Counter(`ring_pool_gets_total{result="hit"}`)
	poolMisses    = obs.Default.Counter(`ring_pool_gets_total{result="miss"}`)
	poolPuts      = obs.Default.Counter("ring_pool_puts_total")
	poolMissBytes = obs.Default.Counter("ring_pool_miss_bytes_total")
)

// polyPool recycles whole polynomials, filed by capacity (the limbs of their
// backing), one sync.Pool per capacity. Every evaluator op draws its scratch
// and its outputs from here: a polynomial of N×limbs uint64 per call is
// otherwise the dominant allocator, page-fault and GC cost of a bootstrap.
// A borrow takes the smallest pooled capacity that fits, so a ciphertext
// walking down the modulus chain reuses the rows it freed higher up instead
// of filling one pool per level.
//
// Ownership rules: a borrowed Poly is exclusively the caller's until
// returned, and returning it is optional (an unreturned one is garbage like
// any other). Only return polynomials nothing else references (no Truncated
// view or Coeffs row may outlive the Put). Double-Put is a caller bug and
// corrupts the pool.
type polyPool struct {
	mu     sync.Mutex
	pools  []*sync.Pool // index = capacity-1
	poison bool         // see PoisonPool
}

// from returns the pools of every capacity ≥ limbs, smallest first. The
// slice only grows and its entries never change, so the caller may scan it
// without the lock.
func (pp *polyPool) from(limbs int) []*sync.Pool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for len(pp.pools) < limbs {
		pp.pools = append(pp.pools, &sync.Pool{})
	}
	return pp.pools[limbs-1:]
}

// GetPoly borrows a coefficient-flagged polynomial with level+1 limbs from
// the ring's buffer pool: the smallest pooled polynomial of at least that
// many limbs, cut to level+1 rows, or on a miss a fresh one of exactly that
// size. Its rows hold UNSPECIFIED values — whatever the last borrower left —
// so the caller must write every row before reading it. Hand it back via
// PutPoly when done.
func (r *Ring) GetPoly(level int) *Poly {
	limbs := level + 1
	for _, sp := range r.pool.from(limbs) {
		if v := sp.Get(); v != nil {
			poolHits.Inc()
			p := v.(*Poly)
			p.Coeffs = p.rows[:limbs:limbs]
			p.IsNTT = false
			return p
		}
	}
	poolMisses.Inc()
	poolMissBytes.Add(float64(limbs * r.N * 8))
	p := r.NewPoly(level)
	if r.pool.poison {
		p.poison()
	}
	return p
}

// PutPoly returns a polynomial to the pool at its full capacity. Only a
// polynomial that owns its backing and has this ring's degree is pooled — one
// built by NewPoly, CopyNew or GetPoly. A Truncated view shares its rows with
// the polynomial it was cut from and an unmarshalled value was not allocated
// here; both are dropped.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || p.rows == nil || len(p.rows[0]) != r.N {
		return
	}
	poolPuts.Inc()
	p.Coeffs = p.rows
	if r.pool.poison {
		p.poison()
	}
	r.pool.from(len(p.rows))[0].Put(p)
}

// PoisonPool makes every later GetPoly hand out rows holding an out-of-range
// pattern (PutPoly overwrites what it takes back, a pool miss what it
// allocates). A recycled polynomial otherwise tends to come back holding the
// very values the same op is about to compute, and a fresh one zeros, which
// hides a borrower that reads a row before writing it — or a caller still
// reading a value it released; tests call this (before any concurrent use of
// the ring) so that such a read corrupts the result.
func (r *Ring) PoisonPool() { r.pool.poison = true }

func (p *Poly) poison() {
	for _, row := range p.Coeffs {
		for j := range row {
			row[j] = ^uint64(0)
		}
	}
}
