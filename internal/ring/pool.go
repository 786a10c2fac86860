package ring

import (
	"sync"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Pool traffic counters: the hit rate is the direct measure of how much GC
// pressure the buffer pool is absorbing on the evaluator hot paths.
var (
	poolHits   = obs.Default.Counter(`ring_pool_gets_total{result="hit"}`)
	poolMisses = obs.Default.Counter(`ring_pool_gets_total{result="miss"}`)
	poolPuts   = obs.Default.Counter("ring_pool_puts_total")
)

// polyPool recycles Poly scratch buffers, one sync.Pool per limb count.
// Evaluator hot paths (Rescale, ModDown, Decompose) allocate and discard a
// polynomial of N×limbs uint64 per call; at serving throughput that is the
// dominant GC pressure, so they borrow from here instead.
//
// Ownership rules: a borrowed Poly is exclusively the caller's until
// returned. Only return polynomials whose backing storage has not escaped
// (no Truncated view or Coeffs row may outlive the Put). Double-Put is a
// caller bug and corrupts the pool.
type polyPool struct {
	mu     sync.Mutex
	pools  []*sync.Pool // index = limbs-1
	poison bool         // see PoisonPool
}

func (pp *polyPool) pool(limbs int) *sync.Pool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for len(pp.pools) < limbs {
		pp.pools = append(pp.pools, &sync.Pool{})
	}
	return pp.pools[limbs-1]
}

// GetPoly borrows a coefficient-flagged polynomial with level+1 limbs from
// the ring's buffer pool. Its rows hold UNSPECIFIED values — whatever the last
// borrower left — so the caller must write every row before reading it.
// Hand it back via PutPoly when done.
func (r *Ring) GetPoly(level int) *Poly {
	limbs := level + 1
	if v := r.pool.pool(limbs).Get(); v != nil {
		poolHits.Inc()
		p := v.(*Poly)
		p.IsNTT = false
		return p
	}
	poolMisses.Inc()
	return r.NewPoly(level)
}

// PutPoly returns a borrowed polynomial to the pool. Polynomials of foreign
// shape (wrong N, truncated views) are dropped rather than pooled.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || len(p.Coeffs) == 0 || len(p.Coeffs[0]) != r.N {
		return
	}
	poolPuts.Inc()
	if r.pool.poison {
		for _, row := range p.Coeffs {
			for j := range row {
				row[j] = ^uint64(0)
			}
		}
	}
	r.pool.pool(len(p.Coeffs)).Put(p)
}

// PoisonPool makes every later PutPoly overwrite the returned rows with an
// out-of-range pattern. A recycled polynomial otherwise tends to come back
// holding the very values the same op is about to compute, which hides a
// borrower that reads a row before writing it; tests call this (before any
// concurrent use of the ring) so that such a read corrupts the result.
func (r *Ring) PoisonPool() { r.pool.poison = true }
