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

// polyPool recycles whole polynomials, one sync.Pool per limb count. Every
// evaluator op draws its scratch and its outputs from here: a polynomial of
// N×limbs uint64 per call is otherwise the dominant allocator, page-fault and
// GC cost of a bootstrap.
//
// Ownership rules: a borrowed Poly is exclusively the caller's until
// returned, and returning it is optional (an unreturned one is garbage like
// any other). Only return polynomials nothing else references (no Truncated
// view or Coeffs row may outlive the Put). Double-Put is a caller bug and
// corrupts the pool.
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
	p := r.NewPoly(level)
	if r.pool.poison {
		p.poison()
	}
	return p
}

// PutPoly returns a polynomial to the pool. Only a whole polynomial of this
// ring's degree is pooled — one built by NewPoly, CopyNew or GetPoly. A
// Truncated view shares its rows with the polynomial it was cut from and an
// unmarshalled value was not allocated here; both are dropped.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || !p.whole || len(p.Coeffs) == 0 || len(p.Coeffs[0]) != r.N {
		return
	}
	poolPuts.Inc()
	if r.pool.poison {
		p.poison()
	}
	r.pool.pool(len(p.Coeffs)).Put(p)
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
