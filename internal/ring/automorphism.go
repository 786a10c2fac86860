package ring

import (
	"math/bits"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// Galois automorphisms σ_g: X -> X^g for odd g mod 2N. In CKKS, the rotation
// of the slot vector by r positions corresponds to g = 5^r mod 2N, and
// complex conjugation to g = 2N-1 (§II-B "automorphism").

// autoTables is the immutable snapshot holding both automorphism caches: the
// NTT-domain permutation per Galois element and the Galois element per
// rotation. Readers load it with one atomic pointer load and never take a
// lock; writers (cold path, first use of a rotation) copy-on-write under
// autoMu and publish a new snapshot, so hot rotate paths never contend.
type autoTables struct {
	perm map[uint64]*modarith.BlockPerm // galois element -> NTT-domain permutation
	gal  map[int]uint64                 // canonical rotation -> 5^r mod 2N
}

// modExp computes b^e mod m by square-and-multiply. All operands stay below
// 2N < 2^32, so the intermediate products fit in uint64.
func modExp(b, e, m uint64) uint64 {
	g := uint64(1) % m
	b %= m
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			g = g * b % m
		}
		b = b * b % m
	}
	return g
}

// GaloisElement returns the Galois element 5^r mod 2N realizing a cyclic
// slot rotation by r (r may be negative). The exponentiation is
// square-and-multiply — O(log r), not O(r) — and the result is cached per
// canonical rotation, so steady-state calls are a map lookup on a lock-free
// snapshot.
func (r *Ring) GaloisElement(rot int) uint64 {
	n2 := r.N >> 1 // slot count; rotations are cyclic mod N/2
	rot = ((rot % n2) + n2) % n2
	if t := r.autoSnap.Load(); t != nil {
		if g, ok := t.gal[rot]; ok {
			return g
		}
	}
	g := modExp(5, uint64(rot), uint64(2*r.N))

	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	cur := r.autoSnap.Load()
	if old, ok := cur.gal[rot]; ok {
		return old
	}
	next := &autoTables{perm: cur.perm, gal: make(map[int]uint64, len(cur.gal)+1)}
	for k, v := range cur.gal {
		next.gal[k] = v
	}
	next.gal[rot] = g
	r.autoSnap.Store(next)
	return g
}

// galoisElementLoop is the retired O(r) multiply-loop form, kept as the
// differential oracle for GaloisElement.
func (r *Ring) galoisElementLoop(rot int) uint64 {
	twoN := uint64(2 * r.N)
	n2 := r.N >> 1
	rot = ((rot % n2) + n2) % n2
	g := uint64(1)
	base := uint64(5)
	for k := 0; k < rot; k++ {
		g = g * base % twoN
	}
	return g
}

// GaloisElementConjugate returns the Galois element for complex conjugation.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N) - 1 }

// autoPerm returns (building and caching on first use) the NTT-domain
// permutation for σ_g (autoBlockPerm): N/8 uint32 entries and one 512-byte
// lane table. Lookups are lock-free snapshot reads.
func (r *Ring) autoPerm(g uint64) *modarith.BlockPerm {
	if t := r.autoSnap.Load(); t != nil {
		if p, ok := t.perm[g]; ok {
			return p
		}
	}
	p := autoBlockPerm(r.LogN, g)

	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	cur := r.autoSnap.Load()
	if old, ok := cur.perm[g]; ok {
		return old
	}
	next := &autoTables{perm: make(map[uint64]*modarith.BlockPerm, len(cur.perm)+1), gal: cur.gal}
	for k, v := range cur.perm {
		next.perm[k] = v
	}
	next.perm[g] = p
	r.autoSnap.Store(next)
	return p
}

// autoBlockPerm returns σ_g's permutation of a bit-reversed NTT row of
// 2^logN words: output slot i holds the value at root exponent
// e_i = 2·brv(i)+1, and σ_g moves there the value from exponent g·e_i. It
// is a block permutation (DESIGN.md §3.8.1): every aligned 8-slot block
// reads one aligned 8-slot block, through one of at most 8 lane shuffles,
// and modarith.NewBlockPerm panics were it not.
func autoBlockPerm(logN int, g uint64) *modarith.BlockPerm {
	mask := uint64(2)<<logN - 1
	return modarith.NewBlockPerm(1<<logN, func(i int) int {
		src := (g * (2*brv(uint64(i), logN) + 1)) & mask
		return int(brv((src-1)>>1, logN))
	})
}

func brv(x uint64, n int) uint64 { return bits.Reverse64(x) >> uint(64-n) }

// AutomorphismNTT applies σ_g to an NTT-domain polynomial via slot
// permutation (no arithmetic). out must not alias in.
func (r *Ring) AutomorphismNTT(out, in *Poly, g uint64, level int) {
	r.run(level, func(ln *Lane) { ln.AutomorphismNTT(out, in, g) })
}
