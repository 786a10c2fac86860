package ring

import (
	"math/bits"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// Galois automorphisms σ_g: X -> X^g for odd g mod 2N. In CKKS, the rotation
// of the slot vector by r positions corresponds to g = 5^r mod 2N, and
// complex conjugation to g = 2N-1 (§II-B "automorphism").

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
// slot rotation by r (r may be negative), by square-and-multiply: O(log r),
// as cheap as a cache lookup would be.
func (r *Ring) GaloisElement(rot int) uint64 {
	n2 := r.N >> 1 // slot count; rotations are cyclic mod N/2
	rot = ((rot % n2) + n2) % n2
	return modExp(5, uint64(rot), uint64(2*r.N))
}

// GaloisElementConjugate returns the Galois element for complex conjugation.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N) - 1 }

// autoPerm returns (building and caching on first use) the NTT-domain
// permutation for σ_g (autoBlockPerm): N/8 uint32 entries and one 512-byte
// lane table. The cache is an immutable map behind one atomic pointer:
// readers never take a lock, and a writer (cold path, first use of g) copies
// it under autoMu and publishes the copy, so hot rotate paths never contend.
func (r *Ring) autoPerm(g uint64) *modarith.BlockPerm {
	if p, ok := (*r.autoSnap.Load())[g]; ok {
		return p
	}
	p := autoBlockPerm(r.LogN, g)

	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	cur := *r.autoSnap.Load()
	if old, ok := cur[g]; ok {
		return old
	}
	next := make(map[uint64]*modarith.BlockPerm, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[g] = p
	r.autoSnap.Store(&next)
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
