package ring

import (
	"math/bits"
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
	perm map[uint64][]uint32 // galois element -> NTT-domain permutation
	gal  map[int]uint64      // canonical rotation -> 5^r mod 2N
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

// AutomorphismCoeff applies σ_g to a coefficient-domain polynomial:
// coefficient j of the input lands at position g*j mod 2N, negated when the
// exponent wraps past N.
func (r *Ring) AutomorphismCoeff(out, in *Poly, g uint64, level int) {
	if in.IsNTT {
		panic("ring: AutomorphismCoeff requires coefficient domain")
	}
	if out == in {
		panic("ring: AutomorphismCoeff cannot operate in place")
	}
	n := uint64(r.N)
	mask := 2*n - 1
	for i := 0; i <= level; i++ {
		mod := r.Moduli[i]
		src, dst := in.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			k := (j * g) & mask
			if k < n {
				dst[k] = src[j]
			} else {
				dst[k-n] = mod.Neg(src[j])
			}
		}
	}
	out.IsNTT = false
	accountRows(bytesAut, 2, level+1, r.N)
}

// nttAutoIndex returns (building and caching on first use) the NTT-domain
// permutation for σ_g: with the bit-reversed evaluation order, output slot i
// holds the value at root exponent e_i = 2·brv(i)+1, and σ_g moves the value
// from exponent g·e_i. Entries are uint32 (valid for N ≤ 2^31), halving the
// table's cache footprint; lookups are lock-free snapshot reads.
func (r *Ring) nttAutoIndex(g uint64) []uint32 {
	if t := r.autoSnap.Load(); t != nil {
		if idx, ok := t.perm[g]; ok {
			return idx
		}
	}
	n := uint64(r.N)
	logN := r.LogN
	mask := 2*n - 1
	idx := make([]uint32, n)
	for i := uint64(0); i < n; i++ {
		e := 2*brv(i, logN) + 1
		src := (g * e) & mask
		idx[i] = uint32(brv((src-1)>>1, logN))
	}

	r.autoMu.Lock()
	defer r.autoMu.Unlock()
	cur := r.autoSnap.Load()
	if old, ok := cur.perm[g]; ok {
		return old
	}
	next := &autoTables{perm: make(map[uint64][]uint32, len(cur.perm)+1), gal: cur.gal}
	for k, v := range cur.perm {
		next.perm[k] = v
	}
	next.perm[g] = idx
	r.autoSnap.Store(next)
	return idx
}

func brv(x uint64, n int) uint64 { return bits.Reverse64(x) >> uint(64-n) }

// AutomorphismNTT applies σ_g to an NTT-domain polynomial via slot
// permutation (no arithmetic).
func (r *Ring) AutomorphismNTT(out, in *Poly, g uint64, level int) {
	if !in.IsNTT {
		panic("ring: AutomorphismNTT requires NTT domain")
	}
	if out == in {
		panic("ring: AutomorphismNTT cannot operate in place")
	}
	idx := r.nttAutoIndex(g)
	for i := 0; i <= level; i++ {
		src, dst := in.Coeffs[i], out.Coeffs[i]
		for j, k := range idx {
			dst[j] = src[k]
		}
	}
	out.IsNTT = true
	accountRows(bytesAut, 2, level+1, r.N)
}
