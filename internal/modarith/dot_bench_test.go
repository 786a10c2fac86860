package modarith

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGadgetDot times the key switch's inner product Σ_d digit_d ⊙ evk_d
// at the benchmark's two shapes: N=2^12 with k=9 (boot_n12) and N=2^16 with
// k=4 (hks_n16), on a 55-bit modulus and, in the -q50 rows, on a 50-bit one,
// below narrowModulus, as boot_n12's and hks_n16's narrow primes are. The k
// digit rows are reused across output rows, as a limb's digits are by its two
// accumulators; the key's b rows are all distinct and cover at least 64 MB, so
// they stream from DRAM the way switching keys do, each read once per pass.
// dot is one output row (one call of the one-output dot kernel, one
// reduction per output).
// dot-pair and keydot are the two rows a key switch's B and A accumulators
// take, as two dots and as one VecDotKeyLazy, walked UniformTile words at a
// time as the key switch walks them: the B dot reads the tile of the b rows,
// the A dot one L1-resident tile per term, where the key switch expands the
// seeded A half. ns/op is per output row for dot and per pair of output rows
// for dot-pair and keydot. Every row runs once per kernel table (go/…,
// avx512/…, avx512-noifma/…).
func BenchmarkGadgetDot(b *testing.B) { forEachTable(b, benchGadgetDot) }

func benchGadgetDot(b *testing.B, tbl Kernels) {
	const keyBytes = 64 << 20
	for _, sh := range []struct{ logN, k, bits int }{{12, 9, 55}, {16, 4, 55}, {12, 9, 50}, {16, 4, 50}} {
		n := 1 << sh.logN
		ps, err := GenerateNTTPrimes(sh.bits, sh.logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		m, dot := on(MustModulus(ps[0]), tbl), dotOf(tbl.table())
		rng := rand.New(rand.NewSource(int64(sh.logN)))
		uniform := func(bound uint64, words int) []uint64 {
			row := make([]uint64, words)
			for j := range row {
				row[j] = rng.Uint64() % bound
			}
			return row
		}
		digits := make([][]uint64, sh.k)
		for d := range digits {
			digits[d] = uniform(m.TwoQ, n)
		}
		outputs := (keyBytes + sh.k*n*8 - 1) / (sh.k * n * 8)
		keys := make([][][]uint64, outputs)
		flat := uniform(m.Q, outputs*sh.k*n)
		for o := range keys {
			keys[o] = make([][]uint64, sh.k)
			for d := range keys[o] {
				keys[o][d], flat = flat[:n:n], flat[n:]
			}
		}
		// One expanded A tile per term, as the key switch's scratch holds it.
		tiles := make([][]uint64, sh.k)
		for d := range tiles {
			tiles[d] = uniform(m.Q, UniformTile)
		}
		out, outA := make([]uint64, n), make([]uint64, n)
		name := fmt.Sprintf("n%d-k%d", sh.logN, sh.k)
		if sh.bits != 55 {
			name += fmt.Sprintf("-q%d", sh.bits)
		}
		b.Run(name+"/dot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dot(m, out, digits, keys[i%outputs], false)
			}
		})
		ra, rb := make([][]uint64, sh.k), make([][]uint64, sh.k)
		pair := func(b *testing.B, dots func(lo, hi int)) {
			for i := 0; i < b.N; i++ {
				key := keys[i%outputs]
				for lo := 0; lo < n; lo += UniformTile {
					hi := min(lo+UniformTile, n)
					for d := range ra {
						ra[d], rb[d] = digits[d][lo:hi], key[d][lo:hi]
					}
					dots(lo, hi)
				}
			}
		}
		b.Run(name+"/dot-pair", func(b *testing.B) {
			pair(b, func(lo, hi int) {
				dot(m, out[lo:hi], ra, rb, false)
				dot(m, outA[lo:hi], ra, tiles, false)
			})
		})
		b.Run(name+"/keydot", func(b *testing.B) {
			pair(b, func(lo, hi int) {
				m.VecDotKeyLazy(out[lo:hi], outA[lo:hi], ra, rb, tiles, false, false)
			})
		})
	}
}
