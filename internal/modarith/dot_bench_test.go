package modarith

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGadgetDot times one output row of the key switch's inner product
// Σ_d digit_d ⊙ evk_d as one VecDotLazy call (one reduction per output) at
// the benchmark's two shapes: N=2^12 with k=9 (boot_n12) and N=2^16 with k=4
// (hks_n16). The k digit rows are reused across output rows, as a limb's
// digits are by its two accumulators; the key rows are all distinct and cover
// at least 64 MB, so they stream from DRAM the way switching keys do. ns/op
// is per output row, except for dot-pair and keydot: the two rows a key
// switch's B and A accumulators take, as two dots and as one VecDotKeyLazy.
// Every row runs once per available tier (go/…, avx512/…).
func BenchmarkGadgetDot(b *testing.B) { forEachTier(b, benchGadgetDot) }

func benchGadgetDot(b *testing.B) {
	const keyBytes = 64 << 20
	for _, sh := range []struct{ logN, k int }{{12, 9}, {16, 4}} {
		n := 1 << sh.logN
		ps, err := GenerateNTTPrimes(55, sh.logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := MustModulus(ps[0])
		rng := rand.New(rand.NewSource(int64(sh.logN)))
		digits := make([][]uint64, sh.k)
		for d := range digits {
			digits[d] = make([]uint64, n)
			for j := range digits[d] {
				digits[d][j] = rng.Uint64() % m.TwoQ
			}
		}
		outputs := (keyBytes + sh.k*n*8 - 1) / (sh.k * n * 8)
		keys := make([][][]uint64, outputs)
		flat := make([]uint64, outputs*sh.k*n)
		for j := range flat {
			flat[j] = rng.Uint64() % m.Q
		}
		for o := range keys {
			keys[o] = make([][]uint64, sh.k)
			for d := range keys[o] {
				keys[o][d], flat = flat[:n:n], flat[n:]
			}
		}
		out := make([]uint64, n)
		name := fmt.Sprintf("n%d-k%d", sh.logN, sh.k)
		b.Run(name+"/dot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.VecDotLazy(out, digits, keys[i%outputs], false)
			}
		})
		// Both accumulators of a key switch, B and A: two dots, then the
		// one pass that loads each digit word once for both. ns/op is per
		// pair of output rows.
		outA := make([]uint64, n)
		b.Run(name+"/dot-pair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.VecDotLazy(out, digits, keys[i%outputs], false)
				m.VecDotLazy(outA, digits, keys[(i+1)%outputs], false)
			}
		})
		b.Run(name+"/keydot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.VecDotKeyLazy(out, outA, digits, keys[i%outputs], keys[(i+1)%outputs], false, false)
			}
		})
	}
}
