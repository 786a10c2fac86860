package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// nttAutoIndex is σ_g's NTT-domain permutation of a 2^logN-slot row as a
// scalar index, one source slot per output slot: the oracle autoBlockPerm is
// held to.
func nttAutoIndex(logN int, g uint64) []uint32 {
	n := uint64(1) << logN
	idx := make([]uint32, n)
	for i := range idx {
		src := (g * (2*brv(uint64(i), logN) + 1)) & (2*n - 1)
		idx[i] = uint32(brv((src-1)>>1, logN))
	}
	return idx
}

// TestAutomorphismBlocks checks the block identity the automorphism kernels
// rest on, for every odd g at logN 1–13 and for rotations 1…64 and the
// conjugation at logN 16 and 17: every aligned 8-slot block of σ_g's scalar
// permutation reads one aligned 8-slot block, the blocks use at most 8 lane
// shuffles, and the BlockPerm, applied to the row 0, 1, …, N−1, expands
// back to the scalar permutation.
func TestAutomorphismBlocks(t *testing.T) {
	check := func(logN int, g uint64) {
		want := nttAutoIndex(logN, g)
		n := len(want)
		lanes := min(n, 8)
		shuffles := map[[8]uint32]bool{}
		for j := 0; j < n; j += lanes {
			var lane [8]uint32
			for l := 0; l < lanes; l++ {
				if want[j+l]/uint32(lanes) != want[j]/uint32(lanes) {
					t.Fatalf("logN %d g %d: block %d reads slots %d and %d of two blocks", logN, g, j/lanes, want[j], want[j+l])
				}
				lane[l] = want[j+l] % uint32(lanes)
			}
			shuffles[lane] = true
		}
		if len(shuffles) > 8 {
			t.Fatalf("logN %d g %d: %d lane shuffles", logN, g, len(shuffles))
		}
		iota, got := make([]uint64, n), make([]uint64, n)
		for i := range iota {
			iota[i] = uint64(i)
		}
		modarith.MustModulus(97).VecPermute(got, iota, autoBlockPerm(logN, g))
		for i, k := range want {
			if got[i] != uint64(k) {
				t.Fatalf("logN %d g %d: block permutation sends slot %d to %d, scalar %d", logN, g, i, got[i], k)
			}
		}
	}
	for logN := 1; logN <= 13; logN++ {
		for g := uint64(1); g < 2<<logN; g += 2 {
			check(logN, g)
		}
	}
	for _, logN := range []int{16, 17} {
		twoN := uint64(2) << logN
		for rot := uint64(1); rot <= 64; rot++ {
			check(logN, modExp(5, rot, twoN))
		}
		check(logN, twoN-1)
	}
}

// BenchmarkAutomorphism times one limb row of σ_5 (a rotation by one slot)
// at logN 12 and 16 on every kernel table: `row` permutes it alone
// (AutomorphismNTT's stage), `mac` is the sweep's fused baby-step MAC
// (AutMulAccWide's stage), reported per multiply-accumulate.
func BenchmarkAutomorphism(b *testing.B) {
	for _, table := range modarith.KernelTables() {
		// The permutations do no modular arithmetic: the modulus only picks
		// the table.
		m, err := table.NewModulus(97)
		if err != nil {
			b.Fatal(err)
		}
		for _, logN := range []int{12, 16} {
			n := 1 << logN
			p := autoBlockPerm(logN, modExp(5, 1, uint64(2*n)))
			rng := rand.New(rand.NewSource(int64(logN)))
			a, w, hi, lo := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for j := range a {
				a[j], w[j] = rng.Uint64()>>4, rng.Uint64()>>4
			}
			b.Run(fmt.Sprintf("%s/row/n%d", table, logN), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.VecPermute(lo, a, p)
				}
			})
			b.Run(fmt.Sprintf("%s/mac/n%d", table, logN), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.VecMulAccWidePerm(hi, lo, a, w, p)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/MAC")
			})
		}
	}
}
