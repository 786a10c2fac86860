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
	rev := make([]uint64, 1<<logN)
	for i := range rev {
		rev[i] = brv(uint64(i), logN)
	}
	return autoIndex(make([]uint32, len(rev)), rev, g)
}

// autoIndex writes nttAutoIndex(logN, g) to idx, of 2^logN slots, through
// rev, the bit reversal of every slot over logN bits.
func autoIndex(idx []uint32, rev []uint64, g uint64) []uint32 {
	mask := uint64(2*len(idx) - 1)
	for i := range idx {
		src := (g * (2*rev[i] + 1)) & mask
		idx[i] = uint32(rev[(src-1)>>1])
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
	// sweep checks σ_g at logN for every g of gs on one set of rows, with a
	// lane shuffle packed 4 bits a lane.
	sweep := func(t *testing.T, logN int, gs []uint64) {
		n := 1 << logN
		lanes := uint32(min(n, 8))
		rev, iota, got, want := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint32, n)
		for i := range iota {
			iota[i], rev[i] = uint64(i), brv(uint64(i), logN)
		}
		shuffles := make(map[uint32]bool, 9)
		for _, g := range gs {
			autoIndex(want, rev, g)
			clear(shuffles)
			for j := 0; j < n; j += int(lanes) {
				var lane uint32
				for l, k := range want[j : j+int(lanes)] {
					if k/lanes != want[j]/lanes {
						t.Fatalf("logN %d g %d: block %d reads slots %d and %d of two blocks", logN, g, j/int(lanes), want[j], k)
					}
					lane |= k % lanes << (4 * l)
				}
				shuffles[lane] = true
			}
			if len(shuffles) > 8 {
				t.Fatalf("logN %d g %d: %d lane shuffles", logN, g, len(shuffles))
			}
			modarith.MustModulus(97).VecPermute(got, iota, autoBlockPerm(logN, g))
			for i, k := range want {
				if got[i] != uint64(k) {
					t.Fatalf("logN %d g %d: block permutation sends slot %d to %d, scalar %d", logN, g, i, got[i], k)
				}
			}
		}
	}
	for logN := 1; logN <= 13; logN++ {
		var gs []uint64
		for g := uint64(1); g < 2<<logN; g += 2 {
			gs = append(gs, g)
		}
		for h, half := range [][]uint64{gs[:len(gs)/2], gs[len(gs)/2:]} {
			t.Run(fmt.Sprintf("logN=%d/half=%d", logN, h), func(t *testing.T) {
				t.Parallel()
				sweep(t, logN, half)
			})
		}
	}
	t.Run("logN=16-17", func(t *testing.T) {
		t.Parallel()
		for _, logN := range []int{16, 17} {
			twoN := uint64(2) << logN
			gs := []uint64{twoN - 1}
			for rot := uint64(1); rot <= 64; rot++ {
				gs = append(gs, modExp(5, rot, twoN))
			}
			sweep(t, logN, gs)
		}
	})
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
