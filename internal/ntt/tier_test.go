package ntt

import (
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// TestTransformAcrossKernelTiers runs full forward/inverse transforms (all
// four laziness variants) on every kernel table the host runs, each on tables
// of its own moduli, and requires bit-identical outputs: the NTT is the heaviest consumer of the
// dispatched stage kernels, so a carry bug that survives the row-level
// sweeps still dies here, where thousands of butterflies compound. The grid
// is every size from logN 1 — below logN 4 no stage fills one 16-coefficient
// vector step, so the asm tiers must fall back to the reference and still
// match — across the modulus widths the library uses, on random lazy-domain
// inputs and on the saturated all-(2q-1) row.
//
// The "modarith kernel tier" log line below is asserted by CI (each matrix
// leg greps the test log for the tier it expects), so a misconfigured leg —
// e.g. an AVX-512 runner silently falling back to pure Go — fails loudly
// instead of green-washing the matrix.
func TestTransformAcrossKernelTiers(t *testing.T) {
	t.Logf("modarith kernel tier: active=%s tables=%v", modarith.ActiveTier(), modarith.KernelTables())
	t.Parallel()
	kernels := modarith.KernelTables()

	for _, bits := range []int{45, 50, 55, 61} {
		for _, logN := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16} {
			// The generator straddles 2^bits; take the first prime below it
			// (at 61 bits the ones above exceed the modulus range).
			primes, err := modarith.GenerateNTTPrimes(bits, logN, 8)
			if err != nil {
				t.Fatal(err)
			}
			var q uint64
			for _, p := range primes {
				if q == 0 && p>>uint(bits) == 0 {
					q = p
				}
			}
			tbls := make([]*Tables, len(kernels))
			for i, k := range kernels {
				m, err := k.NewModulus(q)
				if err != nil {
					t.Fatal(err)
				}
				if tbls[i], err = NewTables(m, logN); err != nil {
					t.Fatal(err)
				}
			}
			n := tbls[0].N
			random := make([]uint64, n)
			saturated := make([]uint64, n)
			for i := range random {
				random[i] = (uint64(i)*0x9e3779b97f4a7c15 + 12345) % (2 * q) // lazy domain
				saturated[i] = 2*q - 1
			}

			variants := []struct {
				name string
				run  func(tbl *Tables, a []uint64)
			}{
				{"fwd", (*Tables).Forward},
				{"fwdLazy", (*Tables).ForwardLazy},
				{"inv", (*Tables).Inverse},
				{"invLazy", (*Tables).inverseLazy},
				{"fwdLazy+invLazy", func(tbl *Tables, a []uint64) { tbl.ForwardLazy(a); tbl.inverseLazy(a) }},
			}
			for _, input := range [][]uint64{random, saturated} {
				for _, v := range variants {
					// Reference outputs on the pure-Go table, kernels[0].
					want := append([]uint64(nil), input...)
					v.run(tbls[0], want)

					for i, k := range kernels[1:] {
						got := append([]uint64(nil), input...)
						v.run(tbls[i+1], got)
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("bits=%d logN=%d %s table=%v: output[%d] = %#x, go table %#x",
									bits, logN, v.name, k, j, got[j], want[j])
							}
						}
					}
				}
			}
		}
	}
}
