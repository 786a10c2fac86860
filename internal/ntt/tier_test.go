package ntt

import (
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// TestTransformAcrossKernelTiers runs full forward/inverse transforms (all
// four laziness variants) on every kernel tier available on the host and
// requires bit-identical outputs: the NTT is the heaviest consumer of the
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
	t.Logf("modarith kernel tier: active=%s available=%v", modarith.ActiveTier(), modarith.AvailableTiers())

	orig := modarith.ActiveTier()
	t.Cleanup(func() {
		if err := modarith.SetKernelTier(orig); err != nil {
			t.Fatalf("restoring tier %v: %v", orig, err)
		}
	})

	for _, bits := range []int{45, 55, 61} {
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
			tbl, err := NewTables(modarith.MustModulus(q), logN)
			if err != nil {
				t.Fatal(err)
			}
			random := make([]uint64, tbl.N)
			saturated := make([]uint64, tbl.N)
			for i := range random {
				random[i] = (uint64(i)*0x9e3779b97f4a7c15 + 12345) % (2 * q) // lazy domain
				saturated[i] = 2*q - 1
			}

			variants := []struct {
				name string
				run  func(a []uint64)
			}{
				{"fwd", func(a []uint64) { tbl.Forward(a) }},
				{"fwdLazy", func(a []uint64) { tbl.ForwardLazy(a) }},
				{"inv", func(a []uint64) { tbl.Inverse(a) }},
				{"invLazy", func(a []uint64) { tbl.InverseLazy(a) }},
				{"fwdLazy+invLazy", func(a []uint64) { tbl.ForwardLazy(a); tbl.InverseLazy(a) }},
			}
			for _, input := range [][]uint64{random, saturated} {
				for _, v := range variants {
					// Reference outputs on the pure-Go tier.
					if err := modarith.SetKernelTier(modarith.TierGo); err != nil {
						t.Fatal(err)
					}
					want := append([]uint64(nil), input...)
					v.run(want)

					for _, tier := range modarith.AvailableTiers() {
						if tier == modarith.TierGo {
							continue
						}
						if err := modarith.SetKernelTier(tier); err != nil {
							t.Fatal(err)
						}
						got := append([]uint64(nil), input...)
						v.run(got)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("bits=%d logN=%d %s tier=%v: output[%d] = %#x, go tier %#x",
									bits, logN, v.name, tier, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
