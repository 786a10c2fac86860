package ring

import (
	"fmt"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/par"
)

// BenchmarkParallelLimbs measures the limb-parallel kernels at the paper's
// ring degree (N = 2^16, Table IV) against the serial baseline: the same
// code paths on a ring of pool width 1. Run with
//
//	go test ./internal/ring -bench ParallelLimbs -benchtime 10x
//
// to see the before/after of routing the limb loops through internal/par.
func BenchmarkParallelLimbs(b *testing.B) {
	const logN, limbs = 16, 24
	bits := make([]int, limbs)
	for i := range bits {
		bits[i] = 45
	}
	primes, err := modarith.GeneratePrimeChain(bits, logN)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, par.Workers()} {
		r, err := NewRingAt(logN, primes, modarith.Kernels{}, workers)
		if err != nil {
			b.Fatal(err)
		}
		level := limbs - 1
		s := testStream(1)
		a := s.UniformPoly(r, level, false)
		c := s.UniformPoly(r, level, false)
		out := r.NewPoly(level)
		tag := fmt.Sprintf("workers=%d", workers)
		b.Run("NTT+INTT/"+tag, func(b *testing.B) {
			p := a.CopyNew()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NTT(p, level)
				r.INTT(p, level)
			}
		})
		b.Run("MulCoeffsAdd/"+tag, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffsAdd(out, a, c, level)
			}
		})
	}
}
