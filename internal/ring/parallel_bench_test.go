package ring

import (
	"fmt"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/par"
)

// BenchmarkParallelLimbs measures the limb-parallel kernels at the paper's
// ring degree (N = 2^16, Table IV) against the serial baseline: the same
// code paths with the shared worker pool forced to width 1. Run with
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
	r, err := NewRing(logN, primes)
	if err != nil {
		b.Fatal(err)
	}
	level := limbs - 1
	s := testStream(1)
	a := s.UniformPoly(r, level, false)
	c := s.UniformPoly(r, level, false)
	out := r.NewPoly(level)

	for _, workers := range []int{1, par.Workers()} {
		tag := fmt.Sprintf("workers=%d", workers)
		b.Run("NTT+INTT/"+tag, func(b *testing.B) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			p := a.CopyNew()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.NTT(p, level)
				r.INTT(p, level)
			}
		})
		b.Run("MulCoeffsAdd/"+tag, func(b *testing.B) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MulCoeffsAdd(out, a, c, level)
			}
		})
	}
}
