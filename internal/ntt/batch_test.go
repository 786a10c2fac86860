package ntt_test

// Batch transforms: a multi-limb (I)NTT is no longer planned inside this
// package; it is a one-stage chain on ring.Pipeline, which spreads the limbs
// over the shared pool at the ring's width (or runs them serially below its
// limb threshold). Each test builds its rings at the table and width it
// sweeps (ring.NewRingAt), so the sweeps run side by side. The
// tests below drive that path from the transform's side and require it to
// equal the per-limb serial transforms of this package bit for bit. They live
// in the external test package because ring imports ntt.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// newBatchRing returns a ring of limbs 55-bit primes on kernel table k at
// pool width width.
func newBatchRing(t testing.TB, logN, limbs int, k modarith.Kernels, width int) *ring.Ring {
	t.Helper()
	primes, err := modarith.GenerateNTTPrimes(55, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.NewRingAt(logN, primes, k, width)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randBatchPoly(rng *rand.Rand, r *ring.Ring, level int) *ring.Poly {
	p := r.NewPoly(level)
	for l, row := range p.Coeffs {
		q := r.Moduli[l].Q
		for i := range row {
			row[i] = rng.Uint64() % q
		}
	}
	return p
}

// serialRows applies tf limb by limb to a copy of p's rows.
func serialRows(r *ring.Ring, p *ring.Poly, tf func(tbl *ntt.Tables, row []uint64)) [][]uint64 {
	rows := make([][]uint64, len(p.Coeffs))
	for l, row := range p.Coeffs {
		rows[l] = append([]uint64(nil), row...)
		tf(r.Tables[l], rows[l])
	}
	return rows
}

func checkRows(t *testing.T, what string, got *ring.Poly, want [][]uint64) {
	t.Helper()
	for l := range want {
		for i := range want[l] {
			if got.Coeffs[l][i] != want[l][i] {
				t.Fatalf("%s: limb %d differs at %d: %#x != %#x", what, l, i, got.Coeffs[l][i], want[l][i])
			}
		}
	}
}

// TestManyMatchesSerial runs Ring.NTT/INTT over batches below, at and above
// the pipeline's limb threshold, on a serial and a 4-wide pool, and checks
// every limb against this package's serial transforms.
func TestManyMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		for _, logN := range []int{6, 13} {
			for _, limbs := range []int{1, 2, 3, 8, 12} {
				r := newBatchRing(t, logN, limbs, modarith.Kernels{}, workers)
				level := limbs - 1
				rng := rand.New(rand.NewSource(int64(workers*1000 + logN*10 + limbs)))
				p := randBatchPoly(rng, r, level)
				what := fmt.Sprintf("w=%d logN=%d limbs=%d", workers, logN, limbs)

				want := serialRows(r, p, (*ntt.Tables).Forward)
				r.NTT(p, level)
				checkRows(t, what+" NTT", p, want)

				want = serialRows(r, p, (*ntt.Tables).Inverse)
				r.INTT(p, level)
				checkRows(t, what+" INTT", p, want)
			}
		}
	}
}

// TestSplitMatchesSerial covers the large-N, few-limb batches the deleted
// intra-polynomial split used to fan out, on every width it split to: they
// now run as whole limbs on the pipeline (serially below its limb threshold,
// chunked over the pool at it), exact and lazy, and must equal the serial
// transforms.
func TestSplitMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, s := range []int{2, 4, 8, 16} {
		for _, logN := range []int{13, 14} {
			for _, limbs := range []int{1, 3, 8} {
				r := newBatchRing(t, logN, limbs, modarith.Kernels{}, s)
				level := limbs - 1
				rng := rand.New(rand.NewSource(int64(13*logN + 100*s + limbs)))
				a := randBatchPoly(rng, r, level)
				for _, lazy := range []bool{false, true} {
					what := fmt.Sprintf("w=%d logN=%d limbs=%d lazy=%v", s, logN, limbs, lazy)
					p := a.CopyNew()
					fwd := (*ntt.Tables).Forward
					if lazy {
						fwd = (*ntt.Tables).ForwardLazy
					}
					want := serialRows(r, p, fwd)
					pl := ring.GetPipeline()
					if ln := pl.Lane(r, level); lazy {
						ln.NTTLazy(p)
					} else {
						ln.NTT(p)
					}
					pl.Run()
					pl.Release()
					checkRows(t, what+" forward", p, want)
					if lazy {
						r.ReduceLazy(p, level)
					}

					want = serialRows(r, p, (*ntt.Tables).Inverse)
					r.INTT(p, level)
					checkRows(t, what+" inverse", p, want)
					checkRows(t, what+" round trip", p, a.Coeffs)
				}
			}
		}
	}
}

// TestParallelTransformsConcurrent runs pool-parallel transforms on one
// shared ring from several goroutines at once, so the race detector can
// watch the pooled pipelines, the shared tables and the pool under
// contention (the engine's serving pattern).
func TestParallelTransformsConcurrent(t *testing.T) {
	t.Parallel()
	const limbs = 8
	r := newBatchRing(t, 13, limbs, modarith.Kernels{}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			a := randBatchPoly(rng, r, limbs-1)
			orig := a.CopyNew()
			for iter := 0; iter < 3; iter++ {
				r.NTT(a, limbs-1)
				r.INTT(a, limbs-1)
			}
			if !a.Equal(orig) {
				t.Errorf("seed %d: concurrent round trip differs", seed)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestBatchTransformsAcrossKernelTiers requires the pool-parallel batch
// transforms to be bit-identical on every kernel table the host runs: each
// worker drives the dispatched stage kernels over its own limb range of rows
// that share one backing array.
func TestBatchTransformsAcrossKernelTiers(t *testing.T) {
	t.Parallel()
	const logN, limbs = 13, 8
	kernels := modarith.KernelTables()
	mkPoly := func(r *ring.Ring) *ring.Poly {
		p := r.NewPoly(limbs - 1)
		for l, row := range p.Coeffs {
			for i := range row {
				row[i] = (uint64(i)*0xbf58476d1ce4e5b9 + uint64(l)) % r.Moduli[l].Q
			}
		}
		return p
	}

	goRing := newBatchRing(t, logN, limbs, kernels[0], 4)
	wantNTT := mkPoly(goRing)
	goRing.NTT(wantNTT, limbs-1)
	wantRT := wantNTT.CopyNew()
	goRing.INTT(wantRT, limbs-1)
	checkRows(t, "go table round trip", wantRT, mkPoly(goRing).Coeffs)

	for _, k := range kernels[1:] {
		r := newBatchRing(t, logN, limbs, k, 4)
		got := mkPoly(r)
		r.NTT(got, limbs-1)
		checkRows(t, fmt.Sprintf("table=%v NTT vs go table", k), got, wantNTT.Coeffs)
		r.INTT(got, limbs-1)
		checkRows(t, fmt.Sprintf("table=%v INTT vs go table", k), got, wantRT.Coeffs)
	}
}
