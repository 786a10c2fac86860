package ntt

// Transform planning: how a batch of per-limb (I)NTTs is spread over the
// shared worker pool. The old code had a single hard-coded limb-count
// threshold, which left exactly the wrong case serial: few limbs × large N —
// the bottom of the CKKS modulus chain, where bootstrapping spends its time.
// transformPlan instead picks, per (limbs, N, pool width):
//
//   - limb-level parallelism when the batch alone can feed the pool (limbs
//     are independent RNS residues, so this is always safe), with contiguous
//     limb ranges per worker (the rows share one backing array);
//   - intra-polynomial parallelism otherwise, when N is large enough: the
//     transform's outer stages are split S ways — after the first log2(S)
//     stages of the forward transform (resp. before the last log2(S) of the
//     inverse) the array decomposes into S independent sub-transforms, one
//     per worker, with no synchronization beyond a barrier per shared stage;
//   - serial execution when the work is too small to amortize the pool.

import (
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/par"
)

const (
	// limbParMin is the batch size at which limb-level parallelism pays for
	// its synchronization even on wide pools (the old fixed threshold).
	limbParMin = 8
	// splitMinN is the smallest transform worth splitting internally.
	splitMinN = 1 << 13
	// splitMinButterflies is the minimum butterflies per worker per stage;
	// below it the per-stage barrier dominates. chunk = N/(2S).
	splitMinButterflies = 1 << 10
	// splitMax caps the intra-poly fan-out.
	splitMax = 16
)

// plan describes how one batch of limb transforms runs.
type plan struct {
	limbPar bool // spread limbs over the pool, contiguous chunks
	split   int  // intra-poly split width (power of two); < 2 means serial
}

// transformPlan picks the execution strategy for a batch of `limbs`
// transforms of size n on the current pool.
func transformPlan(limbs, n int) plan {
	width := par.Workers()
	if width < 2 || limbs < 1 {
		return plan{}
	}
	if limbs >= width || limbs >= limbParMin {
		return plan{limbPar: true}
	}
	if n >= splitMinN {
		s := 1
		for s<<1 <= width && s<<1 <= splitMax && n/(s<<2) >= splitMinButterflies {
			s <<= 1
		}
		if s > 1 {
			return plan{split: s}
		}
	}
	// Few limbs, small N: limb parallelism still beats serial once there is
	// more than one limb to hand out.
	if limbs > 1 {
		return plan{limbPar: true}
	}
	return plan{}
}

// forwardSplit runs the forward transform with its work split s ways
// (s a power of two, 2 ≤ s ≤ N/8) across the shared pool: the first log2(s)
// stages run with each stage's N/2 butterflies chunked contiguously over s
// workers (barrier per stage), after which the array has decomposed into s
// independent sub-transforms that finish without further synchronization.
func (t *Tables) forwardSplit(a []uint64, s int, lazy bool) {
	n := t.N
	chunk := n / (2 * s) // butterflies per worker per shared stage
	span := n
	for m := 1; m < s; m <<= 1 {
		span >>= 1
		wpb := s / m // workers per twiddle block
		mm, sp := m, span
		par.ForEach(s, func(w int) {
			i := w / wpb
			j1 := 2*i*sp + (w%wpb)*chunk
			t.Mod.VecFwdStage(a[j1:j1+sp+chunk], t.psiRev[mm+i:mm+i+1], t.psiRevShoup[mm+i:mm+i+1], sp, chunk, lazy)
		})
	}
	// span is now n/s; worker c owns blocks [c·m/s, (c+1)·m/s) of every
	// remaining stage, i.e. the c-th contiguous sub-array of length n/s.
	par.ForEach(s, func(c int) {
		sp := n / s
		for m := s; m < n; m <<= 1 {
			sp >>= 1
			bpc := m / s
			t.fwdStage(a, m, sp, c*bpc, (c+1)*bpc, lazy)
		}
	})
}

// inverseSplit mirrors forwardSplit for the inverse transform: s independent
// sub-transforms first (stages m = N/2 … s), then the last log2(s) stages
// with their butterflies chunked over s workers, the final one fused with
// the 1/N scaling.
func (t *Tables) inverseSplit(a []uint64, s int, lazy bool) {
	n := t.N
	chunk := n / (2 * s)
	par.ForEach(s, func(c int) {
		sp := 1
		for m := n >> 1; m >= s; m >>= 1 {
			bpc := m / s
			t.invStage(a, m, sp, c*bpc, (c+1)*bpc)
			sp <<= 1
		}
	})
	for m := s >> 1; m > 1; m >>= 1 {
		span := n / (2 * m)
		wpb := s / m
		mm := m
		par.ForEach(s, func(w int) {
			i := w / wpb
			j1 := 2*i*span + (w%wpb)*chunk
			t.Mod.VecInvStage(a[j1:j1+span+chunk], t.psiInvRev[mm+i:mm+i+1], t.psiInvShoup[mm+i:mm+i+1], span, chunk)
		})
	}
	par.ForEach(s, func(w int) {
		t.invStageFinal(a, w*chunk, (w+1)*chunk, lazy)
	})
}

func checkBatch(tables []*Tables, rows [][]uint64, op string) {
	if len(tables) != len(rows) {
		panic(fmt.Sprintf("ntt: %s on %d tables, %d rows", op, len(tables), len(rows)))
	}
}

// ForwardMany runs tables[i].Forward(rows[i]) for every limb, parallelized
// according to the transform plan (limb-level, intra-polynomial, or serial).
// Limbs are independent RNS residues, so this is always safe.
func ForwardMany(tables []*Tables, rows [][]uint64) {
	checkBatch(tables, rows, "ForwardMany")
	forwardMany(tables, rows, false)
}

// ForwardManyLazy is ForwardMany with lazy [0, 2q) outputs.
func ForwardManyLazy(tables []*Tables, rows [][]uint64) {
	checkBatch(tables, rows, "ForwardManyLazy")
	forwardMany(tables, rows, true)
}

// InverseMany runs tables[i].Inverse(rows[i]) for every limb, parallelized
// according to the transform plan.
func InverseMany(tables []*Tables, rows [][]uint64) {
	checkBatch(tables, rows, "InverseMany")
	inverseMany(tables, rows, false)
}

// InverseManyLazy is InverseMany with lazy [0, 2q) outputs.
func InverseManyLazy(tables []*Tables, rows [][]uint64) {
	checkBatch(tables, rows, "InverseManyLazy")
	inverseMany(tables, rows, true)
}

func forwardMany(tables []*Tables, rows [][]uint64, lazy bool) {
	if len(rows) == 0 {
		return
	}
	for i := range rows {
		tables[i].checkLen(rows[i], "ForwardMany")
	}
	pl := transformPlan(len(rows), tables[0].N)
	switch {
	case pl.limbPar:
		par.ForEachChunk(len(rows), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tables[i].forward(rows[i], lazy)
			}
		})
	case pl.split > 1:
		for i := range rows {
			tables[i].forwardSplit(rows[i], pl.split, lazy)
		}
	default:
		for i := range rows {
			tables[i].forward(rows[i], lazy)
		}
	}
}

func inverseMany(tables []*Tables, rows [][]uint64, lazy bool) {
	if len(rows) == 0 {
		return
	}
	for i := range rows {
		tables[i].checkLen(rows[i], "InverseMany")
	}
	pl := transformPlan(len(rows), tables[0].N)
	switch {
	case pl.limbPar:
		par.ForEachChunk(len(rows), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tables[i].inverse(rows[i], lazy)
			}
		})
	case pl.split > 1:
		for i := range rows {
			tables[i].inverseSplit(rows[i], pl.split, lazy)
		}
	default:
		for i := range rows {
			tables[i].inverse(rows[i], lazy)
		}
	}
}
