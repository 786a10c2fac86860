package ckks

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/par"
)

// TestKeySwitchAllocs pins the steady-state allocation count of the full
// ModUp -> KeyMult -> ModDown pipeline: with the BConv scratch, the
// Decompose row headers, the digit polynomials and the two results all
// pooled, the only remaining allocations are the small decomposed
// bookkeeping. Runs serially — the par dispatch allocates chunk closures,
// which is noise here, not key-switch state.
func TestKeySwitchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(11))
	ct := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	lvl := ct.Level()
	// Warm the polynomial, scratch, and row-header pools.
	for i := 0; i < 4; i++ {
		d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk)
		tc.params.RingQ().PutPoly(d0)
		tc.params.RingQ().PutPoly(d1)
	}
	rq := tc.params.RingQ()
	allocs := testing.AllocsPerRun(20, func() {
		d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk)
		rq.PutPoly(d0)
		rq.PutPoly(d1)
	})
	// Steady state measures 3 (the decomposition header and its two digit
	// slices). The BConv tmp rows, the Decompose row headers, and every
	// polynomial are pooled; if any of those regress to per-call allocation
	// the count jumps by O(limbs · digits).
	if allocs > 5 {
		t.Fatalf("keySwitch allocates %.1f objects/op, want <= 5", allocs)
	}
}

// TestKeySwitchConcurrentEquivalence hammers keySwitch from many goroutines
// (the BasisConverter scratch pool, row-header pool, and polynomial pools
// are all shared) and checks every result against the oracle's. Run with
// -race in CI.
func TestKeySwitchConcurrentEquivalence(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(12))
	ct := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))
	lvl := ct.Level()
	or := oracle{p: tc.params, keys: tc.keys, enc: tc.enc}
	want0, want1 := or.keySwitch(ct.C1, lvl, tc.keys.Rlk, tc.params.PlanAt(lvl))
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk)
				if !d0.Equal(want0) || !d1.Equal(want1) {
					errs <- "concurrent keySwitch result differs from the oracle"
					return
				}
				tc.params.RingQ().PutPoly(d0)
				tc.params.RingQ().PutPoly(d1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
