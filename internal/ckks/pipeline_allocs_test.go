package ckks

import (
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/par"
)

// TestPipelinedSteadyStateAllocs pins the steady-state allocation counts of
// the op-level pipelined chains (Rotate, Rescale). Recording a chain is
// allocation-free in steady state — stages are op-code structs in pooled
// slices, not closures. Runs serially — the par dispatch allocates chunk
// closures, which is noise here.
func TestPipelinedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)

	tc := newTestContext(t, TestParameters())
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{3})
	r := rand.New(rand.NewSource(11))
	ct := tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 1))

	// Warm the polynomial, scratch, row-header, and pipeline pools.
	for i := 0; i < 4; i++ {
		if _, err := tc.eval.Rotate(ct, 3); err != nil {
			t.Fatal(err)
		}
		tc.eval.Rescale(ct)
	}

	// Pipeline recording itself must stay at zero — a regression to per-stage
	// closures or unpooled stage slices jumps these by O(digits) per op. (The
	// bare key switch is pinned in TestKeySwitchAllocs.) Rotate fuses the c0-add and both automorphisms into the ModDown Run;
	// measures 16 (two NewPoly outputs, ciphertext header, bookkeeping).
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tc.eval.Rotate(ct, 3); err != nil {
			t.Fatal(err)
		}
	}); allocs > 20 {
		t.Errorf("pipelined Rotate allocates %.1f objects/op, want <= 20", allocs)
	}

	// Rescale measures 9: two NewPoly outputs, the ciphertext header, and the
	// two Func closures of the correction stage.
	if allocs := testing.AllocsPerRun(20, func() {
		tc.eval.Rescale(ct)
	}); allocs > 14 {
		t.Errorf("pipelined Rescale allocates %.1f objects/op, want <= 14", allocs)
	}
}
