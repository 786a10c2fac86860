package ckks

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// steadyState runs f warm times to fill the polynomial, scratch, row-header and
// pipeline pools, then runs more times, and returns what one run allocates
// (bytes, objects), how many ring-pool gets missed over the measured runs and
// how many polynomials one run borrows from the ring pools.
// Like testing.AllocsPerRun it measures on one P — a sync.Pool keeps a
// per-P cache, so a migrating goroutine would miss what it just put. f runs
// on a serialTestContext: the par dispatch allocates chunk closures, which is
// noise here.
func steadyState(warm, runs int, f func()) (bytes, objects, misses, gets float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warm; i++ {
		f()
	}
	miss := obs.Default.Counter(`ring_pool_gets_total{result="miss"}`)
	hit := obs.Default.Counter(`ring_pool_gets_total{result="hit"}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	miss0, hit0 := miss.Value(), hit.Value()
	for i := 0; i < runs; i++ {
		f()
	}
	misses = miss.Value() - miss0
	runtime.ReadMemStats(&after)
	n := float64(runs)
	gets = (misses + hit.Value() - hit0) / n
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n, misses, gets
}

// TestPipelinedSteadyStateAllocs pins the steady state of the evaluator's ops:
// with the result released each run, every polynomial — scratch and output —
// comes out of the ring pool (no miss), and what is left is headers. Recording
// a chain is allocation-free in steady state — stages are op-code structs in
// pooled slices, not closures — so a regression to per-stage closures, unpooled
// stage slices or a fresh output polynomial jumps these by O(digits) objects or
// by a polynomial's bytes. (The bare key switch is pinned in
// TestKeySwitchAllocs.)
func TestPipelinedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	tc := serialTestContext(t, TestParameters(), true)
	p := tc.params
	r := rand.New(rand.NewSource(11))
	lt := denseTestTransform(r, p.Slots(), 8)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{3})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(p, lt))
	ev := tc.eval
	ct := tc.encryptVec(t, randomComplex(r, p.Slots(), 1))
	ct2 := tc.encryptVec(t, randomComplex(r, p.Slots(), 1))
	terms := []*Ciphertext{ct, ct2, ct, ct2, ct, ct2, ct}
	consts := []float64{0.5, -1.25, 0.75, 0.1, 0.2, -0.3, 1}

	for _, op := range []struct {
		name    string
		objects float64 // the measured count plus a little slack
		gets    float64 // ring-pool borrows per run, at most (0: not pinned)
		run     func()
	}{
		// 2 (16 before the outputs were pooled and the serial BConv stopped
		// allocating a chunk closure, 4 before the digits left the pool): the
		// ciphertext header and the decomposition's bookkeeping. 7 borrowed
		// polynomials (19 with pooled digit and conversion polynomials).
		{"Rotate", 4, 7, func() {
			out, err := ev.Rotate(ct, 3)
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
		}},
		// 3 (9 before): the ciphertext header and the two Func closures of the
		// correction stage.
		{"Rescale", 5, 0, func() { ev.Release(ev.rescale(ct)) }},
		// 4: the ciphertext header, the two Func closures of the merged
		// tail's correction stage and the decomposition's bookkeeping. Its
		// top-limb rows come from the pool like the output, and its
		// conversion rows from the Run's scratch. 9 borrowed polynomials (20
		// with pooled digit and conversion polynomials).
		{"Mul", 6, 9, func() {
			out, err := ev.Mul(ct, ct2)
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
		}},
		// 26: the sweep's bookkeeping (key map, per-baby targets, giant
		// accumulator headers, span annotations) and the merged tail's two
		// Func closures. 25 borrowed polynomials: each decomposition's
		// premultiplied copy, the giants' accumulators, the top rows and the
		// output. The digit rows, the baby phase's key-switched QP rows, the
		// 128-bit sums' high words, the ModDowns' converted rows and the σ
		// epilogue's permuted rows are per-goroutine Run scratch, not
		// polynomials (49 borrows with pooled digits, conversions and QP
		// rows; 58 with a pool borrow per baby).
		{"EvaluateLinearTransform", 30, 25, func() {
			out, err := ev.EvaluateLinearTransform(ct, lt, tc.enc)
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
		}},
		// 5: the product's header and one residue slice (the constants are
		// reduced in word arithmetic, each ring pass is a pooled one-stage
		// chain), then the rescale's 3.
		{"MulConstAccum", 8, 0, func() {
			out, err := ev.MulConstAccum(terms, consts)
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
		}},
	} {
		bytes, objects, misses, gets := steadyState(4, 20, op.run)
		t.Logf("%-24s %7.0f B/op %5.1f objects/op, %v pool gets/op, %v misses", op.name, bytes, objects, gets, misses)
		if misses != 0 {
			t.Errorf("%s: %v ring-pool misses in steady state, want 0", op.name, misses)
		}
		if bytes > 64<<10 {
			t.Errorf("%s allocates %.0f B/op, want <= 64 KiB", op.name, bytes)
		}
		if objects > op.objects {
			t.Errorf("%s allocates %.1f objects/op, want <= %v", op.name, objects, op.objects)
		}
		if op.gets > 0 && gets > op.gets {
			t.Errorf("%s borrows %v pooled polynomials per run, want <= %v", op.name, gets, op.gets)
		}
	}
}

// TestBootstrapAllocs pins what ROADMAP 5(a) asks for: a bootstrap whose
// result is released runs out of the ring pool. What it still allocates is
// headers — Truncated views, the Chebyshev power map, span annotations, one
// residue slice per constant — not polynomials (≈ 500 objects and ≈ 540 pool
// borrows per bootstrap at N = 2^11).
func TestBootstrapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := serialTestContext(t, BootTestParameters(), true)
	boot, err := tc.bootstrapper(DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	ct := dropTo(tc.eval, tc.encryptVec(t, randomComplex(r, tc.params.Slots(), 0.7)), 0)

	const runs = 3
	bytes, objects, misses, gets := steadyState(2, runs, func() {
		out, err := boot.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		tc.eval.Release(out)
	})
	t.Logf("bootstrap: %.2f MB/op in %.0f objects/op; ring pool %v gets/op, %v misses over %d runs",
		bytes/1e6, objects, gets, misses, runs)
	if misses != 0 {
		t.Errorf("%v ring-pool misses in steady state, want 0", misses)
	}
	if bytes > 8e6 {
		t.Errorf("bootstrap allocates %.2f MB/op, want <= 8 MB", bytes/1e6)
	}
	if objects > 1000 {
		t.Errorf("bootstrap allocates %.0f objects/op, want <= 1000", objects)
	}
}
