// Package fusion implements the Anaheim op-sequence rewrite passes (§V) as
// a small optimization-pass layer over the trace IR (internal/trace): kernel
// sequences emitted by the naive SplitKernels builder are rewritten by
// SwapAutPMult (§V-B plaintext pre-rotation), AutAccum (Fig 6), and
// PAccum/CAccum (Table II compound instructions) back into the fused
// sequences the Anaheim configuration executes, with per-pass kernel/byte
// savings accounted. (The serving engine's op-DAG folds — add ladders and
// linear combinations — live with the op vocabulary in internal/engine.)
//
// Every pass is independently applicable and unit-testable; Apply runs a
// pass list in order and records the savings as obs counters.
package fusion

import (
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/trace"
)

// Stats summarizes one pass application on one trace.
type Stats struct {
	Pass          string
	KernelsBefore int
	KernelsAfter  int
	// Fused counts kernels eliminated by merging into a compound.
	Fused int
	// Swaps counts automorphism↔PMULT reorders (no direct byte savings;
	// they unlock AutAccum).
	Swaps int
	// BytesSaved is the DRAM traffic removed from the trace by this pass.
	BytesSaved float64
}

// TracePass rewrites a kernel trace in place.
type TracePass interface {
	Name() string
	Apply(t *trace.Trace) Stats
}

// Config toggles the individual trace passes.
type Config struct {
	Swap     bool // automorphism ↔ PMULT reorder (§V-B)
	AutAccum bool // fuse automorphism with accumulation (Fig 6)
	PAccum   bool // merge PMAC chains into PAccum⟨K⟩ (Table II)
	CAccum   bool // merge CMAC chains into CAccum⟨K⟩ (Table II)
}

// AllPasses returns every trace pass in its canonical order: the reorder
// first (it unlocks AutAccum), then the merges.
func AllPasses() []TracePass {
	return Passes(Config{Swap: true, AutAccum: true, PAccum: true, CAccum: true})
}

// Passes returns the enabled passes in canonical order.
func Passes(c Config) []TracePass {
	var ps []TracePass
	if c.Swap {
		ps = append(ps, SwapAutPMult())
	}
	if c.AutAccum {
		ps = append(ps, AutAccum())
	}
	if c.PAccum {
		ps = append(ps, PAccum())
	}
	if c.CAccum {
		ps = append(ps, CAccum())
	}
	return ps
}

// Apply runs the passes in order, mutating t, and records per-pass savings
// as obs counters (fusion_kernels_eliminated_total, fusion_bytes_saved_total,
// fusion_swaps_total).
func Apply(t *trace.Trace, passes ...TracePass) []Stats {
	stats := make([]Stats, 0, len(passes))
	for _, p := range passes {
		s := p.Apply(t)
		record(s)
		stats = append(stats, s)
	}
	return stats
}

func record(s Stats) {
	if s.Fused > 0 {
		obs.Default.Counter(`fusion_kernels_eliminated_total{pass="` + s.Pass + `"}`).Add(float64(s.Fused))
	}
	if s.BytesSaved > 0 {
		obs.Default.Counter(`fusion_bytes_saved_total{pass="` + s.Pass + `"}`).Add(s.BytesSaved)
	}
	if s.Swaps > 0 {
		obs.Default.Counter("fusion_swaps_total").Add(float64(s.Swaps))
	}
}
