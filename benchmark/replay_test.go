package main

import (
	"math"
	"testing"
)

// One hks step — HROT then HMULT — at a shape small enough to count by hand:
// 3 Q limbs (level 2), alpha = 2, so 2 digits.
//
//	ModUp      INTT 3 | per digit: BConv 2→3, NTT 3
//	KeyMult    element-wise
//	HROT only  automorphism over both components of the extended basis: 2·(3+2)
//	ModDown    per component: INTT 2, BConv 2→3, NTT 3 (epilogue fused)
//	Rescale    HMULT only: INTT 2, broadcast NTT 2·2
func TestReplayCountsHandCountedStep(t *testing.T) {
	const n, limbs, alpha, digits = 16, 3, 2, 2
	ks := kernelList(stepTrace(n, limbs, alpha, digits))
	c := countClasses(ks, alpha, n*8, 1)

	keySwitchNTT := float64(digits*limbs + 2*limbs) // ModUp + ModDown
	keySwitchINTT := float64(limbs + 2*alpha)
	keySwitchPairs := float64(alpha * (digits*limbs + 2*limbs))
	want := classCounts{
		nttLimbs:      2*keySwitchNTT + 2*2,
		inttLimbs:     2*keySwitchINTT + 2,
		bconvRowPairs: 2 * keySwitchPairs,
		autLimbs:      2 * (limbs + alpha),
		kernels:       (5 + 1 + 1 + 6 + 1) + (1 + 5 + 1 + 6 + 1 + 3),
	}
	if c.nttLimbs != want.nttLimbs || c.inttLimbs != want.inttLimbs ||
		c.bconvRowPairs != want.bconvRowPairs || c.autLimbs != want.autLimbs || c.kernels != want.kernels {
		t.Errorf("counts = %+v, want %+v", c, want)
	}
	if c.ewRowAccesses <= 0 {
		t.Errorf("element-wise row accesses = %v, want > 0", c.ewRowAccesses)
	}

	// A trace built with double-prime scaling counts half for every limb
	// and a quarter for every BConv row pair.
	half := countClasses(ks, alpha, n*8, 0.5)
	if half.nttLimbs != c.nttLimbs/2 || half.bconvRowPairs != c.bconvRowPairs/4 || half.autLimbs != c.autLimbs/2 {
		t.Errorf("half-limb counts = %+v from %+v", half, c)
	}
}

func TestReplayMetricsSumToClosure(t *testing.T) {
	c := classCounts{nttLimbs: 10, inttLimbs: 10, bconvRowPairs: 100, ewRowAccesses: 30, autLimbs: 5}
	u := unitTimes{nttFwdPerLimb: 1e6, nttInvPerLimb: 2e6, bconvPerRowPair: 1e5, macPerLimb: 3e5, autPerLimb: 2e5}
	m := metricSet{}
	replayMetrics(c, u, 50, m)
	want := metricSet{"replay.ntt_ms": 30, "replay.bconv_ms": 10, "replay.ew_ms": 3, "replay.aut_ms": 1,
		"replay.ntt_share": 30.0 / 44, "replay.closure_ratio": 44.0 / 50}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}
}
