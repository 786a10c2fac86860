package main

// The kernel-class replay: internal/trace's own kernel list for an op is the
// decomposition, each class is priced with the unit time measured through
// the functional layers' public functions at the same N, and the classes'
// sum is set against the measured op.

// traceKernel is the part of a trace kernel the replay prices.
type traceKernel struct {
	class     string // "ntt", "intt", "bconv", "ew", "aut"
	limbs     int
	instances int
	bytes     float64
}

// classCounts is the work of one op in the units the layers are timed in.
type classCounts struct {
	nttLimbs      float64 // forward limb transforms
	inttLimbs     float64 // inverse limb transforms
	bconvRowPairs float64 // input row × output row pairs
	ewRowAccesses float64 // limb rows read or written by element-wise kernels
	autLimbs      float64 // limb rows permuted
	kernels       int
}

// countClasses sums a kernel list into per-class work. alpha is the BConv
// input width (every BConv of a key switch reads alpha rows) and limbBytes
// the size of one functional limb row. limbScale maps trace limbs onto
// functional limbs: 1 when the trace was built at the functional shape, 0.5
// for a trace built with double-prime scaling, where two 4-byte trace limbs
// stand for one 8-byte functional limb.
func countClasses(ks []traceKernel, alpha int, limbBytes, limbScale float64) classCounts {
	var c classCounts
	c.kernels = len(ks)
	for _, k := range ks {
		rows := float64(k.limbs*k.instances) * limbScale
		switch k.class {
		case "ntt":
			c.nttLimbs += rows
		case "intt":
			c.inttLimbs += rows
		case "bconv":
			c.bconvRowPairs += float64(alpha) * limbScale * rows
		case "ew":
			c.ewRowAccesses += k.bytes / limbBytes
		case "aut":
			c.autLimbs += rows
		}
	}
	return c
}

// unitTimes are the measured per-unit costs, all in nanoseconds.
type unitTimes struct {
	nttFwdPerLimb   float64
	nttInvPerLimb   float64
	bconvPerRowPair float64
	macPerLimb      float64 // one MulCoeffsAdd limb: three row accesses
	autPerLimb      float64
}

// macRowAccesses is what one MulCoeffsAdd limb touches: two operands and the
// accumulator.
const macRowAccesses = 3

// replayMetrics prices the counts and reports class times, shares and how
// much of the measured op they sum to.
func replayMetrics(c classCounts, u unitTimes, measuredOpMs float64, m metricSet) {
	ntt := (c.nttLimbs*u.nttFwdPerLimb + c.inttLimbs*u.nttInvPerLimb) / 1e6
	bconv := c.bconvRowPairs * u.bconvPerRowPair / 1e6
	ew := c.ewRowAccesses / macRowAccesses * u.macPerLimb / 1e6
	aut := c.autLimbs * u.autPerLimb / 1e6
	m["replay.ntt_ms"], m["replay.bconv_ms"], m["replay.ew_ms"], m["replay.aut_ms"] = ntt, bconv, ew, aut
	if sum := ntt + bconv + ew + aut; sum > 0 {
		m["replay.ntt_share"] = ntt / sum
		m["replay.bconv_share"] = bconv / sum
		m["replay.ew_share"] = ew / sum
		m["replay.aut_share"] = aut / sum
		if measuredOpMs > 0 {
			m["replay.closure_ratio"] = sum / measuredOpMs
		}
	}
}
