package obs

import (
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency bucket upper bounds in seconds:
// exponential ×2 from 1µs to ~33s. Wide enough to cover a pool hit on one
// end and a bootstrap on the other without configuration.
var DefBuckets = expBuckets(1e-6, 2, 26)

// expBuckets returns n upper bounds starting at start, multiplying by
// factor each step.
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket concurrent histogram. Observations beyond the
// last bound land in an implicit +Inf bucket, so memory stays bounded no
// matter the input.
type Histogram struct {
	bounds []float64      // sorted upper bounds (le semantics)
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    Counter
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// BucketCounts returns a snapshot of per-bucket counts (last is +Inf).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing the target rank, the same estimate
// Prometheus' histogram_quantile computes. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i >= len(h.bounds) {
			// +Inf bucket: report its lower bound, the best bounded answer.
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
