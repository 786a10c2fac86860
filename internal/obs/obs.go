// Package obs is the dependency-free observability substrate of the
// serving stack: atomic counters, gauges, bounded latency histograms with
// quantile estimation, and lightweight span tracing with parent/child
// links. Every layer that wants to be measured — the engine scheduler, the
// ckks evaluator hot paths, the ring buffer pool, the gpu/pim simulation
// models — records into a Registry; cmd/anaheim-serve exposes the default
// registry in Prometheus text format and the repo benchmark reads its
// Snapshot for the per-layer metrics.
//
// The package deliberately has no dependencies beyond the standard
// library so that any package in the tree (including the lowest ring
// layer) can import it without cycles.
//
// Metric names follow the Prometheus convention and may carry a label set
// inline: `engine_op_exec_seconds{op="mul"}`. The exporter splits the
// base name from the labels so that families group correctly.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
// Float-valued so that simulated nanoseconds and byte counts from the
// analytical models accumulate without truncation.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates v (must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous int64 value (occupancy, depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add applies a delta.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics. The zero value is not usable;
// create with NewRegistry or use Default.
type Registry struct {
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
	gaugeFns sync.Map // name -> func() float64
	hists    sync.Map // name -> *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry instrumented packages record into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// GaugeFunc registers (or replaces) a gauge whose value is sampled at
// export time — for quantities that already live in an atomic elsewhere,
// like channel depth or an admission count.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.gaugeFns.Store(name, fn)
}

// Histogram returns the named histogram with the default latency buckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket upper bounds (nil means DefBuckets). Bounds are fixed at creation;
// later calls ignore the argument.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, newHistogram(bounds))
	return v.(*Histogram)
}
