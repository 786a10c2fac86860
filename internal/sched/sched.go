// Package sched is the Anaheim co-execution framework (§V-C): it prices a
// kernel trace on a GPU model, optionally offloading the marked element-wise
// kernels to a PIM model, serializes GPU and PIM kernels on one stream (no
// pipelining), charges the GPU↔PIM transition overhead and the coherence
// write-backs, and aggregates time, energy, DRAM traffic and a Gantt
// timeline.
package sched

import (
	"time"

	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/trace"
)

// classKey is one (class, platform) pair of the per-kernel-class counters.
type classKey struct {
	class trace.Class
	pim   bool
}

// classSum is one Run's share of a pair's counters: the simulated time and
// bytes the model predicts alongside the wall-clock time the model itself
// took to evaluate — the "simulated vs wall-clock" pair the §VII methodology
// asks to keep visible. Run sums it locally and flushes it once.
type classSum struct {
	kernels, simNs, bytes, wallS float64
}

func (s classSum) flush(key classKey) {
	platform := "gpu"
	if key.pim {
		platform = "pim"
	}
	label := `{class="` + key.class.String() + `",platform="` + platform + `"}`
	obs.Default.Counter("sched_sim_kernels_total" + label).Add(s.kernels)
	obs.Default.Counter("sched_sim_time_ns_total" + label).Add(s.simNs)
	obs.Default.Counter("sched_sim_bytes_total" + label).Add(s.bytes)
	obs.Default.Counter("sched_model_wall_seconds_total" + label).Add(s.wallS)
}

// writeBackFraction is the share of PIM-bound producer output that would
// otherwise have remained in the L2 cache and therefore counts as extra
// coherence write-back traffic (§V-C).
const writeBackFraction = 0.3

// Config selects the execution platform.
type Config struct {
	GPU gpu.Config
	Lib gpu.LibraryProfile
	PIM *pim.UnitConfig // nil: GPU-only execution

	BufferSize        int  // override of the PIM data buffer B (0: default)
	NaiveLayout       bool // disable column partitioning (Fig 10 "w/o CP")
	DisableWriteBacks bool // for ideal-case studies
}

// Segment is one timeline entry (Fig 4a Gantt charts).
type Segment struct {
	Name    string
	Class   trace.Class
	PIM     bool
	StartNs float64
	DurNs   float64
}

// Result aggregates one simulated execution.
type Result struct {
	TimeNs   float64
	EnergyNJ float64

	GPUTimeNs, PIMTimeNs float64
	GPUBytes, PIMBytes   float64
	OneTimeBytes         float64
	WriteBackBytes       float64
	Transitions          int

	ClassTimeNs map[trace.Class]float64 // by kernel class, GPU or PIM
	Timeline    []Segment
}

// TimeMs returns the total time in milliseconds.
func (r Result) TimeMs() float64 { return r.TimeNs / 1e6 }

// EnergyMJ returns the total energy in millijoules.
func (r Result) EnergyMJ() float64 { return r.EnergyNJ / 1e6 }

// EDP returns the energy-delay product (mJ·ms).
func (r Result) EDP() float64 { return r.TimeMs() * r.EnergyMJ() }

// EWShare returns the fraction of execution time spent on element-wise
// kernels (the Fig 2b/2c breakdown quantity).
func (r Result) EWShare() float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return r.ClassTimeNs[trace.ClassEW] / r.TimeNs
}

func classEff(lib gpu.LibraryProfile, c trace.Class) float64 {
	switch c {
	case trace.ClassNTT, trace.ClassINTT:
		return lib.NTTEff
	case trace.ClassBConv:
		return lib.BConvEff
	default:
		return 1.0
	}
}

// Run executes the trace under the configuration.
func Run(t *trace.Trace, cfg Config) Result {
	res := Result{ClassTimeNs: map[trace.Class]float64{}}
	bufferSize := cfg.BufferSize
	if cfg.PIM != nil && bufferSize == 0 {
		bufferSize = cfg.PIM.BufferSize
	}
	prevPIM := false
	cursor := 0.0
	transitionNs := cfg.GPU.TransitionUs * 1e3

	// The counters' sums, per (class, platform) pair, flushed at the end.
	// The wall clock is read once per run of kernels of one pair, and the
	// run's time charged to it.
	sums := map[classKey]*classSum{}
	var cur *classSum
	var curKey classKey
	var runStart time.Time

	for _, k := range t.Kernels {
		onPIM := k.Offload && cfg.PIM != nil && k.Class == trace.ClassEW
		var timeNs, energyNJ float64
		var bytes float64
		if key := (classKey{k.Class, onPIM}); cur == nil || key != curKey {
			now := time.Now()
			if cur != nil {
				cur.wallS += now.Sub(runStart).Seconds()
			}
			if cur = sums[key]; cur == nil {
				cur = &classSum{}
				sums[key] = cur
			}
			curKey, runStart = key, now
		}

		if onPIM {
			cost := pimKernelCost(*cfg.PIM, k, t.P.N, bufferSize, !cfg.NaiveLayout)
			timeNs = cost.TimeNs
			// The GPU idles (but stays powered) while PIM computes.
			energyNJ = cost.EnergyNJ + timeNs*cfg.GPU.StaticW
			bytes = float64(cost.Bytes)
			res.PIMTimeNs += timeNs
			res.PIMBytes += bytes
		} else {
			kb := k.Bytes
			if k.Class == trace.ClassEW && !cfg.Lib.EWFusion {
				kb *= 1.5 // unfused libraries round-trip intermediates
			}
			if cfg.PIM != nil && !cfg.DisableWriteBacks {
				// Most PIM-consumed data would spill to DRAM anyway (§V-D:
				// "GPUs often do not have enough cache to hold ModUp(a)");
				// only the fraction that could have stayed cached is extra.
				wb := writeBackFraction * k.WriteBack
				kb += wb
				res.WriteBackBytes += wb
			}
			cost := cfg.GPU.KernelCost(k.WeightedOps, kb, classEff(cfg.Lib, k.Class))
			timeNs = cost.TimeNs
			energyNJ = cost.EnergyNJ
			bytes = kb
			res.GPUTimeNs += timeNs
			res.GPUBytes += bytes
			res.OneTimeBytes += k.OneTime
		}
		cur.kernels++
		cur.simNs += timeNs
		cur.bytes += bytes

		if onPIM != prevPIM {
			res.Transitions++
			cursor += transitionNs
			res.TimeNs += transitionNs
		}
		prevPIM = onPIM

		res.Timeline = append(res.Timeline, Segment{
			Name: k.Name, Class: k.Class, PIM: onPIM, StartNs: cursor, DurNs: timeNs,
		})
		cursor += timeNs
		res.TimeNs += timeNs
		res.EnergyNJ += energyNJ
		res.ClassTimeNs[k.Class] += timeNs
	}
	if cur != nil {
		cur.wallS += time.Since(runStart).Seconds()
	}
	for key, sum := range sums {
		sum.flush(key)
	}
	return res
}

// pimKernelCost prices an element-wise kernel on the PIM model, falling back
// to the unfused instruction sequence when the compound form does not fit in
// the data buffer (§VII-C).
func pimKernelCost(u pim.UnitConfig, k trace.Kernel, n, bufferSize int, cp bool) pim.Cost {
	cost, err := u.InstrCost(k.Op, k.OpK, k.Limbs, n, bufferSize, cp)
	if err != nil {
		// Decompose: PAccum -> K PMACs, CAccum -> K CMACs, Tensor -> Mult+2MAC.
		var fallback pim.Cost
		switch k.Op {
		case pim.PAccum:
			c, _ := u.InstrCost(pim.PMAC, 0, k.Limbs, n, bufferSize, cp)
			for i := 0; i < k.OpK; i++ {
				fallback.Add(c)
			}
		case pim.CAccum:
			c, _ := u.InstrCost(pim.CMAC, 0, k.Limbs, n, bufferSize, cp)
			for i := 0; i < 2*k.OpK; i++ {
				fallback.Add(c)
			}
		case pim.Tensor, pim.TensorSq:
			c, _ := u.InstrCost(pim.Mult, 0, k.Limbs, n, bufferSize, cp)
			m, _ := u.InstrCost(pim.MAC, 0, k.Limbs, n, bufferSize, cp)
			fallback.Add(c)
			fallback.Add(m)
			fallback.Add(m)
		default:
			c, _ := u.InstrCost(pim.Move, 0, k.Limbs, n, bufferSize, cp)
			fallback.Add(c)
			fallback.Add(c)
		}
		cost = fallback
	}
	total := pim.Cost{}
	for i := 0; i < k.Instances; i++ {
		total.Add(cost)
	}
	return total
}
