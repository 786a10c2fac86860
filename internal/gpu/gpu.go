// Package gpu is the analytical GPU execution model substituting for the
// real A100/RTX 4090 measurements of the paper (§VII-A): per-kernel roofline
// timing (integer throughput vs. off-chip DRAM bandwidth), NVML-style energy
// accounting, and library profiles capturing the relative kernel quality of
// Cheddar, 100×, and Phantom (Fig 2a).
//
// The substitution is justified by the paper's own analysis: element-wise
// ops run at < 2 ops/byte and are DRAM-bandwidth-bound, while (I)NTT and
// BConv are compute-bound (§IV-D) — precisely the two regimes a roofline
// captures.
package gpu

import (
	"github.com/anaheim-sim/anaheim/internal/dram"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Aggregate counters over every priced kernel, regardless of which
// experiment or scheduler asked: simulated time and DRAM traffic are the
// §VII measurement quantities; the kernel count normalizes them.
var (
	simKernels = obs.Default.Counter("gpu_sim_kernels_total")
	simTimeNs  = obs.Default.Counter("gpu_sim_time_ns_total")
	simBytes   = obs.Default.Counter("gpu_sim_bytes_total")
	simEnergy  = obs.Default.Counter("gpu_sim_energy_nj_total")
)

// Config describes one GPU (Table III).
type Config struct {
	Name string
	DRAM dram.Config

	IntTOPS   float64 // peak 32-bit integer multiply-and-add throughput
	EffBWFrac float64 // achieved fraction of peak DRAM bandwidth

	StaticW      float64 // baseline power while a kernel is resident
	ComputePJOp  float64 // energy per weighted integer op
	CorePJb      float64 // on-chip data movement energy per DRAM-touching bit
	TransitionUs float64 // GPU<->PIM kernel transition overhead (§V-C)
}

// A100 returns the NVIDIA A100 80GB model.
func A100() Config {
	return Config{
		Name:         "A100 80GB",
		DRAM:         dram.A100HBM2(),
		IntTOPS:      19.5,
		EffBWFrac:    0.85,
		StaticW:      90,
		ComputePJOp:  9,
		CorePJb:      4.0,
		TransitionUs: 2,
	}
}

// RTX4090 returns the RTX 4090 model.
func RTX4090() Config {
	return Config{
		Name:         "RTX 4090",
		DRAM:         dram.RTX4090GDDR6X(),
		IntTOPS:      41.3,
		EffBWFrac:    0.85,
		StaticW:      70,
		ComputePJOp:  7,
		CorePJb:      4.0,
		TransitionUs: 2,
	}
}

// EffBWGBs is the achieved DRAM bandwidth.
func (c Config) EffBWGBs() float64 { return c.DRAM.ExternalBWGBs * c.EffBWFrac }

// LibraryProfile captures a CKKS GPU library's kernel quality as the
// fraction of peak integer throughput its compute-bound kernels achieve.
// Element-wise kernels are bandwidth-bound on every library (§IV-D: "Cheddar
// also failed to improve them"), so no efficiency knob exists for them.
type LibraryProfile struct {
	Name     string
	NTTEff   float64
	BConvEff float64
	// Fusion support: Cheddar includes state-of-the-art kernel fusion [38];
	// the older libraries fuse less, paying extra element-wise round trips.
	EWFusion bool
}

// Cheddar is the paper's baseline library [44].
func Cheddar() LibraryProfile {
	return LibraryProfile{Name: "Cheddar", NTTEff: 0.45, BConvEff: 0.52, EWFusion: true}
}

// HundredX is the 100× library [38]: Cheddar accelerates (I)NTT and BConv
// by 1.73-1.81× over it (§IV-A).
func HundredX() LibraryProfile {
	return LibraryProfile{Name: "100x", NTTEff: 0.45 / 1.80, BConvEff: 0.52 / 1.75, EWFusion: true}
}

// Phantom is the Phantom library [77].
func Phantom() LibraryProfile {
	return LibraryProfile{Name: "Phantom", NTTEff: 0.45 / 1.81, BConvEff: 0.52 / 1.73, EWFusion: false}
}

// Cost is a priced kernel execution.
type Cost struct {
	TimeNs   float64
	EnergyNJ float64
	Bytes    float64 // DRAM bytes moved
}

// KernelCost prices a kernel given its weighted integer-op count, its DRAM
// traffic, and the efficiency of its class under the given library.
func (c Config) KernelCost(weightedOps, bytes, classEff float64) Cost {
	computeNs := 0.0
	if weightedOps > 0 && classEff > 0 {
		computeNs = weightedOps / (c.IntTOPS * classEff * 1e3) // ops / (ops/ns)
	}
	memNs := bytes / c.EffBWGBs()
	t := computeNs
	if memNs > t {
		t = memNs
	}
	energy := t*c.StaticW + // ns * W = nJ
		weightedOps*c.ComputePJOp/1e3 +
		bytes*8*(c.DRAM.GPUAccessPJb()+c.CorePJb)/1e3
	simKernels.Inc()
	simTimeNs.Add(t)
	simBytes.Add(bytes)
	simEnergy.Add(energy)
	return Cost{TimeNs: t, EnergyNJ: energy, Bytes: bytes}
}
