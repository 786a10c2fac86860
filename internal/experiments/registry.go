// Package experiments regenerates every table and figure of the Anaheim
// paper's evaluation (§III-B Fig 1 table, §IV Figs 2-3, §V Fig 4, §VII
// Figs 8-10, Tables III-V) on the simulation stack. Each experiment returns
// both machine-readable metrics (consumed by tests and benchmarks) and a
// formatted table mirroring the paper's presentation.
//
// The package also owns the two tables every simulator front end reads: the
// platforms of Table III by id, and the experiments by id.
package experiments

import (
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/report"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
)

// Platform bundles a GPU model with an optional PIM deployment.
type Platform struct {
	ID   string // command-line id, e.g. "a100-nearbank"
	Name string // label in the experiment tables
	GPU  gpu.Config
	PIM  *pim.UnitConfig // nil: GPU only
}

// Platforms returns the three Anaheim configurations of Table III and the
// two GPU-only baselines, each GPU's baseline first. It is the one place a
// platform id maps to hardware.
func Platforms() []Platform {
	a100nb, a100ch, r4090nb := pim.A100NearBank(), pim.A100CustomHBM(), pim.RTX4090NearBank()
	return []Platform{
		{"a100", "A100 GPU-only", gpu.A100(), nil},
		{"a100-nearbank", "A100 near-bank", gpu.A100(), &a100nb},
		{"a100-customhbm", "A100 custom-HBM", gpu.A100(), &a100ch},
		{"rtx4090", "RTX4090 GPU-only", gpu.RTX4090(), nil},
		{"rtx4090-nearbank", "RTX4090 near-bank", gpu.RTX4090(), &r4090nb},
	}
}

// PlatformByID returns the platform with the given id.
func PlatformByID(id string) (Platform, error) {
	for _, p := range Platforms() {
		if p.ID == id {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("unknown platform %q", id)
}

// pimPlatforms returns the Anaheim configurations of Table III in order.
func pimPlatforms() []Platform {
	var out []Platform
	for _, p := range Platforms() {
		if p.PIM != nil {
			out = append(out, p)
		}
	}
	return out
}

// Sched returns the scheduler configuration of the platform: its GPU running
// the Cheddar library, offloading to its PIM if it has one.
func (p Platform) Sched() sched.Config {
	return sched.Config{GPU: p.GPU, Lib: gpu.Cheddar(), PIM: p.PIM}
}

// Options returns the trace options a workload is generated with on the
// platform: Anaheim's defaults with PIM, the GPU baseline without.
func (p Platform) Options() trace.Options {
	if p.PIM != nil {
		return trace.AnaheimDefault()
	}
	return trace.GPUBaseline()
}

// Experiment is one reproducible artifact: its id and the function that
// regenerates its table.
type Experiment struct {
	ID    string
	Table func() *report.Table
}

// tableOf drops an experiment's metrics and keeps its table.
func tableOf[M any](run func() (M, *report.Table)) func() *report.Table {
	return func() *report.Table {
		_, tbl := run()
		return tbl
	}
}

// registry lists the paper's artifacts in presentation order, then the
// extension studies backing the §V-C and §VI-D discussion points.
var registry = []Experiment{
	{"fig1-table", tableOf(Fig1Table)},
	{"fig2a", tableOf(Fig2a)},
	{"fig2b", tableOf(Fig2b)},
	{"fig2c", tableOf(Fig2c)},
	{"fig3", tableOf(Fig3)},
	{"fig4a", tableOf(Fig4a)},
	{"fig4b", tableOf(Fig4b)},
	{"fig8", tableOf(Fig8)},
	{"fig9", tableOf(Fig9)},
	{"fig10", tableOf(Fig10)},
	{"table3", Table3},
	{"table4", Table4},
	{"table5", tableOf(Table5)},
	{"ext-gp-pim", tableOf(ExtGeneralPurposePIM)},
	{"ext-pipelining", tableOf(ExtPipelining)},
	{"ext-memories", tableOf(ExtMemoryTechnologies)},
	{"ext-fusion", tableOf(ExtFusionPasses)},
}

// Experiments returns every experiment in registry order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
