package experiments

import (
	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/report"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

// ExtFusionPassMetrics is one cumulative fusion-pass stage of the bootstrap
// trace: the kernel count and DRAM traffic after the pass, and the simulated
// time on the GPU-only and GPU+PIM platforms.
type ExtFusionPassMetrics struct {
	Stage      string
	Kernels    int
	TrafficGB  float64
	GPUMs      float64
	SpeedupGPU float64
	PIMMs      float64
	SpeedupPIM float64
}

// ExtFusionPasses rebuilds the paper's §V op-sequence rewrites one pass at a
// time: starting from the bootstrap trace built with no pass selected (every
// compound in its naive form), it applies SwapAutPMult, AutAccum, PAccum and
// CAccum cumulatively, simulating each stage on the GPU-only and A100
// near-bank co-execution models. The builder runs the same passes per op
// under AnaheimDefault, so the final stage is kernel-for-kernel the Anaheim
// trace and the rows decompose its win into per-pass contributions.
func ExtFusionPasses() ([]ExtFusionPassMetrics, *report.Table) {
	p := trace.PaperParams()
	boot := workloads.DefaultBoot()
	cfgGPU := sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()}
	u := pim.A100NearBank()
	cfgPIM := sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar(), PIM: &u}

	naive := trace.Options{Hoist: true, PIM: true}
	gpuStages := passReport(workloads.Bootstrap(p, naive, boot), cfgGPU, trace.AllPasses()...)
	pimStages := passReport(workloads.Bootstrap(p, naive, boot), cfgPIM, trace.AllPasses()...)

	var out []ExtFusionPassMetrics
	tbl := &report.Table{
		Title: "Extension: per-pass fusion gains on Boot (naive split kernels -> Anaheim, cumulative)",
		Headers: []string{"After pass", "kernels", "traffic",
			"GPU-only", "speedup", "A100+PIM", "speedup"},
	}
	for i, s := range gpuStages {
		m := ExtFusionPassMetrics{
			Stage:      s.Name,
			Kernels:    s.Kernels,
			TrafficGB:  s.Bytes / 1e9,
			GPUMs:      s.SimTimeNs / 1e6,
			SpeedupGPU: s.speedupOver(gpuStages[0]),
			PIMMs:      pimStages[i].SimTimeNs / 1e6,
			SpeedupPIM: pimStages[i].speedupOver(pimStages[0]),
		}
		out = append(out, m)
		tbl.AddRow(m.Stage, report.F(float64(m.Kernels), 0), report.F(m.TrafficGB, 2)+"GB",
			report.F(m.GPUMs, 2)+"ms", report.X(m.SpeedupGPU),
			report.F(m.PIMMs, 2)+"ms", report.X(m.SpeedupPIM))
	}
	tbl.AddNote("swap-aut-pmult reorders only (§V-B); AutAccum = Fig 6; PAccum/CAccum = Table II compounds")
	return out, tbl
}

// passStage is one row of a pass report: the trace after the named rewrite
// stage, with its simulated time under the report's scheduler configuration.
type passStage struct {
	Name      string
	Kernels   int
	Bytes     float64 // total DRAM traffic of the trace at this stage
	SimTimeNs float64
}

// speedupOver returns this stage's simulated speedup over a baseline row.
func (s passStage) speedupOver(base passStage) float64 {
	if s.SimTimeNs == 0 {
		return 0
	}
	return base.SimTimeNs / s.SimTimeNs
}

// passReport applies the passes cumulatively to t (mutating it), running the
// scheduler after each pass. Row 0 is the un-rewritten baseline; row i+1 is
// the state after passes[i].
func passReport(t *trace.Trace, cfg sched.Config, passes ...trace.TracePass) []passStage {
	stages := make([]passStage, 0, len(passes)+1)
	base := sched.Run(t, cfg)
	stages = append(stages, passStage{
		Name: "naive", Kernels: len(t.Kernels), Bytes: t.TotalBytes(), SimTimeNs: base.TimeNs,
	})
	for _, p := range passes {
		trace.Apply(t, p)
		r := sched.Run(t, cfg)
		stages = append(stages, passStage{
			Name: p.Name(), Kernels: len(t.Kernels), Bytes: t.TotalBytes(), SimTimeNs: r.TimeNs,
		})
	}
	return stages
}
