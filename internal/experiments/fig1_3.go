package experiments

import (
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/report"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

// runBoot executes the default bootstrap trace under the given options.
func runBoot(p trace.Params, opt trace.Options, cfg sched.Config, boot workloads.BootConfig) (sched.Result, *trace.Trace) {
	t := workloads.Bootstrap(p, opt, boot)
	return sched.Run(t, cfg), t
}

// --- Fig 1 table -------------------------------------------------------------

// Fig1Metrics compares the CoeffToSlot collection under Base, Hoisting, and
// MinKS: evaluation-key and plaintext volumes and (I)NTT limb-transform
// counts (the table embedded in Fig 1).
type Fig1Metrics struct {
	Alg        string
	EvkCount   int
	EvkGB      float64
	PtGB       float64
	NTTLimbOps float64
}

// Fig1Table evaluates CoeffToSlot (the paper's default fftIter split) under
// the three linear-transform algorithms.
func Fig1Table() ([]Fig1Metrics, *report.Table) {
	p := trace.PaperParams()
	boot := workloads.DefaultBoot()
	var out []Fig1Metrics
	for _, alg := range []struct {
		name string
		opt  trace.Options
	}{
		{"Base", trace.Options{}},
		{"Hoisting", trace.Options{Hoist: true}},
		{"MinKS", trace.Options{MinKS: true}},
	} {
		b := trace.NewBuilder(p, alg.opt, "C2S")
		lvl := p.L - 1
		evks, evkGB, ptGB := 0, 0.0, 0.0
		for i := 0; i < boot.FFTIterC2S; i++ {
			k := workloads.DiagCount(boot.SlotsLog, boot.FFTIterC2S, i)
			b.LinearTransform(lvl, k)
			evks += b.EvkCount(k)
			ptGB += b.PlaintextBytes(lvl, k) / 1e9
			lvl -= 2
		}
		if alg.opt.MinKS {
			evks = 2 // the iteration keys are shared across the matrices
		}
		evkGB = float64(evks) * p.EvkBytes(p.L-1) / 1e9
		out = append(out, Fig1Metrics{
			Alg: alg.name, EvkCount: evks, EvkGB: evkGB, PtGB: ptGB,
			NTTLimbOps: b.T.NTTLimbTransforms(),
		})
	}
	tbl := &report.Table{
		Title:   "Fig 1 (table): CoeffToSlot under Base / Hoisting / MinKS",
		Headers: []string{"Algorithm", "#evks", "evk GB", "pt GB", "(I)NTT limb ops"},
	}
	for _, m := range out {
		tbl.AddRow(m.Alg, fmt.Sprint(m.EvkCount), report.F(m.EvkGB, 2), report.F(m.PtGB, 2), report.F(m.NTTLimbOps, 0))
	}
	tbl.AddNote("paper: hoisting cuts (I)NTT ops 2.47x; MinKS needs ~4x fewer evks but extra ModSwitch")
	return out, tbl
}

// --- Fig 2a ------------------------------------------------------------------

// Fig2aMetrics is one (library, function) execution-time breakdown.
type Fig2aMetrics struct {
	Library  string
	Function string
	TimeUs   float64
	EWShare  float64
}

// Fig2a reproduces the basic-function comparison across Phantom, 100x and
// Cheddar on the A100 model.
func Fig2a() ([]Fig2aMetrics, *report.Table) {
	p := trace.PaperParams()
	libs := []gpu.LibraryProfile{gpu.Phantom(), gpu.HundredX(), gpu.Cheddar()}
	fns := []struct {
		name string
		emit func(b *trace.Builder)
	}{
		{"HADD", func(b *trace.Builder) { b.HADD(p.L - 1) }},
		{"PMULT", func(b *trace.Builder) { b.PMULT(p.L - 1) }},
		{"HMULT", func(b *trace.Builder) { b.HMULT(p.L - 1) }},
		{"HROT", func(b *trace.Builder) { b.HROT(p.L - 1) }},
	}
	var out []Fig2aMetrics
	tbl := &report.Table{
		Title:   "Fig 2a: basic CKKS function times on A100 80GB by library",
		Headers: []string{"Library", "Function", "time", "EW%", "NTT%", "BConv%", "Aut%"},
	}
	for _, lib := range libs {
		for _, fn := range fns {
			b := trace.NewBuilder(p, trace.GPUBaseline(), fn.name)
			fn.emit(b)
			r := sched.Run(b.T, sched.Config{GPU: gpu.A100(), Lib: lib})
			out = append(out, Fig2aMetrics{lib.Name, fn.name, r.TimeNs / 1e3, r.EWShare()})
			tbl.AddRow(lib.Name, fn.name, fmt.Sprintf("%.1fus", r.TimeNs/1e3),
				report.F(100*r.EWShare(), 1),
				report.F(100*(r.ClassTimeNs[trace.ClassNTT]+r.ClassTimeNs[trace.ClassINTT])/r.TimeNs, 1),
				report.F(100*r.ClassTimeNs[trace.ClassBConv]/r.TimeNs, 1),
				report.F(100*r.ClassTimeNs[trace.ClassAut]/r.TimeNs, 1))
		}
	}
	tbl.AddNote("paper: Cheddar is 1.79x/1.54x faster than Phantom on HMULT/HROT via 1.73-1.81x faster (I)NTT+BConv")
	return out, tbl
}

// --- Fig 2b ------------------------------------------------------------------

// Fig2bMetrics is one (GPU, D) bootstrapping data point.
type Fig2bMetrics struct {
	GPU     string
	D       int
	OoM     bool
	TbootMs float64 // T_boot,eff
	EWShare float64
	LEff    int
}

// Fig2b sweeps the decomposition number D on both GPUs (GPU-only, Cheddar).
func Fig2b() ([]Fig2bMetrics, *report.Table) {
	var out []Fig2bMetrics
	tbl := &report.Table{
		Title:   "Fig 2b: T_boot,eff breakdown vs decomposition number D",
		Headers: []string{"GPU", "D", "L", "alpha", "L_eff", "T_boot,eff", "EW%", "status"},
	}
	for _, g := range []gpu.Config{gpu.A100(), gpu.RTX4090()} {
		for _, d := range []int{2, 3, 4, 6, 8} {
			p := trace.PaperParams().WithD(d)
			boot := workloads.DefaultBoot()
			m := Fig2bMetrics{GPU: g.Name, D: d}
			if workloads.BootFootprintGB(p, boot) > g.DRAM.CapacityGB {
				m.OoM = true
				out = append(out, m)
				tbl.AddRow(g.Name, fmt.Sprint(d), fmt.Sprint(p.L), fmt.Sprint(p.Alpha), "-", "-", "-", "OoM")
				continue
			}
			r, t := runBoot(p, trace.GPUBaseline(), sched.Config{GPU: g, Lib: gpu.Cheddar()}, boot)
			m.LEff = t.LEff
			m.TbootMs = r.TimeMs() / float64(t.LEff)
			m.EWShare = r.EWShare()
			out = append(out, m)
			tbl.AddRow(g.Name, fmt.Sprint(d), fmt.Sprint(p.L), fmt.Sprint(p.Alpha),
				fmt.Sprint(t.LEff), report.F(m.TbootMs, 2)+"ms", report.F(100*m.EWShare, 1), "ok")
		}
	}
	tbl.AddNote("paper: element-wise ops reach 45-48%% (A100) and 68-69%% (RTX4090) across D")
	return out, tbl
}

// --- Fig 2c ------------------------------------------------------------------

// Fig2cMetrics is one algorithm's bootstrapping result on the A100.
type Fig2cMetrics struct {
	Alg     string
	TbootMs float64
	EWShare float64
}

// Fig2c compares Base / MinKS / Hoist at D=4 on the A100 (GPU-only).
func Fig2c() ([]Fig2cMetrics, *report.Table) {
	p := trace.PaperParams()
	var out []Fig2cMetrics
	tbl := &report.Table{
		Title:   "Fig 2c: T_boot,eff for Base / MinKS / Hoist (A100, D=4)",
		Headers: []string{"Algorithm", "T_boot,eff", "EW%"},
	}
	for _, alg := range []struct {
		name string
		opt  trace.Options
	}{
		{"Base", trace.Options{BasicFuse: true, AutFuse: true, ExtraFuse: true}},
		{"MinKS", trace.Options{MinKS: true, BasicFuse: true, AutFuse: true, ExtraFuse: true}},
		{"Hoist", trace.GPUBaseline()},
	} {
		r, t := runBoot(p, alg.opt, sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()}, workloads.DefaultBoot())
		m := Fig2cMetrics{alg.name, r.TimeMs() / float64(t.LEff), r.EWShare()}
		out = append(out, m)
		tbl.AddRow(alg.name, report.F(m.TbootMs, 2)+"ms", report.F(100*m.EWShare, 1))
	}
	tbl.AddNote("paper: hoisting wins on GPUs; MinKS drops the EW share to ~28%% but is no faster")
	return out, tbl
}

// --- Fig 3 -------------------------------------------------------------------

// Fig3Metrics is one fftIter configuration.
type Fig3Metrics struct {
	Label   string
	LEff    int
	TbootMs float64
	EWShare float64
}

// Fig3 sweeps fftIter (including the default 3&4 mix) on the A100.
func Fig3() ([]Fig3Metrics, *report.Table) {
	p := trace.PaperParams()
	var out []Fig3Metrics
	tbl := &report.Table{
		Title:   "Fig 3: T_boot,eff vs fftIter (A100, GPU-only)",
		Headers: []string{"fftIter", "L_eff", "Boot time", "T_boot,eff", "EW%"},
	}
	for _, cfgv := range []struct {
		label    string
		c2s, s2c int
	}{
		{"3", 3, 3}, {"3&4 (default)", 4, 3}, {"4", 4, 4}, {"5", 5, 5}, {"6", 6, 6},
	} {
		boot := workloads.DefaultBoot()
		boot.FFTIterC2S, boot.FFTIterS2C = cfgv.c2s, cfgv.s2c
		r, t := runBoot(p, trace.GPUBaseline(), sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()}, boot)
		m := Fig3Metrics{cfgv.label, t.LEff, r.TimeMs() / float64(t.LEff), r.EWShare()}
		out = append(out, m)
		tbl.AddRow(cfgv.label, fmt.Sprint(t.LEff), report.Ms(r.TimeNs),
			report.F(m.TbootMs, 2)+"ms", report.F(100*m.EWShare, 1))
	}
	tbl.AddNote("paper: increasing fftIter trims EW share but the L_eff drop degrades T_boot,eff beyond 4")
	return out, tbl
}
