package experiments

import (
	"fmt"
	"strings"

	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/report"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

// --- Fig 9 -------------------------------------------------------------------

// Fig9Point is one (config, instruction, B) microbenchmark sample.
type Fig9Point struct {
	Config    string
	Op        pim.Opcode
	K         int
	B         int
	Supported bool
	Speedup   float64
	EnergyEff float64
}

// Fig9 sweeps every Table II instruction over buffer sizes B in 4..64 on
// all three PIM configurations.
func Fig9() ([]Fig9Point, *report.Table) {
	var out []Fig9Point
	tbl := &report.Table{
		Title:   "Fig 9: PIM instruction microbenchmark vs data buffer entries B",
		Headers: []string{"Config", "Instr", "B=4", "B=8", "B=16", "B=32", "B=64"},
	}
	bs := []int{4, 8, 16, 32, 64}
	for _, pl := range pimPlatforms() {
		u := *pl.PIM
		for _, op := range pim.AllOpcodes() {
			k := 0
			if op == pim.PAccum {
				k = 4
			}
			if op == pim.CAccum {
				k = 8
			}
			row := []string{u.Name, op.String()}
			for _, b := range bs {
				mb := u.RunMicrobenchmark(op, k, b)
				out = append(out, Fig9Point{u.Name, op, k, b, mb.Supported, mb.Speedup, mb.EnergyEff})
				if mb.Supported {
					row = append(row, fmt.Sprintf("%.2fx/%.1fx", mb.Speedup, mb.EnergyEff))
				} else {
					row = append(row, "n/s")
				}
			}
			tbl.AddRow(row...)
		}
	}
	tbl.AddNote("cells: speedup/energy-efficiency vs GPU; n/s = unsupported at that B (buffer too small)")
	tbl.AddNote("paper: 1.65-10.33x speedups, 2.63-17.39x energy at default B; PAccum 7.26x and CAccum 10.33x on A100 NB")
	return out, tbl
}

// --- Fig 10 ------------------------------------------------------------------

// Fig10Metrics is one (platform, workload, configuration) sample of the
// sensitivity study.
type Fig10Metrics struct {
	Platform string
	Workload string
	Variant  string
	TimeMs   float64
	EWMs     float64
	EDP      float64
}

// fig10Variant is one incremental configuration of Fig 10.
type fig10Variant struct {
	Name string
	Opt  trace.Options
}

// fig10Variants enumerates the incremental configurations of Fig 10;
// ExtraFuse only applies without PIM.
func fig10Variants(pimOn bool) []fig10Variant {
	v := []fig10Variant{
		{"Base", trace.Options{Hoist: true, PIM: pimOn}},
		{"+BasicFuse", trace.Options{Hoist: true, PIM: pimOn, BasicFuse: true}},
		{"+AutFuse", trace.Options{Hoist: true, PIM: pimOn, BasicFuse: true, AutFuse: true}},
	}
	if !pimOn {
		v = append(v, fig10Variant{"+ExtraFuse", trace.Options{Hoist: true, BasicFuse: true, AutFuse: true, ExtraFuse: true}})
	}
	return v
}

// Fig10 runs the fusion sensitivity study (and the w/o CP layout ablation)
// on both near-bank platforms.
func Fig10() ([]Fig10Metrics, *report.Table) {
	p := trace.PaperParams()
	var out []Fig10Metrics
	tbl := &report.Table{
		Title:   "Fig 10: sensitivity to kernel fusion and the column-partitioning layout",
		Headers: []string{"Platform", "Workload", "Variant", "time", "EW time", "EDP"},
	}
	for _, pl := range Platforms() {
		if pl.ID == "a100-customhbm" {
			continue // Fig 10 studies the two near-bank designs
		}
		for _, w := range []string{"Boot", "HELR"} {
			wl, _ := workloads.ByName(w)
			if workloads.FootprintGB(w, p) > pl.GPU.DRAM.CapacityGB {
				continue
			}
			for _, v := range fig10Variants(pl.PIM != nil) {
				r := sched.Run(wl.Gen(p, v.Opt), pl.Sched())
				m := Fig10Metrics{pl.Name, w, v.Name, r.TimeMs(), r.ClassTimeNs[trace.ClassEW] / 1e6, r.EDP()}
				out = append(out, m)
				tbl.AddRow(pl.Name, w, v.Name, report.Ms(r.TimeNs), report.F(m.EWMs, 2)+"ms", report.F(m.EDP, 1))
			}
			// Layout ablation: all algorithms on, naive contiguous layout.
			if pl.PIM != nil {
				cfg := pl.Sched()
				cfg.NaiveLayout = true
				r := sched.Run(wl.Gen(p, trace.AnaheimDefault()), cfg)
				m := Fig10Metrics{pl.Name, w, "w/o CP", r.TimeMs(), r.ClassTimeNs[trace.ClassEW] / 1e6, r.EDP()}
				out = append(out, m)
				tbl.AddRow(pl.Name, w, "w/o CP", report.Ms(r.TimeNs), report.F(m.EWMs, 2)+"ms", report.F(m.EDP, 1))
			}
		}
	}
	tbl.AddNote("paper: w/o CP slows element-wise ops 2.24x (A100) / 2.11x (4090) geomean, nullifying the gains")
	return out, tbl
}

// --- Table III ---------------------------------------------------------------

// Table3 prints the modeled hardware configurations.
func Table3() *report.Table {
	tbl := &report.Table{
		Title: "Table III: tested GPUs and Anaheim configurations",
		Headers: []string{"Config", "DRAM", "banks", "PIM clock", "B", "BW incr",
			"area mm2/die", "area %"},
	}
	for _, pl := range pimPlatforms() {
		u := pl.PIM
		tbl.AddRow(u.Name, u.DRAM.Name, fmt.Sprint(u.DRAM.TotalBanks()),
			fmt.Sprintf("%.0fMHz", u.ClockMHz), fmt.Sprint(u.BufferSize),
			fmt.Sprintf("%.0fx", u.BWIncrease), report.F(u.AreaMM2PerDie, 2),
			report.F(100*u.AreaPortion, 2))
	}
	return tbl
}

// --- Table IV ----------------------------------------------------------------

// Table4 prints the default CKKS parameters.
func Table4() *report.Table {
	p := trace.PaperParams()
	tbl := &report.Table{
		Title:   "Table IV: default parameters",
		Headers: []string{"N", "primes", "L", "alpha", "D", "Delta", "H_d", "H_s", "lambda"},
	}
	tbl.AddRow("2^16", "< 2^28", fmt.Sprint(p.L), fmt.Sprint(p.Alpha), fmt.Sprint(p.D),
		"2^48 (double-prime)", "2^8", "2^5", ">= 128")
	return tbl
}

// --- Table V -----------------------------------------------------------------

// Table5Row is one proposal's reported workload times.
type Table5Row struct {
	Proposal string
	Measured bool // measured by this simulator vs reported by the paper
	BootMs   float64
	HELRMs   float64
	R20s     float64
	SortS    float64
}

// Table5 runs Anaheim's rows and reproduces the paper-reported rows of prior
// work for comparison.
func Table5() ([]Table5Row, *report.Table) {
	p := trace.PaperParams()
	prior := []Table5Row{
		{Proposal: "100x (V100) [38]", BootMs: 328, HELRMs: 775},
		{Proposal: "TensorFHE (A100) [28]", BootMs: 250, HELRMs: 1007, R20s: 4.94},
		{Proposal: "GME (MI100) [74]", BootMs: 33.6, HELRMs: 54.5, R20s: 0.98},
		{Proposal: "FAB (FPGA) [3]", BootMs: 477, HELRMs: 103},
		{Proposal: "Poseidon (FPGA) [78]", BootMs: 128, HELRMs: 72.9, R20s: 2.66},
		{Proposal: "CraterLake (ASIC) [72]", BootMs: 6.33, HELRMs: 3.81, R20s: 0.32},
		{Proposal: "BTS (ASIC) [47]", BootMs: 28.6, HELRMs: 28.4, R20s: 1.91, SortS: 15.6},
		{Proposal: "ARK (ASIC) [46]", BootMs: 3.52, HELRMs: 7.42, R20s: 0.13, SortS: 1.99},
		{Proposal: "SHARP (ASIC) [45]", BootMs: 3.12, HELRMs: 2.53, R20s: 0.10, SortS: 1.38},
	}
	rows := prior
	for _, pl := range pimPlatforms() {
		// "A100 near-bank" is listed as "Anaheim (A100, near-bank)".
		row := Table5Row{Proposal: "Anaheim (" + strings.Replace(pl.Name, " ", ", ", 1) + ")", Measured: true}
		for _, c := range []struct {
			name string
			dst  *float64
			div  float64 // ms per reported unit
		}{{"Boot", &row.BootMs, 1}, {"HELR", &row.HELRMs, 1}, {"ResNet20", &row.R20s, 1e3}, {"Sort", &row.SortS, 1e3}} {
			if workloads.FootprintGB(c.name, p) > pl.GPU.DRAM.CapacityGB {
				continue // OoM (ResNet20 on the RTX 4090)
			}
			w, _ := workloads.ByName(c.name)
			*c.dst = sched.Run(w.Gen(p, trace.AnaheimDefault()), pl.Sched()).TimeMs() / c.div
		}
		rows = append(rows, row)
	}
	tbl := &report.Table{
		Title:   "Table V: Boot / HELR / ResNet20 / Sort vs prior work",
		Headers: []string{"Proposal", "Boot", "HELR", "R20", "Sort", "source"},
	}
	fmtOr := func(v float64, f string) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf(f, v)
	}
	for _, r := range rows {
		src := "paper-reported"
		if r.Measured {
			src = "measured (this simulator)"
		}
		tbl.AddRow(r.Proposal, fmtOr(r.BootMs, "%.1fms"), fmtOr(r.HELRMs, "%.1fms"),
			fmtOr(r.R20s, "%.2fs"), fmtOr(r.SortS, "%.1fs"), src)
	}
	tbl.AddNote("paper Anaheim rows: Boot 29.3/32.7/32.6ms, HELR 41.2/43.5/33.7ms, R20 1.02/1.12s/OoM, Sort 12.3/13.6/13.0s")
	return rows, tbl
}
