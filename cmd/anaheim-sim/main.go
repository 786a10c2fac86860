// Command anaheim-sim drives the paper's simulation stack (roofline GPU, DRAM
// bank timing, the Table II PIM unit) at the Table IV parameters. Speed is
// measured by the repo benchmark (`bash benchmark/run.sh`), not here.
//
//	anaheim-sim sim -workload Boot -platform a100-nearbank  # time, energy, EDP, traffic
//	anaheim-sim sim -all                                    # every workload x platform
//	anaheim-sim trace -workload Boot -limit 40  # kernel table + Fig 4a-style Gantt
//	anaheim-sim trace -lt 8                     # the paper's running-example transform
//	anaheim-sim exp -exp fig8 [-csv]            # one table or figure
//	anaheim-sim exp -all | -list                # every experiment, or their ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/experiments"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

var subcommands = map[string]func(args []string, out io.Writer) error{
	"sim":   runSim,
	"trace": runTrace,
	"exp":   runExp,
}

// run is the testable body of main: dispatch to the named subcommand.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: anaheim-sim sim|trace|exp [flags]")
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("anaheim-sim: unknown subcommand %q (want sim, trace or exp)", args[0])
	}
	return sub(args[1:], out)
}

func printResult(out io.Writer, r anaheim.SimResult) {
	if r.OoM {
		fmt.Fprintf(out, "%-10s %-18s OoM (exceeds DRAM capacity)\n", r.Workload, r.Platform)
		return
	}
	fmt.Fprintf(out, "%-10s %-18s time=%9.2fms energy=%8.1fmJ EDP=%12.1f EW=%4.1f%% gpuDRAM=%7.2fGB pimDRAM=%7.2fGB\n",
		r.Workload, r.Platform, r.TimeMs, r.EnergyMJ, r.EDP, 100*r.EWShare, r.GPUDramGB, r.PIMDramGB)
}

// runSim simulates one workload on one platform, or every pair with -all.
func runSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anaheim-sim sim", flag.ContinueOnError)
	workload := fs.String("workload", "Boot", "workload name (Boot, HELR, Sort, RNN, ResNet20, ResNet18)")
	platform := fs.String("platform", string(anaheim.A100NearBank), "platform id")
	all := fs.Bool("all", false, "simulate every workload on every platform")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *all {
		for _, w := range anaheim.Workloads() {
			for _, p := range experiments.Platforms() {
				r, err := anaheim.Simulate(w, anaheim.SimPlatform(p.ID))
				if err != nil {
					return err
				}
				printResult(out, r)
			}
		}
		return nil
	}
	r, err := anaheim.Simulate(*workload, anaheim.SimPlatform(*platform))
	if err != nil {
		return err
	}
	printResult(out, r)
	return nil
}

// runTrace builds a trace, schedules it, and prints the kernel table plus
// the Gantt chart.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anaheim-sim trace", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload trace to dump (Boot, HELR, ...)")
	lt := fs.Int("lt", 0, "emit a single hoisted linear transform with K diagonals instead")
	platform := fs.String("platform", "a100-nearbank", "a100 | a100-nearbank | a100-customhbm | rtx4090 | rtx4090-nearbank")
	limit := fs.Int("limit", 30, "max kernels to list (0 = all)")
	width := fs.Int("width", 100, "gantt width")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := trace.PaperParams()
	pl, err := experiments.PlatformByID(*platform)
	if err != nil {
		return err
	}
	var t *trace.Trace
	switch {
	case *lt > 0:
		b := trace.NewBuilder(p, pl.Options(), fmt.Sprintf("LT-K%d", *lt))
		b.LinearTransform(p.L-1, *lt)
		t = b.T
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		t = w.Gen(p, pl.Options())
	default:
		return errors.New("anaheim-sim trace: need -workload or -lt")
	}

	r := sched.Run(t, pl.Sched())
	fmt.Fprintf(out, "trace %s: %d kernels, %.2fms, %.1fmJ, GPU %.2fGB / PIM %.2fGB\n\n",
		t.Name, len(t.Kernels), r.TimeMs(), r.EnergyMJ(), r.GPUBytes/1e9, r.PIMBytes/1e9)

	n := len(r.Timeline)
	if *limit > 0 && *limit < n {
		n = *limit
	}
	fmt.Fprintf(out, "%-28s %-6s %-5s %12s %12s\n", "kernel", "class", "unit", "start(us)", "dur(us)")
	for _, s := range r.Timeline[:n] {
		unit := "GPU"
		if s.PIM {
			unit = "PIM"
		}
		fmt.Fprintf(out, "%-28s %-6s %-5s %12.2f %12.2f\n", s.Name, s.Class, unit, s.StartNs/1e3, s.DurNs/1e3)
	}
	if n < len(r.Timeline) {
		fmt.Fprintf(out, "... (%d more kernels)\n", len(r.Timeline)-n)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, sched.RenderGantt(r.Timeline, r.TimeNs, *width))
	return nil
}

// runExp regenerates one experiment, or all of them, or lists their ids.
func runExp(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anaheim-sim exp", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	list := fs.Bool("list", false, "list experiment ids")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiment := anaheim.RunExperiment
	if *csv {
		experiment = anaheim.RunExperimentCSV
	}

	switch {
	case *list:
		fmt.Fprintln(out, strings.Join(anaheim.ExperimentIDs(), "\n"))
	case *all:
		for _, id := range anaheim.ExperimentIDs() {
			table, err := experiment(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "=== %s ===\n%s\n", id, table)
		}
	case *exp != "":
		table, err := experiment(*exp)
		if err != nil {
			return err
		}
		fmt.Fprint(out, table)
	default:
		fs.Usage()
		return errors.New("anaheim-sim exp: one of -exp, -all or -list is required")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
