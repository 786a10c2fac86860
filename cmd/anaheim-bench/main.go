// Command anaheim-bench regenerates the Anaheim paper's evaluation tables
// and figures on the simulation stack.
//
// Usage:
//
//	anaheim-bench -exp fig8        # one experiment
//	anaheim-bench -all             # everything
//	anaheim-bench -list            # available experiment ids
//	anaheim-bench -micro -o BENCH_BASELINE.json   # FHE op microbenchmarks as JSON
//	anaheim-bench -micro -metrics                 # ...with obs registry snapshot attached
//	anaheim-bench -micro -membw                   # ...with estimated DRAM bytes-moved per op
//	anaheim-bench -compare BENCH_BASELINE.json -against new.json   # perf regression gate
//	anaheim-bench -tiertable new.json             # per-kernel-tier rows as markdown
//	anaheim-bench -tenants 8 -mix logreg,lintrans -duration 5s -batch both
//	                                              # many-tenant serving load driver:
//	                                              # per-tier p50/p99, batch occupancy,
//	                                              # batching-on vs batching-off
//	anaheim-bench -tenants 8 -batch both -gate -merge BENCH_BASELINE.json
//	                                              # ...enforce the batching win and
//	                                              # record it as the baseline's
//	                                              # .serving field
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/anaheim-sim/anaheim"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	micro := flag.Bool("micro", false, "run FHE op microbenchmarks, emit JSON")
	metrics := flag.Bool("metrics", false, "attach obs registry snapshot to -micro JSON")
	membw := flag.Bool("membw", false, "attach estimated DRAM bytes-moved per op (ring traffic model) to -micro JSON")
	outPath := flag.String("o", "", "write -micro JSON here instead of stdout")
	tierTable := flag.String("tiertable", "", "emit the per-kernel-tier rows of a -micro JSON as a markdown table")
	compareBase := flag.String("compare", "", "baseline -micro JSON to compare against")
	compareNew := flag.String("against", "", "candidate -micro JSON for -compare")
	tolerance := flag.Float64("tolerance", 25, "percent ns/op slowdown tolerated by -compare")
	tenants := flag.Int("tenants", 0, "run the many-tenant serving load driver with N tenant sessions")
	mix := flag.String("mix", "logreg,lintrans", "comma-separated workload mix for -tenants: logreg,lintrans,bootstrap")
	duration := flag.Duration("duration", 5*time.Second, "per-configuration wall clock for -tenants")
	batchWindow := flag.Duration("batchwindow", time.Millisecond, "staging window for the batching-on -tenants runs")
	batchMode := flag.String("batch", "both", "engine configurations for -tenants: off|on|both")
	gate := flag.Bool("gate", false, "with -tenants -batch both: fail (exit 3) unless batching-on beats batching-off without latency-tier p99 regression")
	mergeInto := flag.String("merge", "", "with -tenants: also attach the load report as the .serving field of an existing -micro JSON file")
	flag.Parse()

	run := func(id string) (string, error) {
		if *csv {
			return anaheim.RunExperimentCSV(id)
		}
		return anaheim.RunExperiment(id)
	}

	switch {
	case *tenants > 0:
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		rep, gateErr, err := runLoad(out, *tenants, *mix, *duration, *batchWindow, *batchMode, *gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *mergeInto != "" {
			if err := mergeServing(*mergeInto, rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if gateErr != nil {
			fmt.Fprintln(os.Stderr, gateErr)
			os.Exit(3) // soft failure, same convention as -compare
		}
	case *tierTable != "":
		if err := runTierTable(os.Stdout, *tierTable); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *compareBase != "":
		regressed, err := runCompare(os.Stdout, *compareBase, *compareNew, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(3) // distinct from hard errors so CI can treat it as a warning
		}
	case *micro:
		out := os.Stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := runMicro(out, *metrics, *membw); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *list:
		fmt.Println(strings.Join(anaheim.ExperimentIDs(), "\n"))
	case *all:
		for _, id := range anaheim.ExperimentIDs() {
			out, err := run(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("=== %s ===\n%s\n", id, out)
		}
	case *exp != "":
		out, err := run(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
