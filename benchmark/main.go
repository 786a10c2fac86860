// Command benchmark is the repo benchmark: five workloads, each in its own
// re-exec'd child process configured by GOMAXPROCS alone, verified against a
// plaintext oracle, with a traced pass and a kernel-class replay for the
// per-layer numbers. See README.md; BENCHMARK.json at the repo root is the
// contract it is run under. It is a module of its own (go.mod beside this
// file) and run.sh, from the root of the checkout, builds and runs it:
//
//	bash benchmark/run.sh -all -seed 1                  every workload, every metric
//	bash benchmark/run.sh -only hks_n16_par -width 1    diagnostic run
//	bash benchmark/run.sh -repeat 2                     two full sets, compared
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

func parentMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and end with the driver's one-line JSON result")
	seed := fs.Int64("seed", 1, "workload seed: slot vectors and key seeds derive from it")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	all := fs.Bool("all", false, "run every workload, untraced then traced, and print every metric")
	only := fs.String("only", "", "like -all for one workload")
	width := fs.Int("width", 0, "diagnostic: override the workload's GOMAXPROCS (refused by -all and -repeat)")
	repeat := fs.Int("repeat", 0, "run the full set this many times and compare the sets against the bounds")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for <workload>.json and <workload>.spans.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := runConfig{seed: *seed, seconds: *seconds, width: *width, outDir: *outDir}
	switch {
	case *workload != "":
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		base.def, base.trace = def, *trace
		res, err := runWorkload(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(out, res)
		if err := writeJSON(filepath.Join(base.outDir, fmt.Sprintf("%s.trace%d.json", def.name, *trace)), res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return printDriverLine(out, res)
	case *all || *repeat > 0:
		if *width > 0 {
			fmt.Fprintln(os.Stderr, "benchmark: -width is a diagnostic and cannot stamp an official set; use it with -only")
			return 2
		}
		n := max(*repeat, 1)
		sets := make([]resultSet, n)
		ok := true
		for i := range sets {
			var err error
			if sets[i], err = runSet(out, base, workloadDefs); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			ok = ok && sets[i].digestsAgree(out)
		}
		if n > 1 && !compareSets(out, sets) {
			ok = false
		}
		if !ok {
			return 1
		}
		return 0
	case *only != "":
		def, found := findWorkload(*only)
		if !found {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *only)
			return 2
		}
		if _, err := runSet(out, base, []workloadDef{def}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}

// pairResult is one workload's untraced and traced run.
type pairResult struct {
	EndToEnd runResult `json:"end_to_end"`
	PerLayer runResult `json:"per_layer"`
}

type resultSet map[string]pairResult

// runSet runs each workload untraced (the end-to-end metrics) and then
// traced (the per-layer metrics), prints both and writes <workload>.json.
func runSet(out io.Writer, base runConfig, defs []workloadDef) (resultSet, error) {
	set := resultSet{}
	for _, def := range defs {
		var pair pairResult
		var err error
		c := base
		c.def, c.trace = def, 0
		if pair.EndToEnd, err = runWorkload(c); err != nil {
			return nil, err
		}
		printResult(out, pair.EndToEnd)
		c.trace = 1
		if pair.PerLayer, err = runWorkload(c); err != nil {
			return nil, err
		}
		printResult(out, pair.PerLayer)
		set[def.name] = pair
		if err := writeJSON(filepath.Join(base.outDir, def.name+".json"), pair); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a run by name, with its unit.
func printResult(out io.Writer, r runResult) {
	defs := append(append([]metricDef(nil), endToEndDefs...), harnessOnlyDefs...)
	kind := "end-to-end"
	if r.Trace == 1 {
		defs, kind = perLayerDefs, "per-layer"
	}
	stamp := ""
	if r.Diagnostic {
		stamp = " DIAGNOSTIC"
	}
	fmt.Fprintf(out, "== %s %s%s: GOMAXPROCS=%d seed=%d nproc=%d tier=%s %s commit=%s cpu=%q\n",
		r.Workload, kind, stamp, r.Procs, r.Host.Seed, r.Host.NProc, r.Host.KernelTier, r.Host.GoVersion, r.Host.Commit, r.Host.CPU)
	fmt.Fprintf(out, "%-16s %-34s %14d count\n", r.Workload, "attempted", r.Attempted)
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue // tboot_eff_ms outside boot_n12
		}
		note := ""
		if d.name == "op_p50_ms" {
			note = fmt.Sprintf("  (n=%d)", r.Samples)
		}
		if d.name == "op_tail_ms" {
			note = fmt.Sprintf("  (p%.4g, %d samples beyond)", 100*r.TailQ, r.TailBeyond)
			if r.TailOver < r.Samples {
				note = fmt.Sprintf("  (p%.4g of the %d ops in the quietest third of %d-op blocks, %d samples beyond)", 100*r.TailQ, r.TailOver, tailBlock, r.TailBeyond)
			}
			if r.TailBeyond < 10 {
				note += ": UNRESOLVED, the median"
			}
		}
		fmt.Fprintf(out, "%-16s %-34s %14.6g %s%s\n", r.Workload, d.name, v, d.unit, note)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "%-16s error: %s\n", r.Workload, e)
	}
}

// printDriverLine ends the output with the one JSON object the driver reads.
func printDriverLine(out io.Writer, r runResult) int {
	defs := endToEndDefs
	if r.Trace == 1 {
		defs = perLayerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	return 0
}

// digestsAgree checks that ciphertext bytes do not depend on the core count:
// hks_n16 and hks_n16_par run the same code on the same inputs.
func (s resultSet) digestsAgree(out io.Writer) bool {
	a, b := s["hks_n16"].PerLayer, s["hks_n16_par"].PerLayer
	if !a.correct() || !b.correct() {
		return true // nothing to compare; the failure is already reported
	}
	da, db := a.Metrics["ckks.result_digest"], b.Metrics["ckks.result_digest"]
	if da != db {
		fmt.Fprintf(out, "DIGEST MISMATCH: hks_n16 %012x != hks_n16_par %012x\n", uint64(da), uint64(db))
		return false
	}
	fmt.Fprintf(out, "digest hks_n16 == hks_n16_par (%012x)\n", uint64(da))
	return true
}

// compareSets prints, per workload and end-to-end metric, the value of each
// set, the largest relative difference from the first set and the bound, and
// reports whether every difference is within its bound.
func compareSets(out io.Writer, sets []resultSet) bool {
	agree := true
	names := make([]string, 0, len(sets[0]))
	for name := range sets[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "== repeat: %d sets\n", len(sets))
	for _, name := range names {
		for _, d := range append(append([]metricDef(nil), endToEndDefs...), harnessOnlyDefs...) {
			first, ok := sets[0][name].EndToEnd.Metrics[d.name]
			if !ok {
				continue
			}
			worst := 0.0
			vals := ""
			for _, s := range sets {
				v := s[name].EndToEnd.Metrics[d.name]
				vals += fmt.Sprintf(" %12.6g", v)
				switch {
				case first != 0:
					worst = math.Max(worst, math.Abs(v-first)/math.Abs(first))
				case v != 0: // failed_ratio rose from none
					worst = math.Inf(1)
				}
			}
			verdict := "ok"
			if worst > d.bound {
				verdict, agree = "DISAGREE", false
			}
			fmt.Fprintf(out, "%-16s %-16s%s  diff %6.2f%%  bound %4.0f%%  %s\n", name, d.name, vals, 100*worst, 100*d.bound, verdict)
		}
	}
	return agree
}
