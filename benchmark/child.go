package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// childEnv marks a process as a workload child. The parent re-execs its own
// binary with it set; the only other configuration a child gets from its
// environment is GOMAXPROCS.
const childEnv = "ANAHEIM_BENCH_CHILD"

// event is one line of the child's stdout. Every line is progress as far as
// the parent's watchdog is concerned.
type event struct {
	Ev   string `json:"ev"` // plan | beat | setup | op | layers | error
	Note string `json:"note,omitempty"`
	// plan, before anything that can hang: the unit ops the run will attempt
	// and its closed-loop clients.
	Ops     int `json:"ops,omitempty"`
	Clients int `json:"clients,omitempty"`

	Pass  string  `json:"pass,omitempty"` // op: timed | untraced | traced
	Ms    float64 `json:"ms,omitempty"`
	Bits  float64 `json:"bits,omitempty"`  // precision of the worst slot
	Level int     `json:"level,omitempty"` // level of the result, where the workload reports one
	Err   string  `json:"err,omitempty"`

	Layers metricSet `json:"layers,omitempty"`
}

// closedLoop runs ops unit ops per client back to back: a client sends its
// next op only when the previous one has returned.
func closedLoop(b bench, ops int, tr *tracer, parent int, emit func(opResult)) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				r := b.step(c, tr, parent)
				mu.Lock()
				emit(r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// The traced run spends these shares of --seconds on its pass with spans on
// and on each of the two passes with spans off around it; the rest of the
// run goes to the layer timings.
const (
	tracedShare   = 0.35
	untracedShare = 0.175
)

// spanMetrics maps the facade spans of the traced pass to their metrics.
var spanMetrics = []struct{ layer, name, metric string }{
	{"ckks", "encrypt", "ckks.encrypt_ms"},
	{"ckks", "decrypt", "ckks.decrypt_ms"},
	{"ckks", "rotate", "ckks.rotate_ms"},
	{"ckks", "mulrelin", "ckks.mulrelin_ms"},
	{"ckks", "bootstrap", "ckks.bootstrap_ms"},
}

// childMain runs one workload and streams events to out. It returns the
// process exit code.
func childMain(args []string, out io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	seconds := fs.Float64("seconds", 10, "")
	traced := fs.Int("trace", 0, "")
	tiny := fs.Bool("tiny", false, "")
	setupOnly := fs.Bool("setup-only", false, "")
	outDir := fs.String("out", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	enc := json.NewEncoder(out)
	var emu sync.Mutex
	send := func(e event) {
		emu.Lock()
		_ = enc.Encode(e) // a closed pipe means the parent is gone; nothing to report to
		emu.Unlock()
	}
	fail := func(err error) int {
		send(event{Ev: "error", Err: err.Error()})
		return 1
	}
	switch *workload { // synthetic children of the watchdog self-test
	case "_spin": // plans three ops, finishes one, hangs in the second
		send(event{Ev: "plan", Ops: 3, Clients: 1})
		send(event{Ev: "setup"})
		send(event{Ev: "op", Pass: "timed", Ms: 5, Bits: 64})
		for time.Since(start) < time.Minute { // long past any watchdog, yet never an orphan for good
		}
		return 0
	case "_hang": // plans three ops and hangs in its set-up: hks_n16_par at this commit
		send(event{Ev: "plan", Ops: 3, Clients: 1})
		for time.Since(start) < time.Minute {
		}
		return 0
	case "_exit":
		send(event{Ev: "beat", Note: "exiting"})
		return 3
	}

	b, err := newBench(*workload, *tiny)
	if err != nil {
		return fail(err)
	}
	defer b.close()
	// A pass is a fixed number of ops per client — the workload's nominal
	// rate times the seconds asked for — so that two commits do the same
	// work: the engine keeps every finished job, and a pass that ran for a
	// fixed time would charge a faster engine with more memory.
	def, _ := findWorkload(*workload)
	opsFor := func(share float64) int {
		if *tiny {
			return 2
		}
		return max(2, int(math.Round(share**seconds*def.opsPerS)))
	}
	planned := opsFor(1)
	if *traced != 0 {
		planned = 2*opsFor(untracedShare) + opsFor(tracedShare)
	}
	send(event{Ev: "plan", Ops: planned * b.clients(), Clients: b.clients()})
	layers := metricSet{}
	if err := b.setup(*seed, layers, func(note string) { send(event{Ev: "beat", Note: note}) }); err != nil {
		return fail(err)
	}
	send(event{Ev: "setup", Note: kernelTierName()})
	if *setupOnly { // one more sample of setup_s; the parent wants nothing else
		return 0
	}

	pass := func(name string, share float64, tr *tracer, parent int) (durs []float64) {
		closedLoop(b, opsFor(share), tr, parent, func(r opResult) {
			e := event{Ev: "op", Pass: name, Ms: ms(r.dur), Bits: r.bits, Level: r.level}
			if r.err != nil {
				e.Err = r.err.Error()
			}
			durs = append(durs, e.Ms)
			send(e)
		})
		return durs
	}
	if *traced == 0 {
		pass("timed", 1, nil, 0)
		return 0
	}

	// Traced run: a pass with spans on between two halves of a pass with
	// spans off, so that drift falls on both sides of the overhead ratio;
	// then the layer timings.
	plain := pass("untraced", untracedShare, nil, 0)
	tr := newTracer(*workload)
	root := tr.begin(0, "harness", *workload)
	meter := meterOps(tr, b)
	withSpans := pass("traced", tracedShare, tr, root)
	meter.metrics(len(withSpans), layers)
	plain = append(plain, pass("untraced", untracedShare, nil, 0)...)
	for _, sm := range spanMetrics {
		if d := tr.durationsMs(sm.layer, sm.name); len(d) > 0 {
			layers[sm.metric] = median(d)
		}
	}
	if p := median(plain); p > 0 {
		layers["obs.trace_overhead_ratio"] = median(withSpans) / p
	}
	send(event{Ev: "beat", Note: "layers"})
	if err := b.layers(tr, root, median(withSpans), layers); err != nil {
		return fail(fmt.Errorf("layer timings: %w", err))
	}
	simMetrics(layers)
	tr.end(root)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
		if err := tr.writeJSONL(filepath.Join(*outDir, *workload+".spans.jsonl")); err != nil {
			return fail(fmt.Errorf("write spans: %w", err))
		}
	}
	send(event{Ev: "layers", Layers: layers})
	return 0
}
