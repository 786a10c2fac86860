package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The test binary is its own workload child, exactly as the benchmark binary
// is: spawn re-execs os.Executable() with the child marker set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// A child that spins forever is killed once it has been silent for the
// deadline, and spawn still returns everything it said before.
func TestWatchdogKillsSpinningChild(t *testing.T) {
	start := time.Now()
	o, err := spawn(1, []string{"-workload", "_spin"}, 300*time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !o.killed || o.exitErr == nil {
		t.Errorf("killed=%v exitErr=%v, want a killed child", o.killed, o.exitErr)
	}
	if len(o.events) != 3 || o.events[2].Ev != "op" {
		t.Errorf("events = %+v, want the plan, the set-up and the one op before the spin", o.events)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("watchdog took %v to kill a child with a 300ms deadline", el)
	}
}

func TestWholeRunCapKillsBusyChild(t *testing.T) {
	o, err := spawn(1, []string{"-workload", "_spin"}, 10*time.Second, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !o.killed {
		t.Error("child outlived the whole-run cap")
	}
}

func TestChildExitingNonZeroIsNotAKill(t *testing.T) {
	o, err := spawn(1, []string{"-workload", "_exit"}, 10*time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if o.killed || o.exitErr == nil {
		t.Errorf("killed=%v exitErr=%v, want an unkilled child with an exit error", o.killed, o.exitErr)
	}
}

// A dead child still yields a complete end-to-end metric set: the op in
// flight and the ops not yet attempted are failed, and each contributes the
// deadline as its latency.
func TestDeadChildYieldsCompleteCensoredMetrics(t *testing.T) {
	for _, c := range []struct {
		name              string
		attempted, failed int
		p50, rate         float64
	}{
		// Planned three, finished one in 5 ms: latencies 5, 300, 300 ms, one
		// correct op in 0.605 s.
		{"_spin", 3, 2, 300, 1 / 0.605},
		{"_hang", 3, 3, 300, 0}, // never got through its set-up: all three planned ops are lost
		{"_exit", 1, 1, 300, 0}, // died before it planned anything
	} {
		def := workloadDef{name: c.name, procs: 1, deadlineS: 0.3, floorBits: 10}
		res, err := runWorkload(runConfig{def: def, seed: 1, seconds: 1, tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted != c.attempted || res.Failed != c.failed || res.correct() {
			t.Errorf("%s: attempted=%d failed=%d correct=%v, want %d, %d, false",
				c.name, res.Attempted, res.Failed, res.correct(), c.attempted, c.failed)
		}
		if len(res.Errors) == 0 {
			t.Errorf("%s: no error recorded", c.name)
		}
		for _, d := range endToEndDefs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: metric %s missing", c.name, d.name)
			}
		}
		if got := res.Metrics["op_p50_ms"]; got != c.p50 {
			t.Errorf("%s: op_p50_ms = %v, want %v: lost ops read the 300 ms deadline", c.name, got, c.p50)
		}
		if got, want := res.Metrics["failed_ratio"], float64(c.failed)/float64(c.attempted); got != want {
			t.Errorf("%s: failed_ratio = %v, want %v", c.name, got, want)
		}
		if got := res.Metrics["ops_per_s"]; math.Abs(got-c.rate) > 1e-9 {
			t.Errorf("%s: ops_per_s = %v, want %v", c.name, got, c.rate)
		}
	}
}

// Each workload's whole code path — set-up, warm-up, verified ops, traced
// pass, layer timings, replay, simulator — at logN=10 with two ops per pass.
// Children run at GOMAXPROCS=1 only (-width 1): at this commit the multi-core
// path hangs (ROADMAP P0), which the watchdog would record as every op
// failed, as it does for the spinning child above.
func TestWorkloadsAtTestShape(t *testing.T) {
	out := t.TempDir()
	digests := map[string]float64{}
	for _, def := range workloadDefs {
		base := runConfig{def: def, seed: 5, seconds: 1, tiny: true, width: 1, outDir: out}

		e2e, err := runWorkload(base)
		if err != nil {
			t.Fatal(err)
		}
		if !e2e.correct() || e2e.Attempted < 2 || !e2e.Diagnostic || e2e.Procs != 1 {
			t.Errorf("%s: attempted=%d failed=%d diagnostic=%v procs=%d errors=%v",
				def.name, e2e.Attempted, e2e.Failed, e2e.Diagnostic, e2e.Procs, e2e.Errors)
		}
		for _, d := range endToEndDefs {
			if v := e2e.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", def.name, d.name, v)
			}
		}
		if v := e2e.Metrics["precision_bits"]; v < def.floorBits {
			t.Errorf("%s: precision %v bits below the floor %v", def.name, v, def.floorBits)
		}
		if len(e2e.SetupS) != setupRuns {
			t.Errorf("%s: set up %d times, want %d", def.name, len(e2e.SetupS), setupRuns)
		}
		if v, ok := e2e.Metrics["failed_ratio"]; !ok || v != 0 {
			t.Errorf("%s: failed_ratio = %v (present %v), want 0", def.name, v, ok)
		}
		if v, ok := e2e.Metrics["tboot_eff_ms"]; ok != (def.name == "boot_n12") || (ok && !(v > 0)) {
			t.Errorf("%s: tboot_eff_ms = %v (present %v); only boot_n12 reports it", def.name, v, ok)
		}

		base.trace = 1
		layers, err := runWorkload(base)
		if err != nil {
			t.Fatal(err)
		}
		if !layers.correct() {
			t.Errorf("%s traced: attempted=%d failed=%d errors=%v", def.name, layers.Attempted, layers.Failed, layers.Errors)
		}
		if len(layers.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", def.name, len(layers.Metrics), len(perLayerDefs))
		}
		positive := []string{"modarith.vecmul_ns_per_coeff", "ntt.fwd_ns_per_limb", "ntt.inv_ns_per_limb",
			"rns.bconv_ns_per_rowpair", "rns.rescale_ns_per_limb", "ring.mac_ns_per_limb", "ring.aut_ns_per_limb",
			"ring.ntt_poly_ms", "ring.ntt_limb_transforms_per_op", "ring.bytes_moved_per_op", "par.width",
			"ckks.keygen_s", "ckks.evk_resident_mb", "ckks.keyswitches_per_op", "ckks.plan_alpha", "ckks.plan_digits",
			"runtime.allocs_per_op", "sched.sim_ms_boot_a100", "sched.speedup_boot_nearbank", "pim.instr_per_boot",
			"obs.trace_overhead_ratio"}
		switch def.name {
		case "hks_n16", "hks_n16_par":
			positive = append(positive, "ckks.rotate_ms", "ckks.mulrelin_ms", "ckks.result_digest",
				"replay.closure_ratio", "replay.ntt_count_ratio", "replay.ew_share", "sched.ew_share_op_a100", "trace.kernels_per_op")
			digests[def.name] = layers.Metrics["ckks.result_digest"]
		case "boot_n12":
			positive = append(positive, "ckks.bootstrap_ms", "ckks.tboot_eff_ms", "ckks.boot_setup_s", "ckks.lintrans_ms",
				"ckks.lintrans_keyswitches_per_op", "replay.closure_ratio", "replay.ntt_count_ratio")
		case "serve_mix_n12", "serve_mix_n12_c1":
			positive = append(positive, "engine.job_ms_unloaded", "engine.direct_chain_ms", "engine.overhead_ratio",
				"engine.exec_ms_p50", "keycache.resident_mb", "keycache.hit_ratio", "ckks.encrypt_ms", "ckks.decrypt_ms", "ckks.lintrans_ms")
		}
		for _, name := range positive {
			if v := layers.Metrics[name]; !(v > 0) {
				t.Errorf("%s: per-layer %s = %v, want > 0", def.name, name, v)
			}
		}

		spans := readSpans(t, filepath.Join(out, def.name+".spans.jsonl"))
		layersSeen := map[string]bool{}
		for _, s := range spans {
			layersSeen[s.Layer] = true
			if s.Workload != def.name || s.EndNs < s.StartNs {
				t.Errorf("%s: bad span %+v", def.name, s)
			}
		}
		for _, l := range []string{"harness", "ckks", "replay", "ntt", "rns", "ring"} {
			if !layersSeen[l] {
				t.Errorf("%s: no span of layer %q", def.name, l)
			}
		}
		for id, self := range selfTimesNs(spans) {
			if self < 0 {
				t.Errorf("%s: span %d has negative self time %d", def.name, id, self)
			}
		}
	}
	// Same code, inputs and seed: the ciphertext bytes must not differ.
	if a, b := digests["hks_n16"], digests["hks_n16_par"]; a != b || a == 0 {
		t.Errorf("result digests differ: hks_n16 %v, hks_n16_par %v", a, b)
	}
}

// -repeat passes two sets that differ within every bound and fails a set
// whose median op is slower than the bound allows, or in which an op failed
// where none had.
func TestCompareSetsGatesOnTheBounds(t *testing.T) {
	set := func(p50, failed float64) resultSet {
		return resultSet{"hks_n16": {EndToEnd: runResult{Metrics: metricSet{"op_p50_ms": p50, "failed_ratio": failed}}}}
	}
	for _, c := range []struct {
		name  string
		b     resultSet
		agree bool
	}{
		{"within the bound", set(110, 0), true},
		{"slower than the bound", set(130, 0), false},
		{"a failed op", set(100, 0.1), false},
	} {
		if got := compareSets(io.Discard, []resultSet{set(100, 0), c.b}); got != c.agree {
			t.Errorf("%s: compareSets = %v, want %v", c.name, got, c.agree)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	return spans
}
