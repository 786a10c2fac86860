package main

// metricDef names one metric exactly as BENCHMARK.json does. bound is the
// share of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// workloadDef is one benchmark workload: its name, the GOMAXPROCS its child
// runs under (0 = width), the watchdog deadline for one silent gap, the
// lowest precision (worst slot) an op may decrypt to, the nominal unit ops
// per second of one client (what turns --seconds into an op count), whether
// BENCHMARK.json lists it for the driver, and why it exists.
type workloadDef struct {
	name      string
	procs     int
	deadlineS float64
	floorBits float64
	opsPerS   float64
	listed    bool
	why       string
}

// The driver's contract takes only workloads on which no op fails. At this
// commit every key switch spins forever once GOMAXPROCS ≥ 2 (ROADMAP P0), so
// on any host with two cores the two width workloads end by watchdog with
// every op failed. That is the baseline they record; they are run by -all,
// -only and -workload like the others, and are to be listed in BENCHMARK.json
// by the change that follows the P0 fix. serve_mix_n12_c1 is the serving mix
// on one core with a fixed two tenants, so that the engine, the key cache and
// the client's encrypt/decode are gated by the driver before then, and by a
// baseline that P0 does not move.
var workloadDefs = []workloadDef{
	{"hks_n16", 1, 20, 20, 1.4, true, "Rotate then Mul at N=2^16, 26 Q limbs, alpha=7, D=4 on one core: the paper's dominant primitive at its own shape, out of cache; par/engine changes must not move it"},
	{"hks_n16_par", 0, 20, 20, 1.4, false, "Same code, inputs and seed as hks_n16 at GOMAXPROCS=min(nproc,4): isolates limb-level scaling of par, pipeline lanes and NTT stage split"},
	{"boot_n12", 1, 30, 10, 0.75, true, "Full bootstrap of a level-0 ciphertext (27 Q limbs, alpha=3, D=9) on one core: BSGS transforms, EvalMod, level-aware key switches, allocator-heavy"},
	{"serve_mix_n12", 0, 20, 15, 8, false, "Default engine, 2*width closed-loop tenants alternating logreg and lintrans jobs at logN=12: scheduler, key cache, pool contention, encrypt/decode on the round trip"},
	{"serve_mix_n12_c1", 1, 20, 15, 8, true, "The serve_mix_n12 tenants, jobs and default engine at GOMAXPROCS=1 with two tenants: engine, key cache and client encrypt/decode where par is bypassed and ROADMAP P0 cannot reach"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// endToEndDefs are measured with tracing off, by the parent, from the op
// stream of the timed pass. They are BENCHMARK.json's end_to_end list.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"precision_bits", "bits", "higher", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// harnessOnlyDefs are the two end-to-end metrics of the issue that the
// driver's contract cannot list: failed_ratio is 0 on a healthy run (the
// contract wants metrics that are never 0, and carries it as attempted and
// failed), and tboot_eff_ms exists on boot_n12 alone (every listed metric
// must be reported by every workload). The harness prints both and -repeat
// gates them; failed_ratio may not rise at all.
var harnessOnlyDefs = []metricDef{
	{"failed_ratio", "ratio", "lower", 0},
	{"tboot_eff_ms", "ms", "lower", 0.25},
}

// perLayerDefs are reported by the traced run. A metric that does not apply
// to a workload reads 0 there (engine.* outside serve_mix_n12*, replay.*
// inside it, ckks.bootstrap_ms outside boot_n12, ...). Shares, labels and
// plan shapes have no real direction; "better" is then only the direction
// the contract requires a value for.
var perLayerDefs = []metricDef{
	{"modarith.kernel_tier", "tier", "higher", 0},
	{"modarith.vecmul_ns_per_coeff", "ns", "lower", 0},

	{"ntt.fwd_ns_per_limb", "ns", "lower", 0},
	{"ntt.inv_ns_per_limb", "ns", "lower", 0},

	{"rns.bconv_ns_per_rowpair", "ns", "lower", 0},
	{"rns.rescale_ns_per_limb", "ns", "lower", 0},

	{"ring.mac_ns_per_limb", "ns", "lower", 0},
	{"ring.aut_ns_per_limb", "ns", "lower", 0},
	{"ring.ntt_poly_ms", "ms", "lower", 0},
	{"ring.ntt_parallel_eff", "ratio", "higher", 0},
	{"ring.ntt_limb_transforms_per_op", "count", "lower", 0},
	{"ring.bytes_moved_per_op", "MB", "lower", 0},
	{"ring.bytes_saved_per_op", "MB", "higher", 0},
	{"ring.pool_miss_ratio", "ratio", "lower", 0},

	{"par.width", "count", "higher", 0},
	{"par.dispatch_us", "us", "lower", 0},

	{"ckks.keygen_s", "s", "lower", 0},
	{"ckks.boot_setup_s", "s", "lower", 0},
	{"ckks.warmup_s", "s", "lower", 0},
	{"ckks.evk_resident_mb", "MB", "lower", 0},
	{"ckks.encrypt_ms", "ms", "lower", 0},
	{"ckks.decrypt_ms", "ms", "lower", 0},
	{"ckks.rotate_ms", "ms", "lower", 0},
	{"ckks.mulrelin_ms", "ms", "lower", 0},
	{"ckks.lintrans_ms", "ms", "lower", 0},
	{"ckks.lintrans_keyswitches_per_op", "count", "lower", 0},
	{"ckks.keyswitches_per_op", "count", "lower", 0},
	{"ckks.bootstrap_ms", "ms", "lower", 0},
	{"ckks.tboot_eff_ms", "ms", "lower", 0},
	{"ckks.plan_alpha", "count", "lower", 0},
	{"ckks.plan_digits", "count", "lower", 0},
	{"ckks.result_digest", "hash48", "higher", 0},

	{"engine.job_ms_unloaded", "ms", "lower", 0},
	{"engine.direct_chain_ms", "ms", "lower", 0},
	{"engine.overhead_ratio", "ratio", "lower", 0},
	{"engine.queue_wait_ms_p50", "ms", "lower", 0},
	{"engine.queue_wait_ms_p99", "ms", "lower", 0},
	{"engine.exec_ms_p50", "ms", "lower", 0},
	{"engine.rejected_total", "count", "lower", 0},
	{"engine.batch_occupancy", "count", "higher", 0},
	{"keycache.resident_mb", "MB", "lower", 0},
	{"keycache.hit_ratio", "ratio", "higher", 0},

	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},

	{"replay.ntt_ms", "ms", "lower", 0},
	{"replay.bconv_ms", "ms", "lower", 0},
	{"replay.ew_ms", "ms", "lower", 0},
	{"replay.aut_ms", "ms", "lower", 0},
	{"replay.ntt_share", "ratio", "lower", 0},
	{"replay.bconv_share", "ratio", "lower", 0},
	{"replay.ew_share", "ratio", "lower", 0},
	{"replay.aut_share", "ratio", "lower", 0},
	{"replay.closure_ratio", "ratio", "higher", 0},
	{"replay.ntt_count_ratio", "ratio", "higher", 0},

	{"sched.sim_ms_boot_a100", "ms", "lower", 0},
	{"sched.ew_share_boot_a100", "ratio", "lower", 0},
	{"sched.sim_ms_boot_a100_nearbank", "ms", "lower", 0},
	{"sched.speedup_boot_nearbank", "ratio", "higher", 0},
	{"sched.ew_share_op_a100", "ratio", "lower", 0},
	{"sched.gpu_bytes_per_op", "MB", "lower", 0},
	{"sched.host_ms_per_sim", "ms", "lower", 0},
	{"trace.kernels_per_op", "count", "lower", 0},
	{"pim.instr_per_boot", "count", "lower", 0},

	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
}

// metricSet maps metric name to value.
type metricSet map[string]float64

// complete returns a copy of m holding exactly the metrics of defs; absent
// ones read 0.
func (m metricSet) complete(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.name] = m[d.name]
	}
	return out
}
