package main

// Every call into the library lives in this file, and uses only the entry
// points README.md pins. Later changes may not edit benchmark/, so a change
// that must alter one of these signatures needs a benchmark issue alongside.
// Nothing here touches par.SetWorkers, SetFusion, SetPipelined,
// SetLevelAware or the kernel-tier override: the benchmark measures the
// default production path, configured by GOMAXPROCS alone.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	anaheim "github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/par"
	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

// opResult is one unit op: its latency, the precision its result decrypted
// to (worst slot), the level of the result where the workload reports one,
// and why it failed, if it did.
type opResult struct {
	dur   time.Duration
	bits  float64
	level int
	err   error
}

func verified(dur time.Duration, got, want []complex128) opResult {
	return opResult{dur: dur, bits: precisionBits(got, want)}
}

// bench is one workload inside the child process.
type bench interface {
	// setup builds parameters, keys and inputs from the seed and runs the
	// fixed warm-up ops, filling the ckks.*_s set-up metrics. beat tells the
	// watchdog the child is alive.
	setup(seed int64, m metricSet, beat func(string)) error
	// clients is the number of closed-loop callers, known before setup.
	clients() int
	// step runs and verifies one unit op for a client. Spans go under parent
	// when tr is not nil.
	step(client int, tr *tracer, parent int) opResult
	// layers fills the per-layer metrics that need the workload's context:
	// the kernel micro-timings, the replay and the facade figures. opMs is
	// the traced pass's median op.
	layers(tr *tracer, root int, opMs float64, m metricSet) error
	// params is the workload's parameter set, valid after setup.
	params() *anaheim.Parameters
	close()
}

func newBench(workload string, tiny bool) (bench, error) {
	switch workload {
	case "hks_n16", "hks_n16_par":
		return &hksBench{tiny: tiny}, nil
	case "boot_n12":
		return &bootBench{tiny: tiny}, nil
	case "serve_mix_n12", "serve_mix_n12_c1":
		return &serveBench{tiny: tiny}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func repeatInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// randomSlots draws n complex values of modulus at most bound.
func randomSlots(r *rand.Rand, n int, bound float64) []complex128 {
	v := make([]complex128, n)
	s := bound / 1.4143
	for i := range v {
		v[i] = complex(s*(2*r.Float64()-1), s*(2*r.Float64()-1))
	}
	return v
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest48 is the first 48 bits of the SHA-256 of a ciphertext's wire form,
// as a number a float64 holds exactly.
func digest48(ct *anaheim.Ciphertext) float64 {
	b, err := ct.MarshalBinary()
	if err != nil {
		return 0
	}
	h := sha256.Sum256(b)
	return float64(binary.BigEndian.Uint64(h[:8]) >> 16)
}

// evkResidentMB is the evaluation-key size the serving runtime would account
// this context at.
func evkResidentMB(ctx *anaheim.Context) float64 {
	e := anaheim.NewEngine(anaheim.EngineConfig{Obs: obs.NewRegistry()})
	defer e.Close()
	s, err := ctx.AttachSession(e)
	if err != nil {
		return 0
	}
	return float64(s.KeyBytes()) / 1e6
}

func kernelTierName() string { return modarith.ActiveTier().String() }

func planMetrics(ctx *anaheim.Context, level int, m metricSet) {
	pl := ctx.Params.PlanAt(level)
	m["ckks.plan_alpha"] = float64(pl.Alpha)
	m["ckks.plan_digits"] = float64(pl.Digits)
}

// ---------------------------------------------------------------------------
// hks_n16 / hks_n16_par: HROT then HMULT at the top level.

type hksBench struct {
	tiny bool
	ctx  *anaheim.Context
	ct   *anaheim.Ciphertext
	want []complex128
	last *anaheim.Ciphertext

	// The wire bytes of a result that decrypted to the oracle, and what it
	// decrypted to. Every step has the same input, so a correct result has
	// exactly these bytes.
	refWire []byte
	ref     opResult
}

func (b *hksBench) literal() anaheim.ParametersLiteral {
	if b.tiny {
		return anaheim.ParametersLiteral{LogN: 10, LogQ: append([]int{55}, repeatInt(45, 9)...), LogP: repeatInt(50, 3), LogScale: 45}
	}
	// log PQ = 55 + 25·45 + 7·50 = 1530: the 64-bit-word equivalent of
	// Table IV's 1618-bit budget at D = 4.
	return anaheim.ParametersLiteral{LogN: 16, LogQ: append([]int{55}, repeatInt(45, 25)...), LogP: repeatInt(50, 7), LogScale: 45}
}

func (b *hksBench) setup(seed int64, m metricSet, beat func(string)) error {
	t0 := time.Now()
	ctx, err := anaheim.NewContext(b.literal(), seed)
	if err != nil {
		return err
	}
	beat("context")
	ctx.GenRotationKeys(1)
	m["ckks.keygen_s"] = since(t0)
	b.ctx = ctx
	beat("keys")

	v := randomSlots(rand.New(rand.NewSource(seed)), ctx.Params.Slots(), 1)
	n := len(v)
	b.want = make([]complex128, n)
	for j := range v {
		b.want[j] = v[(j+1)%n] * v[j]
	}
	t1 := time.Now()
	if b.ct, err = ctx.Encrypt(v); err != nil {
		return err
	}
	m["ckks.encrypt_ms"] = ms(time.Since(t1))

	t1 = time.Now()
	warm := 3
	if b.tiny {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		t2 := time.Now()
		r := b.step(0, nil, 0)
		if r.err != nil {
			return fmt.Errorf("warm-up step: %w", r.err)
		}
		if i == 0 { // the one step that is verified by decrypting
			m["ckks.decrypt_ms"] = ms(time.Since(t2) - r.dur)
		}
		beat("warm-up")
	}
	m["ckks.warmup_s"] = since(t1)
	return nil
}

func (b *hksBench) clients() int { return 1 }

func (b *hksBench) step(_ int, tr *tracer, parent int) opResult {
	it := tr.begin(parent, "harness", "iteration")
	defer tr.end(it)
	tr.opBegin()
	t0 := time.Now()
	s := tr.begin(it, "ckks", "rotate")
	rot, err := b.ctx.Rotate(b.ct, 1)
	tr.end(s)
	if err != nil {
		tr.opEnd()
		return opResult{dur: time.Since(t0), err: err}
	}
	s = tr.begin(it, "ckks", "mulrelin")
	out := b.ctx.Mul(rot, b.ct)
	tr.end(s)
	dur := time.Since(t0)
	tr.opEnd()

	b.last = out
	return b.verify(dur, out)
}

// verify checks a step's result. A decrypt at N=2^16 leaves 370 MB of
// big.Int garbage, enough to put a GC cycle into every third timed step, so
// only a result whose bytes differ from an already verified one is decrypted.
func (b *hksBench) verify(dur time.Duration, out *anaheim.Ciphertext) opResult {
	wire, err := out.MarshalBinary()
	if err != nil {
		return opResult{dur: dur, err: err}
	}
	if bytes.Equal(wire, b.refWire) {
		return opResult{dur: dur, bits: b.ref.bits}
	}
	r := verified(dur, b.ctx.Decrypt(out), b.want)
	if b.refWire == nil {
		b.refWire, b.ref = wire, r
	}
	return r
}

func (b *hksBench) layers(tr *tracer, root int, opMs float64, m metricSet) error {
	p := b.ctx.Params
	top := p.MaxLevel()
	planMetrics(b.ctx, top, m)
	m["ckks.evk_resident_mb"] = evkResidentMB(b.ctx)
	m["ckks.result_digest"] = digest48(b.last)

	pl := p.PlanAt(top)
	u, err := kernelUnits(tr, root, p, top, pl.Alpha, m)
	if err != nil {
		return err
	}
	replayAndModel(stepTrace(p.RingQ().N, top+1, pl.Alpha, pl.Digits), 1, u, opMs, m)
	return nil
}

// stepTrace is internal/trace's kernel list for one hks step — HROT then
// HMULT at the top level of a chain of limbs Q primes — at the functional
// shape: 8-byte words, the gadget plan's alpha and digit count.
func stepTrace(n, limbs, alpha, digits int) *trace.Trace {
	tp := trace.Params{LogN: log2(n), N: n, L: limbs, Alpha: alpha, D: digits, WordBytes: 8}
	tb := trace.NewBuilder(tp, trace.GPUBaseline(), "step")
	tb.HROT(limbs - 1)
	tb.HMULT(limbs - 1)
	return tb.T
}

func (b *hksBench) params() *anaheim.Parameters { return b.ctx.Params }

func (b *hksBench) close() {}

// ---------------------------------------------------------------------------
// boot_n12: full bootstrap of an exhausted ciphertext.

type bootBench struct {
	tiny     bool
	ctx      *anaheim.Context
	ct       *anaheim.Ciphertext
	want     []complex128
	last     *anaheim.Ciphertext
	outLevel int
}

func (b *bootBench) setup(seed int64, m metricSet, beat func(string)) error {
	lit := anaheim.BootParameters()
	lit.LogN = 12
	if b.tiny {
		lit.LogN = 10
	}
	t0 := time.Now()
	ctx, err := anaheim.NewContext(lit, seed)
	if err != nil {
		return err
	}
	m["ckks.keygen_s"] = since(t0)
	beat("context")
	t1 := time.Now()
	if err := ctx.SetupBootstrapping(anaheim.DefaultBootstrapConfig()); err != nil {
		return err
	}
	m["ckks.boot_setup_s"] = since(t1)
	b.ctx = ctx
	beat("bootstrapper")

	b.want = randomSlots(rand.New(rand.NewSource(seed)), ctx.Params.Slots(), 0.7)
	t1 = time.Now()
	ct, err := ctx.Encrypt(b.want)
	if err != nil {
		return err
	}
	m["ckks.encrypt_ms"] = ms(time.Since(t1))
	b.ct = ctx.DropToLevel(ct, 0)

	// The first bootstraps encode the DFT diagonals lazily and grow the
	// polynomial pool; two of them are slower than the rest.
	t1 = time.Now()
	warm := 2
	if b.tiny {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		if r := b.step(0, nil, 0); r.err != nil {
			return fmt.Errorf("warm-up bootstrap: %w", r.err)
		}
		beat("warm-up")
	}
	m["ckks.warmup_s"] = since(t1)
	return nil
}

func (b *bootBench) clients() int { return 1 }

func (b *bootBench) step(_ int, tr *tracer, parent int) opResult {
	it := tr.begin(parent, "harness", "iteration")
	defer tr.end(it)
	tr.opBegin()
	t0 := time.Now()
	s := tr.begin(it, "ckks", "bootstrap")
	out, err := b.ctx.Bootstrap(b.ct)
	tr.end(s)
	dur := time.Since(t0)
	tr.opEnd()
	if err != nil {
		return opResult{dur: dur, err: err}
	}
	s = tr.begin(it, "ckks", "decrypt")
	got := b.ctx.Decrypt(out)
	tr.end(s)
	b.last, b.outLevel = out, out.Level()
	r := verified(dur, got, b.want) // bootstrap is the identity
	r.level = b.outLevel
	return r
}

func (b *bootBench) layers(tr *tracer, root int, opMs float64, m metricSet) error {
	p := b.ctx.Params
	top := p.MaxLevel()
	planMetrics(b.ctx, top, m)
	m["ckks.evk_resident_mb"] = evkResidentMB(b.ctx)
	m["ckks.result_digest"] = digest48(b.last)
	if b.outLevel > 0 {
		m["ckks.tboot_eff_ms"] = opMs / float64(b.outLevel)
	}
	if err := lintransMetrics(tr, root, b.ctx, rand.New(rand.NewSource(1)), m); err != nil {
		return err
	}

	// internal/workloads drops two limbs per level (double-prime scaling,
	// 4-byte words), so the functional chain of L 8-byte limbs is the trace
	// chain of 2L 4-byte limbs, and every trace limb counts for half.
	pl := p.PlanAt(top)
	cfg := anaheim.DefaultBootstrapConfig()
	n := p.RingQ().N
	tp := trace.Params{LogN: log2(n), N: n, L: 2 * (top + 1), Alpha: 2 * pl.Alpha, D: pl.Digits, WordBytes: 4}
	bc := workloads.BootConfig{FFTIterC2S: cfg.FFTIterC2S, FFTIterS2C: cfg.FFTIterS2C,
		ChebDegree: cfg.EvalModDeg, DoubleAng: cfg.DoubleAngles, SlotsLog: log2(p.Slots())}
	u, err := kernelUnits(tr, root, p, top, pl.Alpha, m)
	if err != nil {
		return err
	}
	replayAndModel(workloads.Bootstrap(tp, trace.GPUBaseline(), bc), 0.5, u, opMs, m)
	return nil
}

func (b *bootBench) params() *anaheim.Parameters { return b.ctx.Params }

func (b *bootBench) close() {}

// ---------------------------------------------------------------------------
// serve_mix_n12 / serve_mix_n12_c1: closed-loop tenants, two per core,
// against the default engine.

type serveBench struct {
	tiny bool
	ctx  *anaheim.Context
	eng  *anaheim.Engine
	reg  *obs.Registry
	sess *anaheim.EngineSession
	lt   *anaheim.LinearTransform

	tenants []*tenant
}

type tenant struct {
	rng  *rand.Rand
	w    []complex128
	ctW  *anaheim.Ciphertext
	jobs int
}

var serveTiers = []string{"latency", "standard", "batch"}

const serveDiagonals = 8

func newDiagonals(r *rand.Rand, slots int) *anaheim.LinearTransform {
	diags := make(map[int][]complex128, serveDiagonals)
	for d := 0; d < serveDiagonals; d++ {
		diags[d] = randomSlots(r, slots, 1)
	}
	return anaheim.NewLinearTransform(slots, diags)
}

func (b *serveBench) setup(seed int64, m metricSet, beat func(string)) error {
	lit := anaheim.ParametersLiteral{LogN: 12, LogQ: append([]int{55}, repeatInt(45, 9)...), LogP: repeatInt(58, 3), LogScale: 45}
	if b.tiny {
		lit.LogN = 10
	}
	t0 := time.Now()
	ctx, err := anaheim.NewContext(lit, seed)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	b.lt = newDiagonals(r, ctx.Params.Slots())
	ctx.GenLinearTransformKeys(b.lt)
	ctx.GenRotationKeys(1)
	m["ckks.keygen_s"] = since(t0)
	b.ctx = ctx
	beat("keys")

	b.reg = obs.NewRegistry()
	b.eng = anaheim.NewEngine(anaheim.EngineConfig{Obs: b.reg})
	if b.sess, err = ctx.AttachSession(b.eng); err != nil {
		return err
	}
	b.sess.RegisterTransform("m", b.lt)

	t1 := time.Now()
	for c := 0; c < b.clients(); c++ {
		tn := &tenant{rng: rand.New(rand.NewSource(seed + int64(c) + 1))}
		tn.w = randomSlots(tn.rng, ctx.Params.Slots(), 1)
		if tn.ctW, err = ctx.Encrypt(tn.w); err != nil {
			return err
		}
		b.tenants = append(b.tenants, tn)
	}
	m["ckks.encrypt_ms"] = ms(time.Since(t1)) / float64(len(b.tenants))

	t1 = time.Now()
	warm := 12 // cycles per tenant, about 1.5 s
	if b.tiny {
		warm = 1
	}
	var werr error
	closedLoop(b, warm, nil, 0, func(r opResult) {
		if r.err != nil {
			werr = r.err
		}
		beat("warm-up")
	})
	m["ckks.warmup_s"] = since(t1)
	if werr != nil {
		return fmt.Errorf("warm-up job: %w", werr)
	}
	return nil
}

func (b *serveBench) clients() int { return 2 * runtime.GOMAXPROCS(0) }

// step is one tenant cycle: a logreg round trip, then a lintrans round trip.
// (One sample per job would mix two latency modes, and the median of a
// bimodal sample is not steady.) All of it is latency the tenant sees.
func (b *serveBench) step(client int, tr *tracer, parent int) opResult {
	tn := b.tenants[client]
	it := tr.begin(parent, "harness", "iteration")
	defer tr.end(it)
	tr.opBegin()
	defer tr.opEnd()
	t0 := time.Now()
	res := opResult{bits: 64}
	for kind := 0; kind < 2; kind++ {
		tier := serveTiers[(client+tn.jobs)%len(serveTiers)]
		tn.jobs++
		bits, err := b.roundTrip(tn, kind, tier, tr, it)
		if err != nil {
			return opResult{dur: time.Since(t0), err: err}
		}
		res.bits = min(res.bits, bits)
	}
	res.dur = time.Since(t0)
	return res
}

// roundTrip is what a client does for one job: encrypt a fresh input,
// submit, wait, decrypt and verify against the plaintext oracle.
func (b *serveBench) roundTrip(tn *tenant, kind int, tier string, tr *tracer, it int) (bits float64, err error) {
	slots := b.ctx.Params.Slots()
	x := randomSlots(tn.rng, slots, 1)
	want := make([]complex128, slots)
	spec := anaheim.JobSpec{SessionID: b.sess.ID, Tier: tier, Outputs: []string{"o"}}
	if kind == 0 { // logreg: 0.25·(x·w)²
		for j := range want {
			xw := x[j] * tn.w[j]
			want[j] = 0.25 * xw * xw
		}
		spec.Ops = []anaheim.OpSpec{
			{ID: "m", Op: "mul", Args: []string{"x", "w"}},
			{ID: "s", Op: "square", Args: []string{"m"}},
			{ID: "o", Op: "mulconst", Args: []string{"s"}, Val: 0.25},
		}
	} else { // lintrans then rotate by one
		y := b.lt.Apply(x)
		for j := range want {
			want[j] = y[(j+1)%slots]
		}
		spec.Ops = lintransJob
	}

	s := tr.begin(it, "ckks", "encrypt")
	ctX, err := b.ctx.Encrypt(x)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	spec.Inputs = map[string]*anaheim.Ciphertext{"x": ctX}
	if kind == 0 {
		spec.Inputs["w"] = tn.ctW
	}
	s = tr.begin(it, "engine", "submit")
	job, err := b.eng.Submit(spec)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin(it, "engine", "wait")
	err = job.Wait(context.Background())
	tr.end(s)
	if err != nil {
		return 0, err
	}
	out, err := job.Results()
	if err != nil {
		return 0, err
	}
	s = tr.begin(it, "ckks", "decrypt")
	got := b.ctx.Decrypt(out["o"])
	tr.end(s)
	return precisionBits(got, want), nil
}

// lintransJob is the op DAG of the lintrans job kind.
var lintransJob = []anaheim.OpSpec{
	{ID: "l", Op: "lintrans", Args: []string{"x"}, Name: "m"},
	{ID: "o", Op: "rotate", Args: []string{"l"}, K: 1},
}

func (b *serveBench) layers(tr *tracer, root int, opMs float64, m metricSet) error {
	p := b.ctx.Params
	top := p.MaxLevel()
	planMetrics(b.ctx, top, m)
	m["ckks.evk_resident_mb"] = float64(b.sess.KeyBytes()) / 1e6

	// Registry figures of the loaded passes, read before the unloaded probe
	// below adds its own samples.
	snap := b.reg.Snapshot()
	m["engine.queue_wait_ms_p50"] = 1e3 * weightedQuantile(snap, "engine_op_queue_wait_seconds", func(h obs.HistogramSnapshot) float64 { return h.P50 })
	m["engine.queue_wait_ms_p99"] = 1e3 * weightedQuantile(snap, "engine_op_queue_wait_seconds", func(h obs.HistogramSnapshot) float64 { return h.P99 })
	m["engine.exec_ms_p50"] = 1e3 * weightedQuantile(snap, "engine_op_exec_seconds", func(h obs.HistogramSnapshot) float64 { return h.P50 })
	m["engine.rejected_total"] = familySum(snap.Counters, "engine_jobs_rejected_total")
	if h, ok := snap.Histograms["engine_batch_occupancy"]; ok && h.Count > 0 {
		m["engine.batch_occupancy"] = h.Sum / float64(h.Count)
	}
	m["keycache.resident_mb"] = familySum(snap.Gauges, "keycache_resident_bytes") / 1e6
	hits, misses := familySum(snap.Counters, "keycache_hits_total"), familySum(snap.Counters, "keycache_misses_total")
	if hits+misses > 0 {
		m["keycache.hit_ratio"] = hits / (hits + misses)
	}

	// One tenant, engine otherwise idle: the lintrans job through the engine
	// against the same op chain straight through the Context.
	x := randomSlots(rand.New(rand.NewSource(2)), p.Slots(), 1)
	ctX, err := b.ctx.Encrypt(x)
	if err != nil {
		return err
	}
	spec := anaheim.JobSpec{SessionID: b.sess.ID, Tier: "latency", Outputs: []string{"o"},
		Inputs: map[string]*anaheim.Ciphertext{"x": ctX}, Ops: lintransJob}
	reps := 9
	if b.tiny {
		reps = 3
	}
	var viaEngine, direct, lintrans []float64
	rot0 := familySum(obs.Default.Snapshot().Counters, "ckks_lintrans_rotations_total")
	for i := 0; i < reps; i++ {
		s := tr.begin(root, "engine", "job_unloaded")
		t0 := time.Now()
		job, err := b.eng.Submit(spec)
		if err == nil {
			err = job.Wait(context.Background())
		}
		viaEngine = append(viaEngine, ms(time.Since(t0)))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("unloaded job: %w", err)
		}

		s = tr.begin(root, "ckks", "direct_chain")
		t0 = time.Now()
		l, err := b.ctx.EvaluateLinearTransform(ctX, b.lt)
		lintrans = append(lintrans, ms(time.Since(t0)))
		if err == nil {
			_, err = b.ctx.Rotate(l, 1)
		}
		direct = append(direct, ms(time.Since(t0)))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("direct chain: %w", err)
		}
	}
	rot1 := familySum(obs.Default.Snapshot().Counters, "ckks_lintrans_rotations_total")
	m["engine.job_ms_unloaded"] = median(viaEngine)
	m["engine.direct_chain_ms"] = median(direct)
	if d := median(direct); d > 0 {
		m["engine.overhead_ratio"] = median(viaEngine) / d
	}
	m["ckks.lintrans_ms"] = median(lintrans)
	m["ckks.lintrans_keyswitches_per_op"] = (rot1 - rot0) / float64(2*reps)

	_, err = kernelUnits(tr, root, p, top, p.PlanAt(top).Alpha, m)
	return err
}

func (b *serveBench) params() *anaheim.Parameters { return b.ctx.Params }

func (b *serveBench) close() {
	if b.eng != nil {
		b.eng.Close()
	}
}

// lintransMetrics times an 8-diagonal transform at the context's top level,
// the same shape serve_mix_n12 serves, so the figure compares across
// parameter sets.
func lintransMetrics(tr *tracer, root int, ctx *anaheim.Context, r *rand.Rand, m metricSet) error {
	slots := ctx.Params.Slots()
	lt := newDiagonals(r, slots)
	ctx.GenLinearTransformKeys(lt)
	ct, err := ctx.Encrypt(randomSlots(r, slots, 1))
	if err != nil {
		return err
	}
	if _, err := ctx.EvaluateLinearTransform(ct, lt); err != nil { // encodes the diagonals
		return err
	}
	var durs []float64
	rot0 := familySum(obs.Default.Snapshot().Counters, "ckks_lintrans_rotations_total")
	const reps = 3
	for i := 0; i < reps; i++ {
		s := tr.begin(root, "ckks", "lintrans")
		t0 := time.Now()
		_, err := ctx.EvaluateLinearTransform(ct, lt)
		durs = append(durs, ms(time.Since(t0)))
		tr.end(s)
		if err != nil {
			return err
		}
	}
	rot1 := familySum(obs.Default.Snapshot().Counters, "ckks_lintrans_rotations_total")
	m["ckks.lintrans_ms"] = median(durs)
	m["ckks.lintrans_keyswitches_per_op"] = (rot1 - rot0) / reps
	return nil
}

// ---------------------------------------------------------------------------
// Counters read by family name. A family the library no longer exports reads
// 0; nothing here may crash on a renamed metric.

// familySum adds every series of a metric family, whatever its labels.
func familySum(series map[string]float64, family string) float64 {
	sum := 0.0
	for name, v := range series {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

// weightedQuantile averages one quantile over the histograms of a family,
// weighted by sample count: the engine keeps one histogram per op kind.
func weightedQuantile(s obs.Snapshot, family string, pick func(obs.HistogramSnapshot) float64) float64 {
	sum, n := 0.0, 0.0
	for name, h := range s.Histograms {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += pick(h) * float64(h.Count)
			n += float64(h.Count)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// libCounters is a point-in-time reading of the work counters of the ring
// layer, the evaluator and the Go runtime.
type libCounters struct {
	nttLimbs    float64
	bytesMoved  float64
	bytesSaved  float64
	poolHits    float64
	poolMisses  float64
	keySwitches float64
	mallocs     float64
	allocBytes  float64
	gcCycles    float64
	gcPauseNs   float64
}

func readCounters(rings []*ring.Ring) libCounters {
	var c libCounters
	for _, r := range rings {
		f, i := r.Counters()
		c.nttLimbs += float64(f + i)
	}
	s := obs.Default.Snapshot()
	c.bytesMoved = familySum(s.Counters, "ring_bytes_moved_total")
	c.bytesSaved = familySum(s.Counters, "ring_bytes_saved_total")
	c.poolHits = s.Counters[`ring_pool_gets_total{result="hit"}`]
	c.poolMisses = s.Counters[`ring_pool_gets_total{result="miss"}`]
	c.keySwitches = s.Counters[`ckks_ops_total{op="keyswitch"}`] + s.Counters[`ckks_ops_total{op="rotate-hoisted"}`]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = float64(ms.Mallocs), float64(ms.TotalAlloc)
	c.gcCycles, c.gcPauseNs = float64(ms.NumGC), float64(ms.PauseTotalNs)
	return c
}

func (c *libCounters) addDelta(from, to libCounters) {
	c.nttLimbs += to.nttLimbs - from.nttLimbs
	c.bytesMoved += to.bytesMoved - from.bytesMoved
	c.bytesSaved += to.bytesSaved - from.bytesSaved
	c.poolHits += to.poolHits - from.poolHits
	c.poolMisses += to.poolMisses - from.poolMisses
	c.keySwitches += to.keySwitches - from.keySwitches
	c.mallocs += to.mallocs - from.mallocs
	c.allocBytes += to.allocBytes - from.allocBytes
	c.gcCycles += to.gcCycles - from.gcCycles
	c.gcPauseNs += to.gcPauseNs - from.gcPauseNs
}

// workMeter sums the counters' movement over the intervals in which at least
// one unit op is in flight. For a single caller that is exactly the ops,
// without the verification between them; for concurrent tenants, whose round
// trips overlap, it is the whole pass.
type workMeter struct {
	mu       sync.Mutex
	rings    []*ring.Ring
	inFlight int
	from     libCounters
	total    libCounters
}

func (w *workMeter) opBegin() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inFlight++; w.inFlight == 1 {
		w.from = readCounters(w.rings)
	}
}

func (w *workMeter) opEnd() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inFlight--; w.inFlight == 0 {
		w.total.addDelta(w.from, readCounters(w.rings))
	}
}

// meterOps attaches a work meter for b's rings to the tracer.
func meterOps(tr *tracer, b bench) *workMeter {
	w := &workMeter{rings: benchRings(b)}
	tr.onOpBegin, tr.onOpEnd = w.opBegin, w.opEnd
	return w
}

// metrics turns the metered work of ops unit ops into the per-op counts.
func (w *workMeter) metrics(ops int, m metricSet) {
	n, c := float64(ops), w.total
	if n == 0 {
		return
	}
	m["ring.ntt_limb_transforms_per_op"] = c.nttLimbs / n
	m["ring.bytes_moved_per_op"] = c.bytesMoved / n / 1e6
	m["ring.bytes_saved_per_op"] = c.bytesSaved / n / 1e6
	if gets := c.poolHits + c.poolMisses; gets > 0 {
		m["ring.pool_miss_ratio"] = c.poolMisses / gets
	}
	m["ckks.keyswitches_per_op"] = c.keySwitches / n
	m["runtime.allocs_per_op"] = c.mallocs / n
	m["runtime.alloc_mb_per_op"] = c.allocBytes / n / 1e6
	m["runtime.gc_cycles"] = c.gcCycles
	m["runtime.gc_pause_ms_total"] = c.gcPauseNs / 1e6
}

// benchRings lists the rings whose transform counters a workload advances.
func benchRings(b bench) []*ring.Ring {
	p := b.params()
	return []*ring.Ring{p.RingQ(), p.RingP()}
}

// ---------------------------------------------------------------------------
// Kernel micro-timings through the functional layers' public functions, at
// the workload's own N and limb counts.

// log2 of a power of two.
func log2(n int) int { return bits.Len(uint(n)) - 1 }

// timeCalls runs f at least three times and for about 40 ms, and returns the
// median call in nanoseconds.
func timeCalls(f func()) float64 {
	f() // warm caches and lazy tables
	var ns []float64
	start := time.Now()
	for len(ns) < 3 || (time.Since(start) < 40*time.Millisecond && len(ns) < 200) {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return median(ns)
}

func fillRows(r *rand.Rand, rows [][]uint64, mods []modarith.Modulus) {
	for i, row := range rows {
		for j := range row {
			row[j] = r.Uint64() % mods[i].Q
		}
	}
}

func newRows(k, n int) [][]uint64 {
	rows := make([][]uint64, k)
	for i := range rows {
		rows[i] = make([]uint64, n)
	}
	return rows
}

// kernelUnits times each kernel class once, under one replay span per class,
// fills the modarith/ntt/rns/ring/par metrics and returns the unit times the
// replay prices with. level and alpha are the shape of the op's key switch.
func kernelUnits(tr *tracer, root int, p *anaheim.Parameters, level, alpha int, m metricSet) (unitTimes, error) {
	rq := p.RingQ()
	n, logN, limbs := rq.N, log2(rq.N), level+1
	r := rand.New(rand.NewSource(7))
	replay := tr.begin(root, "replay", "kernel_classes")
	defer tr.end(replay)
	class := func(layer, name string, f func()) {
		s := tr.begin(replay, layer, name)
		f()
		tr.end(s)
	}

	m["modarith.kernel_tier"] = float64(modarith.ActiveTier())
	m["par.width"] = float64(par.Workers())

	// Stand-alone primes of the chain's bit size: the kernels' cost does not
	// depend on which NTT-friendly prime they run over.
	primes, err := modarith.GenerateNTTPrimes(45, logN, limbs+alpha)
	if err != nil {
		return unitTimes{}, err
	}
	mods := make([]modarith.Modulus, len(primes))
	for i, q := range primes {
		mods[i] = modarith.MustModulus(q)
	}

	var u unitTimes
	class("modarith", "vecmul", func() {
		a, b, out := newRows(1, n), newRows(1, n), make([]uint64, n)
		fillRows(r, a, mods)
		fillRows(r, b, mods)
		m["modarith.vecmul_ns_per_coeff"] = timeCalls(func() { mods[0].VecMulBarrett(out, a[0], b[0]) }) / float64(n)
	})
	tbl, err := ntt.NewTables(mods[0], logN)
	if err != nil {
		return unitTimes{}, err
	}
	bc, err := rns.NewBasisConverter(mods[limbs:limbs+alpha], mods[:limbs])
	if err != nil {
		return unitTimes{}, err
	}
	class("ntt", "forward_inverse", func() {
		// One row per call, cycling over as many rows as the op's polynomial
		// has, so a row is as cold as the op finds it.
		rows, i := newRows(limbs, n), 0
		for _, row := range rows {
			fillRows(r, [][]uint64{row}, mods)
		}
		next := func() []uint64 { i++; return rows[i%limbs] }
		u.nttFwdPerLimb = timeCalls(func() { tbl.Forward(next()) })
		u.nttInvPerLimb = timeCalls(func() { tbl.Inverse(next()) })
		m["ntt.fwd_ns_per_limb"], m["ntt.inv_ns_per_limb"] = u.nttFwdPerLimb, u.nttInvPerLimb
	})
	class("rns", "bconv", func() {
		in, out := newRows(alpha, n), newRows(limbs, n)
		fillRows(r, in, mods[limbs:])
		u.bconvPerRowPair = timeCalls(func() { bc.Convert(out, in) }) / float64(alpha*limbs)
		m["rns.bconv_ns_per_rowpair"] = u.bconvPerRowPair
	})
	class("rns", "rescale", func() {
		if limbs < 2 {
			return
		}
		rs := rns.NewRescaler(mods[:limbs])
		rows := newRows(limbs, n)
		fillRows(r, rows, mods)
		m["rns.rescale_ns_per_limb"] = timeCalls(func() { rs.DivRoundByLastModulus(rows) }) / float64(limbs)
	})
	class("ring", "mac", func() {
		a, b, acc := rq.NewPoly(level), rq.NewPoly(level), rq.NewPoly(level)
		fillRows(r, a.Coeffs, rq.Moduli)
		fillRows(r, b.Coeffs, rq.Moduli)
		u.macPerLimb = timeCalls(func() { rq.MulCoeffsAdd(acc, a, b, level) }) / float64(limbs)
		m["ring.mac_ns_per_limb"] = u.macPerLimb
	})
	class("ring", "automorphism", func() {
		in, out := rq.NewPoly(level), rq.NewPoly(level)
		fillRows(r, in.Coeffs, rq.Moduli)
		in.IsNTT = true
		g := rq.GaloisElement(1)
		u.autPerLimb = timeCalls(func() { rq.AutomorphismNTT(out, in, g, level) }) / float64(limbs)
		m["ring.aut_ns_per_limb"] = u.autPerLimb
	})
	class("ring", "ntt_poly", func() {
		poly := rq.NewPoly(level)
		fillRows(r, poly.Coeffs, rq.Moduli)
		polyNs := timeCalls(func() {
			rq.NTT(poly, level)
			rq.INTT(poly, level)
		})
		m["ring.ntt_poly_ms"] = polyNs / 1e6
		if serial := float64(limbs) * (u.nttFwdPerLimb + u.nttInvPerLimb); polyNs > 0 {
			m["ring.ntt_parallel_eff"] = serial / (polyNs * float64(par.Workers()))
		}
	})
	class("par", "dispatch", func() {
		m["par.dispatch_us"] = timeCalls(func() { par.ForEachChunk(limbs, func(lo, hi int) {}) }) / 1e3
	})
	return u, nil
}

// ---------------------------------------------------------------------------
// The replay of the op's own trace and the simulator's view of it.

var traceClassNames = map[trace.Class]string{
	trace.ClassNTT: "ntt", trace.ClassINTT: "intt", trace.ClassBConv: "bconv",
	trace.ClassEW: "ew", trace.ClassAut: "aut",
}

func kernelList(t *trace.Trace) []traceKernel {
	ks := make([]traceKernel, len(t.Kernels))
	for i, k := range t.Kernels {
		ks[i] = traceKernel{class: traceClassNames[k.Class], limbs: k.Limbs, instances: k.Instances, bytes: k.Bytes}
	}
	return ks
}

// replayAndModel prices the op trace with the measured unit times and sets
// the A100 model's figures for the same trace beside them. limbScale is
// countClasses's.
func replayAndModel(t *trace.Trace, limbScale float64, u unitTimes, opMs float64, m metricSet) {
	limbBytes := float64(t.P.N) * 8
	c := countClasses(kernelList(t), t.P.Alpha, limbBytes, limbScale)
	replayMetrics(c, u, opMs, m)
	if per := m["ring.ntt_limb_transforms_per_op"]; per > 0 {
		m["replay.ntt_count_ratio"] = (c.nttLimbs + c.inttLimbs) / per
	}
	m["trace.kernels_per_op"] = float64(c.kernels)
	res := sched.Run(t, sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()})
	m["sched.ew_share_op_a100"] = res.EWShare()
	m["sched.gpu_bytes_per_op"] = res.GPUBytes / 1e6
}

// simMetrics runs the paper-scale bootstrap (Table IV) through the scheduler
// on the A100 with and without near-bank PIM. Everything but the host time
// is deterministic and must repeat exactly.
func simMetrics(m metricSet) {
	paper := trace.Params{LogN: 16, N: 1 << 16, L: 54, Alpha: 14, D: 4, WordBytes: 4}
	t0 := time.Now()
	base := sched.Run(workloads.Bootstrap(paper, trace.GPUBaseline(), workloads.DefaultBoot()),
		sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()})
	unit := pim.A100NearBank()
	instr0 := familySum(obs.Default.Snapshot().Counters, "pim_sim_instr_total")
	near := sched.Run(workloads.Bootstrap(paper, trace.AnaheimDefault(), workloads.DefaultBoot()),
		sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar(), PIM: &unit})
	instr1 := familySum(obs.Default.Snapshot().Counters, "pim_sim_instr_total")
	m["sched.host_ms_per_sim"] = ms(time.Since(t0)) / 2
	m["sched.sim_ms_boot_a100"] = base.TimeMs()
	m["sched.ew_share_boot_a100"] = base.EWShare()
	m["sched.sim_ms_boot_a100_nearbank"] = near.TimeMs()
	if near.TimeMs() > 0 {
		m["sched.speedup_boot_nearbank"] = base.TimeMs() / near.TimeMs()
	}
	m["pim.instr_per_boot"] = instr1 - instr0
}
