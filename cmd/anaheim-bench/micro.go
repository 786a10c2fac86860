package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"

	"github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/par"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// microResult is one operation's measured cost, the unit future PRs diff
// their perf trajectory against (see BENCH_BASELINE.json at the repo root).
type microResult struct {
	Op       string  `json:"op"`
	NsPerOp  float64 `json:"nsPerOp"`
	AllocsOp int64   `json:"allocsPerOp"`
	BytesOp  int64   `json:"bytesPerOp"`
	// MemBytesOp / MemSavedOp are the ring layer's estimated DRAM traffic per
	// op (bytes moved, and bytes the pipelined chains avoided versus their
	// barriered equivalents), sampled from the ring_bytes_moved_total /
	// ring_bytes_saved_total counters around extra runs of the op when -membw
	// is set. The model is deterministic (coefficient rows only, see
	// internal/ring/traffic.go), so these diff exactly across runs.
	MemBytesOp float64 `json:"memBytesPerOp,omitempty"`
	MemSavedOp float64 `json:"memBytesSavedPerOp,omitempty"`
	// RotationsOp is the number of key-switch gadget products one linear
	// transform sweep spends (the ckks_lintrans_rotations_total delta around
	// a single run), attached to the lintrans row. Deterministic, so it
	// diffs exactly: a K-diagonal sweep under baby step bs sits at
	// ~bs + K/bs where the per-diagonal plan would pay K.
	RotationsOp float64 `json:"rotationsPerOp,omitempty"`
}

type microReport struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCpu"`
	Workers   int    `json:"parWorkers"`
	Params    string `json:"params"`
	// KernelTier / KernelTiers record the modarith SIMD dispatch state of the
	// host that produced the report: the tier the non-tier-pinned rows ran on,
	// and every tier the host could run. Comparing reports from hosts with
	// different tiers is comparing different machines — these fields make
	// that visible in the artifact.
	KernelTier  string        `json:"kernelTier"`
	KernelTiers []string      `json:"kernelTiers"`
	Results     []microResult `json:"results"`
	// Metrics is the obs registry snapshot after the run (counter totals,
	// latency quantiles), attached when -metrics is set so the same JSON
	// artifact carries both ns/op numbers and instrumentation counts.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Serving is the many-tenant load-driver report (see load.go), merged
	// into the baseline artifact so serving-layer numbers ride next to the
	// kernel ns/op ones. -compare ignores it.
	Serving *loadReport `json:"serving,omitempty"`
}

// nttBenchSetup builds per-limb tables and uniform coefficient rows for one
// (logN, limbs) grid cell. Called inside each benchmark body (before
// b.ResetTimer) so only one cell's tables are live at a time; the largest
// cell (logN=15, 32 limbs) holds ~40 MB of twiddles plus data.
func nttBenchSetup(logN, limbs int) ([]*ntt.Tables, [][]uint64, [][]uint64, error) {
	primes, err := modarith.GenerateNTTPrimes(55, logN, limbs)
	if err != nil {
		return nil, nil, nil, err
	}
	n := 1 << logN
	tables := make([]*ntt.Tables, limbs)
	rows := make([][]uint64, limbs)
	rows2 := make([][]uint64, limbs)
	state := uint64(0x9e3779b97f4a7c15)
	for i, p := range primes {
		tables[i], err = ntt.NewTables(modarith.MustModulus(p), logN)
		if err != nil {
			return nil, nil, nil, err
		}
		rows[i] = make([]uint64, n)
		rows2[i] = make([]uint64, n)
		for j := range rows[i] {
			// splitmix64: deterministic, dependency-free uniform filler.
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			rows[i][j] = z % p
			rows2[i][j] = (z*6364136223846793005 + 1442695040888963407) % p
		}
	}
	return tables, rows, rows2, nil
}

// nttGrid is the transform benchmark grid. A package variable so the JSON
// shape test can shrink it to one cell; the full grid takes minutes.
var nttGrid = struct {
	logNs, limbs []int
}{
	logNs: []int{12, 13, 14, 15},
	limbs: []int{1, 4, 16, 32},
}

// addNTTBenches registers the NTT transform grid: forward, inverse, and
// element-wise product at logN in {12..15} x limbs in {1,4,16,32}, plus the
// pre-rewrite reference kernels at a single limb as the before/after pair
// the speedup gate diffs (ntt_fwd-n14-l1 vs ntt_fwd_ref-n14-l1).
func addNTTBenches(benches map[string]func(b *testing.B)) {
	for _, logN := range nttGrid.logNs {
		for _, limbs := range nttGrid.limbs {
			cell := fmt.Sprintf("n%d-l%d", logN, limbs)
			benches["ntt_fwd-"+cell] = func(b *testing.B) {
				tables, rows, _, err := nttBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ntt.ForwardMany(tables, rows)
				}
			}
			benches["ntt_inv-"+cell] = func(b *testing.B) {
				tables, rows, _, err := nttBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ntt.InverseMany(tables, rows)
				}
			}
			benches["mulcoeffs-"+cell] = func(b *testing.B) {
				tables, rows, rows2, err := nttBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				out := make([][]uint64, limbs)
				for i := range out {
					out[i] = make([]uint64, 1<<logN)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l := range tables {
						tables[l].MulCoeffs(out[l], rows[l], rows2[l])
					}
				}
			}
		}
		cell := fmt.Sprintf("n%d-l1", logN)
		benches["ntt_fwd_ref-"+cell] = func(b *testing.B) {
			tables, rows, _, err := nttBenchSetup(logN, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables[0].ForwardRef(rows[0])
			}
		}
		benches["ntt_inv_ref-"+cell] = func(b *testing.B) {
			tables, rows, _, err := nttBenchSetup(logN, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables[0].InverseRef(rows[0])
			}
		}
		benches["mulcoeffs_ref-"+cell] = func(b *testing.B) {
			tables, rows, rows2, err := nttBenchSetup(logN, 1)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]uint64, 1<<logN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables[0].MulCoeffsRef(out, rows[0], rows2[0])
			}
		}
	}
}

// bconvGrid is the key-switch kernel grid (BConv, rescale, end-to-end
// keyswitch). A package variable so the JSON shape test can shrink it.
var bconvGrid = struct {
	logNs, limbs []int
}{
	logNs: []int{12, 13, 14, 15},
	limbs: []int{4, 16, 32},
}

// splitmixFill fills row with deterministic uniform values below bound.
func splitmixFill(row []uint64, bound uint64, state *uint64) {
	for j := range row {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		row[j] = z % bound
	}
}

func mustModuli(bits, logN, count int) ([]modarith.Modulus, error) {
	primes, err := modarith.GenerateNTTPrimes(bits, logN, count)
	if err != nil {
		return nil, err
	}
	out := make([]modarith.Modulus, count)
	for i, q := range primes {
		out[i] = modarith.MustModulus(q)
	}
	return out, nil
}

// bconvBenchSetup builds a limbs -> limbs basis conversion (the shape of a
// full-width ModUp digit: 45-bit source primes into 50-bit targets) with
// uniform input rows for one (logN, limbs) grid cell.
func bconvBenchSetup(logN, limbs int) (*rns.BasisConverter, [][]uint64, [][]uint64, error) {
	from, err := mustModuli(45, logN, limbs)
	if err != nil {
		return nil, nil, nil, err
	}
	to, err := mustModuli(50, logN, limbs)
	if err != nil {
		return nil, nil, nil, err
	}
	bc, err := rns.NewBasisConverter(from, to)
	if err != nil {
		return nil, nil, nil, err
	}
	n := 1 << logN
	state := uint64(0x6c62272e07bb0142)
	in := make([][]uint64, limbs)
	out := make([][]uint64, limbs)
	for i := 0; i < limbs; i++ {
		in[i] = make([]uint64, n)
		out[i] = make([]uint64, n)
		splitmixFill(in[i], from[i].Q, &state)
	}
	return bc, in, out, nil
}

// rescaleBenchSetup builds a limbs-deep 45-bit chain with uniform residue
// rows. The rescale kernels mutate rows in place, but rescaled rows are
// themselves valid residues, so re-running on the output is well-defined and
// measures the same work.
func rescaleBenchSetup(logN, limbs int) ([]modarith.Modulus, [][]uint64, error) {
	ms, err := mustModuli(45, logN, limbs)
	if err != nil {
		return nil, nil, err
	}
	n := 1 << logN
	state := uint64(0x51afd7ed558ccd6d)
	rows := make([][]uint64, limbs)
	for i := range rows {
		rows[i] = make([]uint64, n)
		splitmixFill(rows[i], ms[i].Q, &state)
	}
	return ms, rows, nil
}

// ksBenchSetup builds a full parameter set (limbs Q primes, α = 4 special
// primes), a relinearization key, and a uniform ciphertext for one
// end-to-end keyswitch grid cell.
func ksBenchSetup(logN, limbs int) (*ckks.Evaluator, *ckks.Ciphertext, *ckks.SwitchingKey, error) {
	logQ := make([]int, limbs)
	logQ[0] = 55
	for i := 1; i < limbs; i++ {
		logQ[i] = 45
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     logQ,
		LogP:     []int{50, 50, 50, 50},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	kgen := ckks.NewKeyGenerator(params, 3)
	sk := kgen.GenSecretKey()
	keys := ckks.NewEvaluationKeySet()
	keys.Rlk = kgen.GenRelinearizationKey(sk)
	ev := ckks.NewEvaluator(params, keys)
	rq := params.RingQ()
	s := ring.NewSampler(4)
	lvl := params.MaxLevel()
	ct := &ckks.Ciphertext{
		C0:    s.UniformPoly(rq, lvl, true),
		C1:    s.UniformPoly(rq, lvl, true),
		Scale: params.DefaultScale(),
	}
	return ev, ct, keys.Rlk, nil
}

// addBConvBenches registers the key-switch kernel grid: the wide-accumulation
// BConv against its retired scalar oracle, the vectorized rescale against
// its oracle, and the end-to-end SwitchKeys pipeline, at
// logN in {12..15} x limbs in {4,16,32}. The bconv/bconv_ref pair at
// n14-l16 is the headline before/after number of the wide-accumulation
// rewrite.
func addBConvBenches(benches map[string]func(b *testing.B)) {
	for _, logN := range bconvGrid.logNs {
		for _, limbs := range bconvGrid.limbs {
			cell := fmt.Sprintf("n%d-l%d", logN, limbs)
			benches["bconv-"+cell] = func(b *testing.B) {
				bc, in, out, err := bconvBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bc.Convert(out, in)
				}
			}
			benches["bconv_ref-"+cell] = func(b *testing.B) {
				bc, in, out, err := bconvBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bc.ConvertRef(out, in)
				}
			}
			benches["rescale-"+cell] = func(b *testing.B) {
				ms, rows, err := rescaleBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				rs := rns.NewRescaler(ms)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rs.DivRoundByLastModulus(rows)
				}
			}
			benches["rescale_ref-"+cell] = func(b *testing.B) {
				ms, rows, err := rescaleBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rns.DivRoundByLastModulusRef(ms, rows)
				}
			}
			benches["keyswitch-"+cell] = func(b *testing.B) {
				ev, ct, rlk, err := ksBenchSetup(logN, limbs)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.SwitchKeys(ct, rlk)
				}
			}
		}
	}
}

// ringMoved / ringSaved are handles to the ring layer's DRAM-traffic model
// counters (internal/ring/traffic.go). The registry hands back the same
// counter for the same name, so these observe exactly what the kernels
// charge.
var ringMoved = []*obs.Counter{
	obs.Default.Counter(`ring_bytes_moved_total{class="elemwise",mode="barriered"}`),
	obs.Default.Counter(`ring_bytes_moved_total{class="mac",mode="barriered"}`),
	obs.Default.Counter(`ring_bytes_moved_total{class="reduce",mode="barriered"}`),
	obs.Default.Counter(`ring_bytes_moved_total{class="transform",mode="barriered"}`),
	obs.Default.Counter(`ring_bytes_moved_total{class="aut",mode="barriered"}`),
	obs.Default.Counter(`ring_bytes_moved_total{class="chain",mode="pipelined"}`),
}

var ringSaved = obs.Default.Counter("ring_bytes_saved_total")

// ringTraffic reads the cumulative bytes-moved and bytes-saved totals.
func ringTraffic() (moved, saved float64) {
	for _, c := range ringMoved {
		moved += c.Value()
	}
	return moved, ringSaved.Value()
}

// memProbe runs one op a few times around the traffic counters and returns
// its estimated bytes moved (and pipelined bytes saved) per run. Registered
// per bench row; only sampled when -membw is set.
type memProbe func() (moved, saved float64, err error)

// probeTraffic is the shared probe body: warm once (pools, caches), then
// average the counter delta over k runs. The counters are deterministic, so
// k=2 only guards against first-run pool growth, not jitter.
func probeTraffic(op func() error) (moved, saved float64, err error) {
	if err := op(); err != nil {
		return 0, 0, err
	}
	const k = 2
	m0, s0 := ringTraffic()
	for i := 0; i < k; i++ {
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	m1, s1 := ringTraffic()
	return (m1 - m0) / k, (s1 - s0) / k, nil
}

// runMicro benchmarks the FHE hot ops at the test-scale parameter set and
// writes machine-readable JSON. testing.Benchmark picks the iteration count,
// so wall-clock stays in seconds even on slow hosts. withMetrics attaches
// the observability registry snapshot to the report. withMemBW additionally
// samples the ring traffic counters around the rows that have a registered
// probe and attaches bytes-moved-per-op columns.
func runMicro(out io.Writer, withMetrics, withMemBW bool) error {
	ctx, err := anaheim.NewContext(anaheim.TestParameters(), 1)
	if err != nil {
		return err
	}
	ctx.GenRotationKeys(1)
	u := make([]complex128, ctx.Params.Slots())
	for i := range u {
		u[i] = complex(float64(i%7)/8, -float64(i%3)/4)
	}
	ctU, err := ctx.Encrypt(u)
	if err != nil {
		return err
	}
	ctV, err := ctx.Encrypt(u)
	if err != nil {
		return err
	}
	pt, err := ctx.Encode(u, ctU.Level())
	if err != nil {
		return err
	}

	benches := map[string]func(b *testing.B){
		"encrypt": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Encrypt(u); err != nil {
					b.Fatal(err)
				}
			}
		},
		"decrypt": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Decrypt(ctU)
			}
		},
		"add": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Add(ctU, ctV)
			}
		},
		"mul-relin-rescale": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Mul(ctU, ctV)
			}
		},
		"mul-plain": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.MulPlain(ctU, pt)
			}
		},
		"rotate": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Rotate(ctU, 1); err != nil {
					b.Fatal(err)
				}
			}
		},
	}

	probes := map[string]memProbe{
		// Facade-level headline ops at the test preset: cheap to probe, and
		// the membw column makes their modeled traffic visible next to their
		// ns/op.
		"mul-relin-rescale": func() (float64, float64, error) {
			return probeTraffic(func() error {
				ctx.Mul(ctU, ctV)
				return nil
			})
		},
		"rotate": func() (float64, float64, error) {
			return probeTraffic(func() error {
				_, err := ctx.Rotate(ctU, 1)
				return err
			})
		},
	}

	addNTTBenches(benches)
	addBConvBenches(benches)
	addKernelTierBenches(benches)

	// The two workloads the §V rewrites target: a dense 32-diagonal linear
	// transform — the grouped bootstrap-DFT shape, evaluated under the cost
	// model's BSGS plan with the baby ∪ giant key set — and a full bootstrap.
	slots := ctx.Params.Slots()
	denseDiags := make(map[int][]complex128)
	for d := 0; d < 32; d++ {
		row := make([]complex128, slots)
		for i := range row {
			row[i] = complex(float64((i+d)%7)/7, float64((i*d)%5)/6)
		}
		denseDiags[d] = row
	}
	lt := anaheim.NewLinearTransform(slots, denseDiags)
	ctx.GenLinearTransformKeys(lt)
	lintrans := func() error { _, err := ctx.EvaluateLinearTransform(ctU, lt); return err }

	bootCtx, err := anaheim.NewContext(anaheim.BootParameters(), 2)
	if err != nil {
		return err
	}
	if err := bootCtx.SetupBootstrapping(anaheim.DefaultBootstrapConfig()); err != nil {
		return err
	}
	vb := make([]complex128, bootCtx.Params.Slots())
	for i := range vb {
		vb[i] = complex(float64(i%5)/8, 0)
	}
	ctBoot, err := bootCtx.Encrypt(vb)
	if err != nil {
		return err
	}
	ctBoot = bootCtx.DropToLevel(ctBoot, 0)
	bootstrap := func() error { _, err := bootCtx.Bootstrap(ctBoot); return err }

	for name, op := range map[string]func() error{"lintrans": lintrans, "bootstrap": bootstrap} {
		benches[name] = func(b *testing.B) {
			// Warm the diagonal-encoding caches so the loop measures kernels.
			if err := op(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		}
		probes[name] = func() (float64, float64, error) { return probeTraffic(op) }
	}

	// Key-switch count per sweep, from the lintrans rotation counter — a
	// deterministic column, so -compare style diffs see plan regressions even
	// when ns/op jitter hides them.
	rotTotal := func() float64 {
		return obs.Default.Snapshot().Counters["ckks_lintrans_rotations_total"]
	}

	rep := microReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Workers:    par.Workers(),
		Params:     fmt.Sprintf("logN=%d levels=%d (test preset)", ctx.Params.LogN(), ctx.Params.MaxLevel()+1),
		KernelTier: modarith.ActiveTier().String(),
	}
	for _, tier := range modarith.AvailableTiers() {
		rep.KernelTiers = append(rep.KernelTiers, tier.String())
	}
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := testing.Benchmark(benches[name])
		res := microResult{
			Op:       name,
			NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
		membw := ""
		if probe, ok := probes[name]; withMemBW && ok {
			moved, saved, err := probe()
			if err != nil {
				return fmt.Errorf("anaheim-bench: -membw probe %s: %w", name, err)
			}
			res.MemBytesOp = moved
			res.MemSavedOp = saved
			membw = fmt.Sprintf(" %9.1f MB moved/op", moved/(1<<20))
		}
		if name == "lintrans" {
			before := rotTotal()
			if err := lintrans(); err != nil {
				return fmt.Errorf("anaheim-bench: rotation probe: %w", err)
			}
			res.RotationsOp = rotTotal() - before
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d allocs/op%s\n",
			name, res.NsPerOp, res.AllocsOp, membw)
	}

	if withMetrics {
		snap := obs.Default.Snapshot()
		rep.Metrics = &snap
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
