package anaheim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/experiments"
)

func newCtx(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(TestParameters(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randVec(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	return v
}

func facadeMaxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}

func TestContextRoundTrip(t *testing.T) {
	ctx := newCtx(t)
	r := rand.New(rand.NewSource(1))
	u := randVec(r, ctx.Params.Slots())
	ct, err := ctx.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	if e := facadeMaxErr(ctx.Decrypt(ct), u); e > 1e-6 {
		t.Fatalf("round trip error %g", e)
	}
}

// TestRandomContexts: two contexts whose masters come from crypto/rand hold
// different keys and encrypt differently, and each decrypts its own
// ciphertexts — and not the other's.
func TestRandomContexts(t *testing.T) {
	var ctxs [2]*Context
	var rlk [2][]byte
	for i := range ctxs {
		ctx, err := NewRandomContext(TestParameters())
		if err != nil {
			t.Fatal(err)
		}
		if rlk[i], err = ctx.EvaluationKeys().Rlk.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
	}
	if bytes.Equal(rlk[0], rlk[1]) {
		t.Fatal("two random contexts hold the same relinearization key")
	}
	u := randVec(rand.New(rand.NewSource(3)), ctxs[0].Params.Slots())
	var wire [2][]byte
	for i, ctx := range ctxs {
		ct, err := ctx.Encrypt(u)
		if err != nil {
			t.Fatal(err)
		}
		if wire[i], err = ct.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if e := facadeMaxErr(ctx.Decrypt(ct), u); e > 1e-6 {
			t.Errorf("context %d decrypts its own ciphertext with error %g", i, e)
		}
		if e := facadeMaxErr(ctxs[1-i].Decrypt(ct), u); e < 1 {
			t.Errorf("context %d decrypts context %d's ciphertext (error %g)", 1-i, i, e)
		}
	}
	if bytes.Equal(wire[0], wire[1]) {
		t.Fatal("two random contexts encrypt a vector to the same bytes")
	}
}

// TestEncryptBytesUnchanged pins Context.Encrypt's wire bytes for a fixed
// vector under a fixed seed, over two consecutive encryptions: the
// encryptor's draw order (a's seed, then e, from its one keyed stream), the
// mask's expansion from that seed and the linearity argument that lets the
// message join e before its transform. The SHA-256 values were recorded when
// Context.Encrypt moved from the public key to the secret key it holds.
func TestEncryptBytesUnchanged(t *testing.T) {
	ctx, err := NewContext(TestParameters(), 7)
	if err != nil {
		t.Fatal(err)
	}
	u := randVec(rand.New(rand.NewSource(7)), ctx.Params.Slots())
	for i, want := range []string{
		"6242a119d8c4ac19207e35968b168889f66be29f93d9f7c5388b6194370d109e",
		"631383d6f791a24f6f50c3fe0e738380cc32c0e762a098f81fab77c57d879641",
	} {
		ct, err := ctx.Encrypt(u)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != want {
			t.Errorf("encryption %d: sha256 %s, want %s", i, got, want)
		}
	}
}

// TestClientPathPins pins what one client round trip costs at the serving
// workload's shape (logN 12, 10 limbs): limb transforms from the ring's own
// counters — ℓ+1 forward for an encrypt, k = 2 inverse for a decrypt — and
// steady-state allocations. The context is built at GOMAXPROCS 1, so its
// rings run their limbs serially, as the other pins do: the par dispatch
// allocates chunk closures.
func TestClientPathPins(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	ctx, err := NewContext(ParametersLiteral{LogN: 12, LogQ: append([]int{55}, 45, 45, 45, 45, 45, 45, 45, 45, 45),
		LogP: []int{58, 58, 58}, LogScale: 45}, 1)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	u := randVec(rand.New(rand.NewSource(5)), ctx.Params.Slots())
	rq := ctx.Params.RingQ()
	limbs := int64(ctx.Params.MaxLevel() + 1)

	fwd0, inv0 := rq.Counters()
	ct, err := ctx.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	if fwd, inv := rq.Counters(); fwd-fwd0 != limbs || inv-inv0 != 0 {
		t.Errorf("Encrypt ran %d forward / %d inverse limb transforms, want %d / 0", fwd-fwd0, inv-inv0, limbs)
	}
	fwd0, inv0 = rq.Counters()
	got := ctx.Decrypt(ct)
	if fwd, inv := rq.Counters(); fwd-fwd0 != 0 || inv-inv0 != 2 {
		t.Errorf("Decrypt ran %d forward / %d inverse limb transforms, want 0 / 2", fwd-fwd0, inv-inv0)
	}
	if e := facadeMaxErr(got, u); e > 1e-6 {
		t.Fatalf("round trip error %g", e)
	}

	if raceEnabled {
		return // race-detector instrumentation inflates allocation counts
	}
	// Encrypt measures 17: the two output polynomials (3 objects each), the
	// ciphertext, the mask's seeded stream, one sampled vector, the
	// encoder's slot and coefficient scratch, a key view, per-limb closures.
	// Decrypt measures 6: the slot vector, three row views, closures.
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ctx.Encrypt(u); err != nil {
			t.Fatal(err)
		}
	}); allocs > 22 {
		t.Errorf("Encrypt allocates %.1f objects/op, want <= 22", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { ctx.Decrypt(ct) }); allocs > 10 {
		t.Errorf("Decrypt allocates %.1f objects/op, want <= 10", allocs)
	}
}

func TestContextArithmetic(t *testing.T) {
	ctx := newCtx(t)
	r := rand.New(rand.NewSource(2))
	n := ctx.Params.Slots()
	u, v := randVec(r, n), randVec(r, n)
	ctU, _ := ctx.Encrypt(u)
	ctV, _ := ctx.Encrypt(v)

	want := make([]complex128, n)
	for i := range want {
		want[i] = (u[i]+v[i])*v[i] - u[i]
	}
	out := ctx.Sub(ctx.Mul(ctx.Add(ctU, ctV), ctV), ctx.DropToLevel(ctU, ctU.Level()-1))
	if e := facadeMaxErr(ctx.Decrypt(out), want); e > 1e-4 {
		t.Fatalf("arithmetic error %g", e)
	}
}

// TestContextRelease: a loop that releases each value it replaces computes
// what the same loop computes without releasing, byte for byte; releasing nil
// or a value twice does nothing.
func TestContextRelease(t *testing.T) {
	ctx := newCtx(t)
	r := rand.New(rand.NewSource(6))
	ct, err := ctx.Encrypt(randVec(r, ctx.Params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	loop := func(release bool) []byte {
		acc := ctx.Mul(ct, ct)
		for i := 0; i < 3; i++ {
			next := ctx.AddConst(ctx.Mul(acc, ct), 0.25)
			if release {
				ctx.Release(acc)
				ctx.Release(acc, nil)
			}
			acc = next
		}
		b, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := loop(false)
	for rep := 0; rep < 2; rep++ { // the second run reuses what the first released
		if got := loop(true); string(got) != string(want) {
			t.Fatalf("run %d: releasing intermediates changed the result", rep)
		}
	}
}

func TestContextConstOps(t *testing.T) {
	ctx := newCtx(t)
	r := rand.New(rand.NewSource(3))
	u := randVec(r, ctx.Params.Slots())
	ct, _ := ctx.Encrypt(u)
	out := ctx.AddConst(ctx.MulConst(ct, 2.0), -0.5)
	want := make([]complex128, len(u))
	for i := range want {
		want[i] = 2*u[i] - 0.5
	}
	if e := facadeMaxErr(ctx.Decrypt(out), want); e > 1e-5 {
		t.Fatalf("const ops error %g", e)
	}
}

func TestContextPlaintextOps(t *testing.T) {
	ctx := newCtx(t)
	r := rand.New(rand.NewSource(4))
	n := ctx.Params.Slots()
	u, p := randVec(r, n), randVec(r, n)
	ct, _ := ctx.Encrypt(u)
	pt, err := ctx.Encode(p, ct.Level())
	if err != nil {
		t.Fatal(err)
	}
	out := ctx.MulPlain(ct, pt)
	want := make([]complex128, n)
	for i := range want {
		want[i] = u[i] * p[i]
	}
	if e := facadeMaxErr(ctx.Decrypt(out), want); e > 1e-5 {
		t.Fatalf("PMULT error %g", e)
	}
}

func TestContextRotationAndConjugation(t *testing.T) {
	ctx := newCtx(t)
	ctx.GenRotationKeys(5)
	ctx.GenConjugationKey()
	r := rand.New(rand.NewSource(5))
	n := ctx.Params.Slots()
	u := randVec(r, n)
	ct, _ := ctx.Encrypt(u)

	rot, err := ctx.Rotate(ct, 5)
	if err != nil {
		t.Fatal(err)
	}
	conj, err := ctx.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cmplx.Abs(ctx.Decrypt(rot)[i]-u[(i+5)%n]) > 1e-5 {
			t.Fatal("rotation wrong")
		}
		if cmplx.Abs(ctx.Decrypt(conj)[i]-cmplx.Conj(u[i])) > 1e-5 {
			t.Fatal("conjugation wrong")
		}
	}
}

func TestContextMissingRotationKey(t *testing.T) {
	ctx := newCtx(t)
	ct, _ := ctx.Encrypt([]complex128{1})
	if _, err := ctx.Rotate(ct, 9); err == nil {
		t.Fatal("rotation without a key must error")
	}
}

func TestContextLinearTransform(t *testing.T) {
	ctx := newCtx(t)
	n := ctx.Params.Slots()
	r := rand.New(rand.NewSource(6))
	diags := map[int][]complex128{0: randVec(r, n), 2: randVec(r, n)}
	lt := NewLinearTransform(n, diags)
	ctx.GenLinearTransformKeys(lt)
	u := randVec(r, n)
	ct, _ := ctx.Encrypt(u)
	out, err := ctx.EvaluateLinearTransform(ct, lt)
	if err != nil {
		t.Fatal(err)
	}
	if e := facadeMaxErr(ctx.Decrypt(out), lt.Apply(u)); e > 1e-4 {
		t.Fatalf("LT error %g", e)
	}
}

func TestContextBootstrapUnconfigured(t *testing.T) {
	ctx := newCtx(t)
	ct, _ := ctx.Encrypt([]complex128{1})
	if _, err := ctx.Bootstrap(ct); err == nil {
		t.Fatal("Bootstrap before SetupBootstrapping must error")
	}
}

// A config the EvalMod construction cannot run is an error, not a panic
// (an empty Chebyshev series, a negative shift, an inverted interval).
func TestSetupBootstrappingRejectsBadConfig(t *testing.T) {
	ctx := newCtx(t)
	for name, mutate := range map[string]func(*BootstrapConfig){
		"fftIter 0":        func(c *BootstrapConfig) { c.FFTIterC2S = 0 },
		"degree 0":         func(c *BootstrapConfig) { c.EvalModDeg = 0 },
		"degree -1":        func(c *BootstrapConfig) { c.EvalModDeg = -1 },
		"double angles -1": func(c *BootstrapConfig) { c.DoubleAngles = -1 },
		"K 0":              func(c *BootstrapConfig) { c.K = 0 },
		"K -13":            func(c *BootstrapConfig) { c.K = -13 },
	} {
		cfg := DefaultBootstrapConfig()
		mutate(&cfg)
		if err := ctx.SetupBootstrapping(cfg); err == nil {
			t.Errorf("%s: SetupBootstrapping accepted %+v", name, cfg)
		}
	}
	ct, _ := ctx.Encrypt([]complex128{1})
	if _, err := ctx.Bootstrap(ct); err == nil {
		t.Fatal("a rejected config must leave bootstrapping unconfigured")
	}
}

// The benchmark's sequence: SetupBootstrapping generates each DFT key at the
// level its sweeps run, below the top for most; GenLinearTransformKeys of an
// 8-diagonal map must then give the map top-level keys — replacing the
// bootstrap's lower ones it shares — so a top-level transform succeeds, and
// the bootstrap still runs on the replaced keys.
func TestLinearTransformKeysAfterBootstrapSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	ctx, err := NewContext(BootParameters(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetupBootstrapping(DefaultBootstrapConfig()); err != nil {
		t.Fatal(err)
	}
	n, top := ctx.Params.Slots(), ctx.Params.MaxLevel()
	r := rand.New(rand.NewSource(9))
	diags := make(map[int][]complex128, 8)
	for d := 0; d < 8; d++ {
		diags[d] = randVec(r, n)
	}
	lt := NewLinearTransform(n, diags)
	keyLevel := func(rot int) int {
		if k, ok := ctx.EvaluationKeys().Gal[ctx.Params.RingQ().GaloisElement(rot)]; ok {
			return k.Level()
		}
		return -1
	}
	shared := 0
	for _, rot := range ckks.GaloisKeysForLinearTransform(ctx.Params, lt) {
		if l := keyLevel(rot); l >= 0 && l < top {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the bootstrap holds none of the map's keys below the top; the test checks nothing")
	}

	ctx.GenLinearTransformKeys(lt)
	for _, rot := range ckks.GaloisKeysForLinearTransform(ctx.Params, lt) {
		if l := keyLevel(rot); l != top {
			t.Errorf("rotation %d key at level %d after GenLinearTransformKeys, want %d", rot, l, top)
		}
	}
	u := randVec(r, n)
	ct, err := ctx.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.EvaluateLinearTransform(ct, lt)
	if err != nil {
		t.Fatalf("top-level transform after SetupBootstrapping: %v", err)
	}
	if e := facadeMaxErr(ctx.Decrypt(out), lt.Apply(u)); e > 1e-4 {
		t.Fatalf("LT error %g", e)
	}
	boot, err := ctx.Bootstrap(ctx.DropToLevel(ct, 0))
	if err != nil {
		t.Fatal(err)
	}
	if e := facadeMaxErr(ctx.Decrypt(boot), u); e > 1e-3 {
		t.Fatalf("bootstrap error %g", e)
	}
}

// A server context built from the client's uploaded key set — after
// SetupBootstrapping it carries the bootstrap section — bootstraps without
// the secret, and the client decrypts the result.
func TestServerContextBootstraps(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	client, err := NewContext(BootParameters(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetupBootstrapping(DefaultBootstrapConfig()); err != nil {
		t.Fatal(err)
	}
	blob, err := client.EvaluationKeys().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var keys EvaluationKeySet
	if err := keys.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	server, err := NewServerContext(BootParameters(), &keys)
	if err != nil {
		t.Fatal(err)
	}
	u := randVec(rand.New(rand.NewSource(10)), client.Params.Slots())
	ct, err := client.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	out, err := server.Bootstrap(client.DropToLevel(ct, 0))
	if err != nil {
		t.Fatal(err)
	}
	if e := facadeMaxErr(client.Decrypt(out), u); e > 1e-3 {
		t.Fatalf("bootstrap on the server context: error %g", e)
	}
	keys.Boot.ToDense = nil
	if _, err := NewServerContext(BootParameters(), &keys); !errors.Is(err, ckks.ErrMissingKey) {
		t.Fatalf("server context over a key set without an encapsulation key: %v, want ckks.ErrMissingKey", err)
	}
}

// A preset too shallow for the config is refused at setup, not by a panic in
// the first Bootstrap's rescale.
func TestSetupBootstrappingNeedsDepth(t *testing.T) {
	ctx := newCtx(t)
	if err := ctx.SetupBootstrapping(DefaultBootstrapConfig()); err == nil {
		t.Fatalf("SetupBootstrapping accepted %d levels for the default config", ctx.Params.MaxLevel())
	}
	ct, _ := ctx.Encrypt([]complex128{1})
	if _, err := ctx.Bootstrap(ctx.DropToLevel(ct, 0)); err == nil {
		t.Fatal("a refused setup must leave bootstrapping unconfigured")
	}
}

func TestSimulateFacade(t *testing.T) {
	r, err := Simulate("Boot", A100NearBank)
	if err != nil {
		t.Fatal(err)
	}
	if r.OoM || r.TimeMs <= 0 || r.PIMDramGB <= 0 {
		t.Fatalf("bad result: %+v", r)
	}
	base, err := Simulate("Boot", A100)
	if err != nil {
		t.Fatal(err)
	}
	if base.TimeMs <= r.TimeMs {
		t.Fatal("PIM platform must beat the GPU-only baseline on Boot")
	}
	oom, err := Simulate("ResNet18", RTX4090)
	if err != nil {
		t.Fatal(err)
	}
	if !oom.OoM {
		t.Fatal("ResNet18 must OoM on the RTX 4090")
	}
	if _, err := Simulate("nope", A100); err == nil {
		t.Fatal("unknown workload must error")
	}
	if _, err := Simulate("Boot", SimPlatform("cray")); err == nil {
		t.Fatal("unknown platform must error")
	}
}

// TestSimPlatformsMatchTable: every SimPlatform constant names a row of the
// platform table, and every row has a constant.
func TestSimPlatformsMatchTable(t *testing.T) {
	consts := map[SimPlatform]bool{A100: true, A100NearBank: true, A100CustomHBM: true, RTX4090: true, RTX4090PIM: true}
	for p := range consts {
		if _, err := experiments.PlatformByID(string(p)); err != nil {
			t.Errorf("constant %q: %v", p, err)
		}
	}
	for _, p := range experiments.Platforms() {
		if !consts[SimPlatform(p.ID)] {
			t.Errorf("platform table id %q has no SimPlatform constant", p.ID)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	for _, id := range []string{"fig1-table", "table3", "table4"} {
		out, err := RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "-") || len(out) < 50 {
			t.Fatalf("experiment %s output implausible:\n%s", id, out)
		}
	}
	if _, err := RunExperiment("fig99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
	ids, reg := ExperimentIDs(), experiments.Experiments()
	if len(ids) != len(reg) {
		t.Fatalf("%d experiment ids for %d registry entries", len(ids), len(reg))
	}
	for i, e := range reg {
		if ids[i] != e.ID {
			t.Fatalf("ExperimentIDs()[%d] = %q, registry has %q", i, ids[i], e.ID)
		}
	}
	if len(Workloads()) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(Workloads()))
	}
}

// TestConcurrentContextOps shares one Context between goroutines that
// interleave Encrypt, Mul, Rotate and Decrypt. Run under -race this guards
// the evaluator's and ring's internal caches, the encryptor mutex, and the
// limb worker pool.
func TestConcurrentContextOps(t *testing.T) {
	ctx := newCtx(t)
	ctx.GenRotationKeys(1, 2)
	r := rand.New(rand.NewSource(5))
	n := ctx.Params.Slots()
	u := randVec(r, n)
	v := randVec(r, n)

	const goroutines = 2
	const iters = 3
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			errs <- func() error {
				rot := g + 1 // goroutine 0 rotates by 1, goroutine 1 by 2
				for it := 0; it < iters; it++ {
					cu, err := ctx.Encrypt(u)
					if err != nil {
						return err
					}
					cv, err := ctx.Encrypt(v)
					if err != nil {
						return err
					}
					prod := ctx.Mul(cu, cv)
					rotated, err := ctx.Rotate(prod, rot)
					if err != nil {
						return err
					}
					got := ctx.Decrypt(rotated)
					want := make([]complex128, n)
					for i := range want {
						want[i] = u[(i+rot)%n] * v[(i+rot)%n]
					}
					if e := facadeMaxErr(got, want); e > 1e-3 {
						return fmt.Errorf("goroutine %d iter %d: error %g", g, it, e)
					}
				}
				return nil
			}()
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestServerContext checks the serving trust model: an evaluation-only
// context computes on ciphertexts it cannot decrypt.
func TestServerContext(t *testing.T) {
	client := newCtx(t)
	client.GenRotationKeys(1)

	server, err := NewServerContext(TestParameters(), client.EvaluationKeys())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Encrypt([]complex128{1}); err == nil {
		t.Fatal("server context must not encrypt")
	}

	u := []complex128{1, 2, 3, 4}
	cu, err := client.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	sq := server.Mul(cu, cu)
	rotated, err := server.Rotate(sq, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := client.Decrypt(rotated)
	want := []complex128{4, 9, 16}
	if e := facadeMaxErr(got[:3], want); e > 1e-3 {
		t.Fatalf("server-evaluated result off by %g", e)
	}

	// Keys one level above a shorter chain are refused, not run into by the
	// first key switch.
	short := TestParameters()
	short.LogQ = short.LogQ[:len(short.LogQ)-1]
	if _, err := NewServerContext(short, client.EvaluationKeys()); !errors.Is(err, ckks.ErrShape) {
		t.Fatalf("keys of a longer chain: NewServerContext error %v, want ckks.ErrShape", err)
	}
	if _, err := NewServerContext(TestParameters(), nil); !errors.Is(err, ckks.ErrShape) {
		t.Fatalf("no key set: NewServerContext error %v, want ckks.ErrShape", err)
	}
}

// TestEngineFacade drives a job DAG through the serving runtime via the
// facade hooks.
func TestEngineFacade(t *testing.T) {
	ctx := newCtx(t)
	ctx.GenRotationKeys(1)

	eng := NewEngine(EngineConfig{Workers: 2})
	defer eng.Close()
	sess, err := ctx.AttachSession(eng)
	if err != nil {
		t.Fatal(err)
	}

	u := []complex128{0.5, -0.25, 1, 2}
	cu, err := ctx.Encrypt(u)
	if err != nil {
		t.Fatal(err)
	}
	job, err := eng.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*Ciphertext{"x": cu},
		Ops: []OpSpec{
			{ID: "sq", Op: "square", Args: []string{"x"}},
			{ID: "r", Op: "rotate", Args: []string{"sq"}, K: 1},
		},
		Outputs: []string{"r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.Decrypt(outs["r"])
	want := []complex128{0.0625, 1, 4}
	if e := facadeMaxErr(got[:3], want); e > 1e-3 {
		t.Fatalf("engine job result off by %g", e)
	}
}
