package ckks

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/ring"
	"github.com/anaheim-sim/anaheim/internal/trace"
	"github.com/anaheim-sim/anaheim/internal/workloads"
)

func TestModRaise(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(60))
	v := randomComplex(r, tc.params.Slots(), 1)
	ct := dropTo(tc.eval, tc.encryptVec(t, v), 0)

	b := &Bootstrapper{params: tc.params, q0: float64(tc.params.RingQ().Moduli[0].Q)}
	raised := b.ModRaise(ct)
	if raised.Level() != tc.params.MaxLevel() {
		t.Fatalf("level after ModRaise = %d", raised.Level())
	}
	// Decrypting the raised ciphertext and reducing mod q0 must recover the
	// message: slots differ from v only by multiples of q0/Δ (the I terms),
	// which for most slots are zero in magnitude ≤ K·q0/Δ. Instead of
	// checking slots (spiky), check the coefficient residues mod q0.
	pt := decryptNew(tc.decr, raised)
	rq := tc.params.RingQ()
	work := pt.Value.CopyNew()
	rq.INTT(work, raised.Level())

	ptLow := decryptNew(tc.decr, ct)
	workLow := ptLow.Value.CopyNew()
	rq.INTT(workLow, 0)

	q0 := rq.Moduli[0]
	for j := 0; j < tc.params.N(); j++ {
		if work.Coeffs[0][j] != workLow.Coeffs[0][j] {
			t.Fatalf("coefficient %d mod q0 changed after ModRaise", j)
		}
	}
	_ = q0
}

func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := newTestContext(t, BootTestParameters())
	cfg := DefaultBootstrapConfig()
	boot, err := tc.bootstrapper(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(61))
	v := randomComplex(r, tc.params.Slots(), 0.7)
	ct := tc.encryptVec(t, v)
	// Exhaust the ciphertext.
	ct = dropTo(tc.eval, ct, 0)
	if ct.Level() != 0 {
		t.Fatal("setup: ciphertext not at level 0")
	}

	before := obsLinTransRotations.Value()
	ksBefore := obsKeySwitch.count.Value()
	out, err := boot.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Outside the sweeps a bootstrap switches keys twice to encapsulate, once
	// to conjugate, and once per HMULT of each EvalMod — the T₂ step, the
	// series in y and the double angles: 25 at the default config.
	wantOutside := 2 + 1 + 2*(1+chebyshevProducts(cfg.EvalModDeg/2)+cfg.DoubleAngles)
	if got := int(obsKeySwitch.count.Value() - ksBefore); got != wantOutside || wantOutside != 25 {
		t.Errorf("bootstrap spent %d key switches outside its sweeps, the config %d (25 pinned)", got, wantOutside)
	}
	// The six DFT sweeps ran the plans planSweeps chose for them as a set —
	// each transform's diagonals encoded for its planned baby step only — and
	// none fell back to the degenerate plan: the rotation counter advanced by
	// exactly the plans' key switches.
	lts := append(append([]*LinearTransform{}, boot.c2s...), boot.s2c...)
	wantKS := 0
	for i, pl := range planSweeps(tc.params, lts) {
		if got := lts[i].sweepPlan(tc.params); got.bs != pl.bs {
			t.Errorf("matrix %d: bootstrapper plan bs %d, joint planner bs %d", i, got.bs, pl.bs)
		}
		for k := range lts[i].encCache {
			if k.bs != pl.bs {
				t.Errorf("matrix %d: diagonals encoded for bs %d, plan bs %d", i, k.bs, pl.bs)
			}
		}
		wantKS += pl.keySwitchCount()
	}
	if got := int(obsLinTransRotations.Value() - before); got != wantKS {
		t.Errorf("bootstrap sweeps spent %d key switches, the plans %d", got, wantKS)
	}
	if out.Level() <= 0 {
		t.Fatalf("bootstrap did not regain levels: level=%d", out.Level())
	}
	if want := cfg.shape(tc.params.MaxLevel()).out; out.Level() != want {
		t.Errorf("bootstrap output at level %d, the config's depth puts it at %d", out.Level(), want)
	}
	if math.Abs(out.Scale/tc.params.DefaultScale()-1) > 1e-9 {
		t.Fatalf("bootstrap scale %g != Δ %g", out.Scale, tc.params.DefaultScale())
	}
	got := tc.decryptVec(out)
	stats := ComputePrecision(got, v)
	t.Logf("bootstrap: regained level %d, %s", out.Level(), stats)
	if stats.MinBits < 16.5 {
		t.Fatalf("bootstrap precision %.2f bits, floor 16.5", stats.MinBits)
	}

	// The refreshed ciphertext must support further multiplications.
	sq, err := tc.eval.Square(out)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * v[i]
	}
	if e := maxErr(tc.decryptVec(sq), want); e > 5e-2 {
		t.Fatalf("post-bootstrap squaring error %g", e)
	}
}

// TestBootOutputKeepsItsScale: the level a bootstrap hands back carries a
// Δ-sized prime (bootChain), so the caller's products after it rescale back
// to Δ. Slots on the unit circle, bootstrapped at logN 11 and squared three
// times, hold the scale Δ at every level, to the primes' distance from 2^50,
// and keep 12 bits or more in the worst slot. With the output level on a
// 60-bit prime the first square lands at 2^40 and the third at 2^10, where
// about 1 bit is left.
func TestBootOutputKeepsItsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := newTestContext(t, BootTestParameters())
	boot, err := tc.bootstrapper(DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(65))
	v := make([]complex128, tc.params.Slots())
	for i := range v {
		v[i] = cmplx.Rect(1, 2*math.Pi*r.Float64())
	}
	ct, err := boot.Bootstrap(dropTo(tc.eval, tc.encryptVec(t, v), 0))
	if err != nil {
		t.Fatal(err)
	}
	delta := tc.params.DefaultScale()
	for k := 0; k <= 3; k++ {
		if k > 0 {
			sq, err := tc.eval.Square(ct)
			if err != nil {
				t.Fatal(err)
			}
			tc.eval.Release(ct)
			ct = sq
			for i := range v {
				v[i] *= v[i]
			}
		}
		stats := ComputePrecision(tc.decryptVec(ct), v)
		t.Logf("%d squarings: level %d, scale 2^%.6f (Δ·(1 %+.2g)), %s", k, ct.Level(), math.Log2(ct.Scale), ct.Scale/delta-1, stats)
		if math.Abs(ct.Scale/delta-1) > 1e-8 || stats.MinBits < 12 {
			t.Errorf("%d squarings after a bootstrap: scale 2^%.6f and %.2f bits, want Δ = 2^%.0f and >= 12",
				k, math.Log2(ct.Scale), stats.MinBits, math.Log2(delta))
		}
	}
}

// TestBootPresetSpendsEveryPrime: BootTestParameters holds q0, the 8 levels
// a bootstrap leaves and exactly the levels DefaultBootstrapConfig consumes —
// no prime that only a constant multiply would spend — and a bootstrap on it
// returns level 8. The chain the walk sizes for 11 levels left, three more
// 50-bit primes below the bootstrap's, returns level 11 at 15 bits or more:
// the folded bootstrap leaves L_eff 11 to a longer chain.
func TestBootPresetSpendsEveryPrime(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	cfg := DefaultBootstrapConfig()
	lit := BootTestParameters()
	s := cfg.shape(len(lit.LogQ) - 1)
	if spent := s.top - s.out; s.out != 8 {
		t.Errorf("BootTestParameters holds %d Q primes, q0 + 8 + the %d levels a bootstrap consumes is %d", len(lit.LogQ), spent, 1+8+spent)
	}
	long := lit
	long.LogQ = cfg.bootChain(11)
	r := rand.New(rand.NewSource(63))
	for _, c := range []struct {
		lit   ParametersLiteral
		level int
	}{{lit, 8}, {long, 11}} {
		tc := newTestContext(t, c.lit)
		boot, err := tc.bootstrapper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := randomComplex(r, tc.params.Slots(), 0.7)
		out, err := boot.Bootstrap(dropTo(tc.eval, tc.encryptVec(t, v), 0))
		if err != nil {
			t.Fatal(err)
		}
		stats := ComputePrecision(tc.decryptVec(out), v)
		t.Logf("%d Q limbs: output level %d, %s", len(c.lit.LogQ), out.Level(), stats)
		if out.Level() != c.level || stats.MinBits < 15 {
			t.Errorf("%d Q limbs: bootstrap output at level %d with %.2f bits, want level %d with >= 15",
				len(c.lit.LogQ), out.Level(), stats.MinBits, c.level)
		}
	}
}

// TestBootPresetGadgetShape: BootTestParameters is the chain the walk sizes
// for DefaultBootstrapConfig (bootChain), and its gadget is Table IV's D = 4.
// The chain is the hand-listed one it replaced but for q_8, the output level,
// now 50-bit like Δ: a product after the bootstrap rescales back to Δ instead
// of to Δ·2^-10, so log Q is 1 340 where the hand list held 1 350. Six 60-bit
// special primes (α = 6) split the 24-limb top into ⌈24/6⌉ = 4 digits, and
// every key switch a bootstrap spends runs with its stage level's digit count:
// CoeffToSlot and the conjugation 4, EvalMod's products 4 down to 3,
// SlotToCoeff 2. The bootstrap returns level 8 after 25 key switches outside
// its sweeps. Structural, like TestPaperParametersStructure: log PQ is
// 1 340 + 360 = 1 700 bits, so the preset is insecure at logN 11 and 12 by
// construction, and at N = 2^16 it would still exceed §IV-B's 1 623.
func TestBootPresetGadgetShape(t *testing.T) {
	lit := BootTestParameters()
	// q0 | 1–8 left to the caller | S2C 9–11, EvalMod 12–20, last C2S 21 | C2S 22–23.
	wantQ := slices.Concat([]int{60}, repeatInts(50, 8), repeatInts(60, 13), repeatInts(50, 2))
	if !slices.Equal(lit.LogQ, wantQ) || !slices.Equal(lit.LogP, repeatInts(60, 6)) ||
		lit.LogScale != 50 || lit.LogN != 11 || lit.HDense != 64 || lit.HSparse != 16 {
		t.Errorf("BootTestParameters = %+v, want LogQ %v, six 60-bit P primes, Δ = 2^50, logN 11, h 64 / 16", lit, wantQ)
	}
	p, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	top := p.MaxLevel()
	if p.Alpha() != 6 || p.Digits(top) != 4 {
		t.Errorf("α = %d and D = %d at the top level %d, want 6 and 4", p.Alpha(), p.Digits(top), top)
	}
	cfg := DefaultBootstrapConfig()
	s := cfg.shape(top)
	for _, st := range []struct {
		name   string
		levels []int
		lo, hi int
	}{
		{"CoeffToSlot", s.c2s, 4, 4},
		{"conjugation", []int{s.conj}, 4, 4},
		{"EvalMod", slices.Concat(s.series, s.angles), 3, 4},
		{"SlotToCoeff", s.s2c, 2, 2},
	} {
		lo, hi := p.Digits(st.levels[0]), p.Digits(st.levels[0])
		for _, l := range st.levels {
			lo, hi = min(lo, p.Digits(l)), max(hi, p.Digits(l))
		}
		if lo != st.lo || hi != st.hi {
			t.Errorf("%s at levels %v: %d–%d digits, want %d–%d", st.name, st.levels, lo, hi, st.lo, st.hi)
		}
	}
	if s.out != 8 {
		t.Errorf("a bootstrap returns level %d, want 8", s.out)
	}
	if got := 2 + 1 + 2*(1+chebyshevProducts(cfg.EvalModDeg/2)+cfg.DoubleAngles); got != 25 {
		t.Errorf("%d key switches outside the sweeps, want 25", got)
	}
	logQ, logP := 0, 0
	for _, b := range lit.LogQ {
		logQ += b
	}
	for _, b := range lit.LogP {
		logP += b
	}
	if logQ != 1340 || logP != 360 {
		t.Errorf("log Q = %d and log P = %d, want 1 340 and 360", logQ, logP)
	}
}

// TestBootLevelsMatchSimulator: the library and the simulator charge the
// same 15 levels for the default config, stage by stage but for two places
// where their routes differ. CoeffToSlot 3 = 3, SlotToCoeff 3 = 3 and the
// double angles 3 = 3. The conjugate split: the library spends none, riding
// the last CoeffToSlot matrix; workloads.BootConfig.BootLevels charges 1.
// The series: the library spends 1 + 5, its T₂ step and the degree-15 series
// in y; the simulator ⌈log2 32⌉ = 5 for the degree-31 series in x. Both
// spend the same 11 products per EvalMod: the T₂ step, the series in y's 7
// and the 3 double angles, which the simulated trace shows as its Tensor and
// TensorSq kernels, the only ones a Boot trace has outside its two EvalMods.
func TestBootLevelsMatchSimulator(t *testing.T) {
	cfg := DefaultBootstrapConfig()
	sim := workloads.BootConfig{FFTIterC2S: cfg.FFTIterC2S, FFTIterS2C: cfg.FFTIterS2C,
		ChebDegree: cfg.EvalModDeg, DoubleAng: cfg.DoubleAngles, SlotsLog: 15}
	s := cfg.shape(0)
	simSplit, simSeries := 1, int(math.Ceil(math.Log2(float64(sim.ChebDegree+1))))
	for _, st := range []struct {
		name     string
		lib, sim int
		want     [2]int
	}{
		{"CoeffToSlot", len(s.c2s), sim.FFTIterC2S, [2]int{3, 3}},
		{"conjugate split", 0, simSplit, [2]int{0, 1}},
		{"series", len(s.series), simSeries, [2]int{1 + 5, 5}},
		{"double angles", len(s.angles), sim.DoubleAng, [2]int{3, 3}},
		{"SlotToCoeff", len(s.s2c), sim.FFTIterS2C, [2]int{3, 3}},
	} {
		if [2]int{st.lib, st.sim} != st.want {
			t.Errorf("%s: the library spends %d levels, the simulator %d; want %d and %d", st.name, st.lib, st.sim, st.want[0], st.want[1])
		}
	}
	if got, want := s.top-s.out, sim.BootLevels(); got != want || got != 15 {
		t.Errorf("the library consumes %d levels, the simulator charges %d for the same config; want 15 and 15", got, want)
	}
	if sum := sim.FFTIterC2S + simSplit + simSeries + sim.DoubleAng + sim.FFTIterS2C; sum != sim.BootLevels() {
		t.Errorf("the simulator's stages sum to %d levels, BootLevels charges %d", sum, sim.BootLevels())
	}
	products := 0
	for _, k := range workloads.Bootstrap(trace.PaperParams(), trace.Options{}, sim).Kernels {
		if k.Op == pim.Tensor || k.Op == pim.TensorSq {
			products++
		}
	}
	lib := 1 + chebyshevProducts(cfg.EvalModDeg/2) + cfg.DoubleAngles
	if products%2 != 0 || products/2 != lib || lib != 11 {
		t.Errorf("the library spends %d products per EvalMod, the simulator %d/2 for the same config; want 11 and 11", lib, products)
	}
}

// TestBootstrapperFromUploadedKeys: the server half of bootstrapping needs
// only the key set. GenBootstrapKeys' output, sent through the wire form,
// builds a bootstrapper over an evaluator of its own that never sees the
// secret, and its bootstrap is byte-identical to the one built beside the
// key generator.
func TestBootstrapperFromUploadedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := newTestContext(t, BootTestParameters())
	local, err := tc.bootstrapper(DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tc.keys.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var keys EvaluationKeySet
	if err := keys.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := tc.params.CheckKeys(&keys); err != nil {
		t.Fatal(err)
	}
	if keys.Boot == nil || keys.Boot.Config != DefaultBootstrapConfig() || keys.CoeffBytes() != tc.keys.CoeffBytes() {
		t.Fatalf("bootstrap section lost on the wire: %+v", keys.Boot)
	}
	server, err := NewBootstrapper(tc.params, NewEncoder(tc.params), NewEvaluator(tc.params, &keys), &keys)
	if err != nil {
		t.Fatal(err)
	}
	v := randomComplex(rand.New(rand.NewSource(64)), tc.params.Slots(), 0.7)
	ct := dropTo(tc.eval, tc.encryptVec(t, v), 0)
	want, err := local.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := want.MarshalBinary()
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(wb, gb) {
		t.Fatal("the bootstrapper built from the uploaded keys differs from the local one")
	}
	if stats := ComputePrecision(tc.decryptVec(got), v); stats.MinBits < 16.5 {
		t.Fatalf("bootstrap from uploaded keys: %s, floor 16.5 bits", stats)
	}
}

// TestNewBootstrapperRefusesMissingKeys: a key set without a bootstrap
// section, or lacking any key a bootstrap spends, or holding one below the
// level a stage spends it at, is refused at construction with ErrMissingKey
// naming the key.
func TestNewBootstrapperRefusesMissingKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bootstrap key set")
	}
	tc := newTestContext(t, BootTestParameters())
	if _, err := tc.bootstrapper(DefaultBootstrapConfig()); err != nil {
		t.Fatal(err)
	}
	p := tc.params
	bk := *tc.keys.Boot
	lv := bk.Config.shape(p.MaxLevel())
	conj := p.RingQ().GaloisElementConjugate()
	var dft uint64 // a DFT key below the top
	for g, k := range tc.keys.Gal {
		if g != conj && k.Level() < p.MaxLevel() {
			dft = g
		}
	}
	without := func(g uint64) map[uint64]*SwitchingKey {
		m := maps.Clone(tc.keys.Gal)
		delete(m, g)
		return m
	}
	lowConj := maps.Clone(tc.keys.Gal)
	lowConj[conj] = bk.ToSparse
	for name, c := range map[string]struct {
		keys *EvaluationKeySet
		want string
	}{
		"no section":       {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: tc.keys.Gal}, "no bootstrap section"},
		"no toSparse":      {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: tc.keys.Gal, Boot: &BootstrapKeys{Config: bk.Config, ToDense: bk.ToDense}}, "dense-to-sparse"},
		"no toDense":       {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: tc.keys.Gal, Boot: &BootstrapKeys{Config: bk.Config, ToSparse: bk.ToSparse}}, "sparse-to-dense"},
		"toDense at 0":     {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: tc.keys.Gal, Boot: &BootstrapKeys{Config: bk.Config, ToSparse: bk.ToSparse, ToDense: bk.ToSparse}}, fmt.Sprintf("at level 0 does not cover level %d", p.MaxLevel())},
		"no relin":         {&EvaluationKeySet{Gal: tc.keys.Gal, Boot: &bk}, "relinearization"},
		"no conjugation":   {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: without(conj), Boot: &bk}, fmt.Sprint("element ", conj)},
		"no DFT key":       {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: without(dft), Boot: &bk}, fmt.Sprint("element ", dft)},
		"conjugation at 0": {&EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: lowConj, Boot: &bk}, fmt.Sprintf("does not cover level %d", lv.conj)},
	} {
		_, err := NewBootstrapper(p, tc.enc, NewEvaluator(p, c.keys), c.keys)
		if !errors.Is(err, ErrMissingKey) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want ErrMissingKey naming %q", name, err, c.want)
		}
	}
}

// TestBootstrapRefusesEvalModChain: EvalMod re-declares its scale as q0, so
// a chain whose EvalMod primes are 50-bit under a 60-bit q0 would panic on a
// scale mismatch inside the first Bootstrap. Both halves refuse it up front
// with ErrScale, and the key generator adds nothing to the set.
func TestBootstrapRefusesEvalModChain(t *testing.T) {
	cfg := DefaultBootstrapConfig()
	lit := BootTestParameters()
	s := cfg.shape(len(lit.LogQ) - 1)
	for _, l := range slices.Concat(s.series, s.angles) {
		lit.LogQ[l] = 50
	}
	tc := newTestContext(t, lit)
	before := len(tc.keys.Gal)
	if err := tc.kgen.GenBootstrapKeys(tc.sk, tc.keys, cfg); !errors.Is(err, ErrScale) {
		t.Fatalf("GenBootstrapKeys: %v, want ErrScale", err)
	}
	if tc.keys.Boot != nil || len(tc.keys.Gal) != before {
		t.Fatal("a refused config left keys in the set")
	}
	keys := &EvaluationKeySet{Rlk: tc.keys.Rlk, Gal: tc.keys.Gal, Boot: &BootstrapKeys{Config: cfg}}
	if _, err := NewBootstrapper(tc.params, tc.enc, tc.eval, keys); !errors.Is(err, ErrScale) {
		t.Fatalf("NewBootstrapper: %v, want ErrScale", err)
	}
}

func TestBootstrapFFTIterVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	// Fewer grouped matrices consume fewer levels but use denser transforms
	// (the fftIter trade-off of Fig 3). Both must stay functional, each on
	// the chain the walk sizes for its config, and hand back 8 levels.
	r := rand.New(rand.NewSource(62))
	for _, iters := range []int{2, 3} {
		cfg := DefaultBootstrapConfig()
		cfg.FFTIterC2S, cfg.FFTIterS2C = iters, iters
		lit := BootTestParameters()
		lit.LogQ = cfg.bootChain(8)
		tc := newTestContext(t, lit)
		v := randomComplex(r, tc.params.Slots(), 0.7)
		boot, err := tc.bootstrapper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ct := dropTo(tc.eval, tc.encryptVec(t, v), 0)
		out, err := boot.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(tc.decryptVec(out), v); e > 2e-2 || out.Level() != 8 {
			t.Fatalf("fftIter=%d: bootstrap error %g, output level %d of %d, want 8", iters, e, out.Level(), tc.params.MaxLevel())
		}
		t.Logf("fftIter=%d: %d Q limbs, output level %d", iters, len(lit.LogQ), out.Level())
	}
}

func TestEvalModPlainReference(t *testing.T) {
	// The Chebyshev-of-cosine + double-angle construction must approximate
	// sin(2πt) on the EvalMod interval, in plaintext.
	cfg := DefaultBootstrapConfig()
	e := evalModPlainError(cfg)
	t.Logf("degree %d: plaintext EvalMod error 2^%.1f", cfg.EvalModDeg, math.Log2(e))
	if e > 0x1p-30 {
		t.Fatalf("EvalMod reference error 2^%.1f above 2^-30", math.Log2(e))
	}
}

// TestEvalModEvenSeries: EvalMod's cosine is even in s = t − 1/4, so its
// series runs in y = T₂(x). The weighted fit in x has no odd terms; the
// series in y, evaluated at 2x² − 1, is the fit; and evalModCt — the shift,
// the T₂ product, the series and the double angles — runs from the level of
// EvalMod's first product down to SlotToCoeff's input (shape) and returns sin(2πt) for t near the integers
// [−K, K] a bootstrap hands it.
func TestEvalModEvenSeries(t *testing.T) {
	cfg := DefaultBootstrapConfig()
	fit, q := evalModFit(cfg), evalModPoly(cfg)
	largest, odd := 0.0, 0.0
	for j, c := range fit {
		largest = max(largest, math.Abs(c))
		if j%2 == 1 {
			odd = max(odd, math.Abs(c))
		}
	}
	if odd > 0x1p-40*largest {
		t.Errorf("largest odd coefficient of the x-fit %.3g, over 2^-40 of the largest %.3g", odd, largest)
	}
	if len(q) != cfg.EvalModDeg/2+1 {
		t.Fatalf("series in y of degree %d, want %d", len(q)-1, cfg.EvalModDeg/2)
	}
	for i := 0; i <= 4096; i++ {
		x := -1 + float64(i)/2048
		if d := math.Abs(evalChebyshevSeries(q, -1, 1, 2*x*x-1) - evalChebyshevSeries(fit, -1, 1, x)); d > 0x1p-45 {
			t.Fatalf("x = %g: q(2x² − 1) is %.3g off the fit", x, d)
		}
	}

	tc := newTestContext(t, BootTestParameters())
	b := &Bootstrapper{params: tc.params, eval: tc.eval, cfg: cfg, evalMod: q, q0: float64(tc.params.RingQ().Moduli[0].Q)}
	r := rand.New(rand.NewSource(63))
	h := cfg.evalModHalfWidth()
	ts := make([]float64, tc.params.Slots())
	v := make([]complex128, len(ts))
	for i := range ts {
		ts[i] = float64(r.Intn(2*cfg.K+1)-cfg.K) + 0.01*(2*r.Float64()-1)
		v[i] = complex(ts[i]/h, 0)
	}
	s := cfg.shape(tc.params.MaxLevel())
	level := s.mul
	in, err := tc.encr.EncodeEncryptNew(tc.enc, v, level, b.q0, tc.sk)
	if err != nil {
		t.Fatal(err)
	}
	out := b.evalModCt(in)
	if want := s.s2c[0]; out.Level() != want {
		t.Errorf("evalModCt returned level %d from level %d, want %d", out.Level(), level, want)
	}
	for i, got := range tc.decryptVec(out) {
		if e := math.Abs(real(got) - math.Sin(2*math.Pi*ts[i])); e > 0x1p-20 {
			t.Fatalf("t = %.4f: evalModCt gives %.6g, sin(2πt) = %.6g", ts[i], real(got), math.Sin(2*math.Pi*ts[i]))
		}
	}
}

// evalModPlainError is the worst error, in sine units, of cfg's EvalMod
// polynomial evaluated in plaintext as evalModCt runs it — the shift, T₂,
// the Chebyshev series in y, then the double angles — against sin(2πt), on
// 256 points per period over [−K−1, K+1].
func evalModPlainError(cfg BootstrapConfig) float64 {
	coeffs := evalModPoly(cfg)
	k1, h := float64(cfg.K+1), cfg.evalModHalfWidth()
	n := 2 * (cfg.K + 1) * 256
	worst := 0.0
	for i := 0; i <= n; i++ {
		t0 := -k1 + 2*k1*float64(i)/float64(n)
		x := (t0 - 0.25) / h
		c := evalChebyshevSeries(coeffs, -1, 1, 2*x*x-1)
		for range cfg.DoubleAngles {
			c = 2*c*c - 1
		}
		worst = max(worst, math.Abs(c-math.Sin(2*math.Pi*t0)))
	}
	return worst
}

// chebyshevProducts counts the HMULTs EvaluateChebyshev spends on a series
// of the given degree: the powers T_2 … T_{baby−1}, the giant steps, and one
// product per split of the BSGS tree.
func chebyshevProducts(degree int) int {
	baby := max(2, 1<<((bitsLen(degree)+1)/2))
	n := baby - 2
	for g := baby; g <= degree; g <<= 1 {
		n++
	}
	var splits func(deg int) int
	splits = func(deg int) int {
		if deg < baby {
			return 0
		}
		s := max(baby, 1<<(bitsLen(deg)-1))
		return 1 + splits(deg-s) + splits(s-1)
	}
	return n + splits(degree)
}

// stageRow is one line of TestBootstrapStagePrecision's table.
type stageRow struct {
	stage, units string
	stats        PrecisionStats
	floor        float64 // bits
}

// TestBootstrapStagePrecision runs the bootstrap's stages one by one and
// measures each against a plaintext reference computed from its own decrypted
// input, so a stage's row is the error it adds, not the error it inherits.
// Coefficient units are those of the EvalMod output (a plaintext coefficient
// over Δ); slot units those of the message. Each floor is its row's reading
// at this shape less 0.5 bit: keys, noise and so every reading are a pure
// function of the seeds. `go test -v` prints the table.
func TestBootstrapStagePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	tc := newTestContext(t, BootTestParameters())
	cfg := DefaultBootstrapConfig()
	boot, err := tc.bootstrapper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(61))
	v := randomComplex(r, tc.params.Slots(), 0.7)
	ct := dropTo(tc.eval, tc.encryptVec(t, v), 0)
	delta, q0 := ct.Scale, boot.q0
	nh := tc.params.Slots()

	// Encapsulation and ModRaise: the raised plaintext W is the input's mod
	// q0, but for the two key switches' noise.
	raised, err := boot.raise(ct)
	if err != nil {
		t.Fatal(err)
	}
	dw, dW := tc.plainDigits(ct, 1), tc.plainDigits(raised, 2)
	noise := make([]complex128, 2*nh)
	for j := range noise {
		e := int64(dW.Coeffs[0][j]) - int64(dw.Coeffs[0][j])
		if q := int64(tc.params.RingQ().Moduli[0].Q); e > q/2 {
			e -= q
		} else if e < -q/2 {
			e += q
		}
		noise[j] = complex(float64(e)/delta, 0)
	}
	rows := []stageRow{{stage: "encapsulate + ModRaise", units: "coeff",
		stats: ComputePrecision(noise, make([]complex128, 2*nh)), floor: 39.5}}

	// CoeffToSlot and the conjugate split: EvalMod reads t/h, t = W/q0,
	// real and imaginary halves in bit-reversed order, at the scale it
	// re-declares.
	z := make([]complex128, nh)
	for j := range z {
		z[j] = complex(tc.enc.digitsToFloat(dW, j), tc.enc.digitsToFloat(dW, j+nh)) / complex(delta, 0)
	}
	wantC2S := make([]complex128, 2*nh)
	for s, x := range bitrevVec(z) {
		wantC2S[s], wantC2S[s+nh] = complex(real(x), 0), complex(imag(x), 0)
	}
	ct0, ct1, err := boot.coeffsToSlots(raised)
	if err != nil {
		t.Fatal(err)
	}
	var tIn, gotC2S []complex128
	h := complex(cfg.evalModHalfWidth(), 0)
	for _, half := range []*Ciphertext{ct0, ct1} {
		for _, x := range tc.enc.Decode(decryptNew(tc.decr, half).Value, q0) {
			tIn = append(tIn, x*h)
			gotC2S = append(gotC2S, x*h*complex(q0/delta, 0))
		}
	}
	rows = append(rows, stageRow{stage: "CoeffToSlot + split", units: "coeff",
		stats: ComputePrecision(gotC2S, wantC2S), floor: 30.2})

	// EvalMod, against sin(2πt)·q0/(2πΔ) of its own decrypted input: its
	// output, sin(2πt), read in coefficient units.
	unit := q0 / (2 * math.Pi * delta)
	re, im := boot.evalModCt(ct0), boot.evalModCt(ct1)
	gotRe, gotIm := tc.decryptVec(re), tc.decryptVec(im)
	for i := range gotRe {
		gotRe[i] *= complex(unit, 0)
		gotIm[i] *= complex(unit, 0)
	}
	gotMod := append(append([]complex128{}, gotRe...), gotIm...)
	wantMod := make([]complex128, len(tIn))
	for i, x := range tIn {
		wantMod[i] = cmplx.Sin(2*math.Pi*x) * complex(unit, 0)
	}
	evalMod := ComputePrecision(gotMod, wantMod)
	rows = append(rows, stageRow{stage: "EvalMod", units: "coeff", stats: evalMod, floor: 25.4})

	// SlotToCoeff and the scale fix, against the plaintext S2C of its input.
	zIn := make([]complex128, nh)
	for s := range zIn {
		zIn[s] = gotRe[s] + 1i*gotIm[s]
	}
	out, err := boot.slotsToCoeffs(re, im, delta)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.decryptVec(out)
	rows = append(rows,
		stageRow{stage: "SlotToCoeff + scale fix", units: "slot", stats: ComputePrecision(got, applyGroups(boot.s2c, zIn)), floor: 31.7},
		stageRow{stage: "bootstrap, end to end", units: "slot", stats: ComputePrecision(got, v), floor: 17.0})

	t.Logf("bootstrap stage precision, logN=%d, EvalMod degree %d, %d double angles, K=%d, output level %d:",
		tc.params.LogN(), cfg.EvalModDeg, cfg.DoubleAngles, cfg.K, out.Level())
	t.Logf("%-26s %-6s %10s %7s %7s %7s", "stage", "units", "max err", "bits", "mean", "floor")
	for _, row := range rows {
		t.Logf("%-26s %-6s %10.3g %7.2f %7.2f %7.1f", row.stage, row.units, row.stats.MaxErr, row.stats.MinBits, row.stats.MeanBits, row.floor)
		if row.stats.MinBits < row.floor {
			t.Errorf("%s: %.2f bits, floor %.1f", row.stage, row.stats.MinBits, row.floor)
		}
	}

	// The default degree is noise-limited: its approximation error, scaled
	// into coefficient units, sits at least 3 bits under the measured EvalMod
	// error (4.1 at this shape; 6.9 at logN 12, whose output noise is 2.5 bits
	// higher). Degree 27 is approximation-limited and fails the same check.
	margin := func(deg int) float64 {
		c := cfg
		c.EvalModDeg = deg
		plain := evalModPlainError(c) * unit
		m := math.Log2(evalMod.MaxErr / plain)
		t.Logf("degree %d: plaintext approximation error %.3g coeff (%.2f bits), %.2f bits under EvalMod's", deg, plain, -math.Log2(plain), m)
		return m
	}
	if m := margin(cfg.EvalModDeg); m < 3 {
		t.Errorf("degree %d: approximation error only %.2f bits under the EvalMod error", cfg.EvalModDeg, m)
	}
	if m := margin(27); m >= 3 {
		t.Errorf("degree 27 passes the noise-limited check (%.2f bits)", m)
	}
}

// plainDigits decrypts ct and returns its plaintext's centered mixed-radix
// digits over the first k limbs (garnerDigits): row 0 holds each coefficient
// centered mod q0, digitsToFloat the coefficient itself below Q_k/2.
func (tc *testContext) plainDigits(ct *Ciphertext, k int) *ring.Poly {
	rq := tc.params.RingQ()
	pt := decryptNew(tc.decr, ct)
	work := rq.NewPoly(k - 1)
	for i, row := range work.Coeffs {
		copy(row, pt.Value.Coeffs[i])
		rq.INTTLimb(row, i)
	}
	tc.enc.garnerDigits(work)
	return work
}

// slotPeriod returns the smallest power of two p dividing len(v) with
// v[j] = v[(j+p) mod len(v)] for every j, to within 1e-9 of the largest |v|.
func slotPeriod(v []complex128) int {
	var top float64
	for _, x := range v {
		top = max(top, cmplx.Abs(x))
	}
	for p := 1; ; p *= 2 {
		periodic := true
		for j := range v {
			if cmplx.Abs(v[j]-v[(j+p)%len(v)]) > 1e-9*top {
				periodic = false
				break
			}
		}
		if periodic || p == len(v) {
			return p
		}
	}
}

// TestBootstrapDFTBytes pins what a bootstrap's DFT plaintexts keep resident:
// each diagonal stored at its slot period p, (ℓ+1+α) rows of N/k words with
// k = N/(2p) (encodedDiag). After one bootstrap at logN 11 and at logN 12 the
// ckks_lintrans_cache_bytes gauge has grown by exactly the sum of those
// compact rows, the period read from the diagonal's slot values, not from its
// encoding; at logN 12 every diagonal of each of the six matrices sits at the
// matrix's period below. Not parallel: the gauge is process-wide.
func TestBootstrapDFTBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	// Per matrix (C2S, then S2C) at logN 12: diagonals and slot period.
	n12 := []struct{ diags, period int }{{16, 2048}, {31, 128}, {15, 8}, {31, 16}, {31, 256}, {8, 2048}}
	for _, logN := range []int{11, 12} {
		lit := BootTestParameters()
		lit.LogN = logN
		tc := newTestContext(t, lit)
		p := tc.params
		r := rand.New(rand.NewSource(62))
		ct := dropTo(tc.eval, tc.encryptVec(t, randomComplex(r, p.Slots(), 0.7)), 0)
		gauge := obsLinTransCacheBytes.Value()
		boot, err := tc.bootstrapper(DefaultBootstrapConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, err := boot.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		tc.eval.Release(out)
		grown := obsLinTransCacheBytes.Value() - gauge

		var want, full int64
		for m, lt := range append(append([]*LinearTransform{}, boot.c2s...), boot.s2c...) {
			if len(lt.encCache) != 1 {
				t.Fatalf("logN %d matrix %d: %d encodings, want the bootstrap's one", logN, m, len(lt.encCache))
			}
			var lvl int
			var enc map[int]encodedDiag
			for k, e := range lt.encCache {
				lvl, enc = k.lvl, e.diags
			}
			rowWords := int64(lvl + 1 + p.Alpha())
			var bytes int64
			for r, d := range lt.Diags {
				period := slotPeriod(d)
				k := p.N() / (2 * period)
				if enc[r].k != k {
					t.Errorf("logN %d matrix %d diagonal %d: slot period %d, so k = %d; stored at k = %d", logN, m, r, period, k, enc[r].k)
				}
				if logN == 12 && period != n12[m].period {
					t.Errorf("logN 12 matrix %d diagonal %d: slot period %d, want %d", m, r, period, n12[m].period)
				}
				bytes += 8 * rowWords * int64(p.N()/k)
			}
			if logN == 12 && len(lt.Diags) != n12[m].diags {
				t.Errorf("logN 12 matrix %d: %d diagonals, want %d", m, len(lt.Diags), n12[m].diags)
			}
			t.Logf("logN %d matrix %d: level %d, %d diagonals, %.2f MB stored (%.2f MB as whole rows)",
				logN, m, lvl, len(lt.Diags), float64(bytes)/1e6, float64(8*rowWords*int64(p.N()*len(lt.Diags)))/1e6)
			want += bytes
			full += 8 * rowWords * int64(p.N()*len(lt.Diags))
		}
		t.Logf("logN %d: the DFT plaintexts hold %.2f MB, %.2f MB as whole rows", logN, float64(want)/1e6, float64(full)/1e6)
		if grown != want {
			t.Errorf("logN %d: ckks_lintrans_cache_bytes grew by %d bytes, the compact rows are %d", logN, grown, want)
		}
	}
}
