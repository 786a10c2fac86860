package ckks

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/par"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// truncatedKey copies the level-lvl prefix of a switching key: D(lvl) digits
// of lvl+1 Q rows and every P row, in fresh storage.
func truncatedKey(p *Parameters, k *SwitchingKey, lvl int) *SwitchingKey {
	cut := func(ps []*ring.Poly, rows int) []*ring.Poly {
		out := make([]*ring.Poly, p.Digits(lvl))
		for d := range out {
			out[d] = ps[d].Truncated(rows - 1).CopyNew()
		}
		return out
	}
	a := p.Alpha()
	return &SwitchingKey{Seed: k.Seed, BQ: cut(k.BQ, lvl+1), BP: cut(k.BP, a)}
}

// truncatedKeySet is every key of ks cut to level lvl.
func truncatedKeySet(p *Parameters, ks *EvaluationKeySet, lvl int) *EvaluationKeySet {
	out := NewEvaluationKeySet()
	out.Rlk = truncatedKey(p, ks.Rlk, lvl)
	for g, k := range ks.Gal {
		out.Gal[g] = truncatedKey(p, k, lvl)
	}
	return out
}

// TestKeyPrefixServesLowerLevels: a key at level ℓ is the level-ℓ prefix of
// a full-level one. The generator drawing a key at ℓ gives, byte for byte,
// the full-level key with the same id cut to ℓ — same seed, same B rows. With
// every key of a set cut to ℓ (copied rows), Rotate, the planned sweep, Mul
// and SwitchKeys give byte-identical outputs to the full set at every level
// ≤ ℓ, on a chain whose last digit is ragged at some levels and whole at
// others.
func TestKeyPrefixServesLowerLevels(t *testing.T) {
	tc := newTestContext(t, alpha2Params())
	p := tc.params
	r := rand.New(rand.NewSource(71))
	lt := denseTestTransform(r, p.Slots(), 8)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, append([]int{3}, GaloisKeysForLinearTransform(p, lt)...))
	ctTop := tc.encryptVec(t, randomComplex(r, p.Slots(), 0.5))

	s2 := p.RingQ().NewPoly(p.MaxLevel())
	p.RingQ().MulCoeffs(s2, tc.sk.Q, tc.sk.Q, p.MaxLevel())
	for _, keyLvl := range []int{3, 6} {
		cut := truncatedKeySet(p, tc.keys, keyLvl)
		drawn := map[uint64]*SwitchingKey{0: tc.kgen.genSwitchingKey(keyLvl, idRelinearization, s2, tc.sk.Q, tc.sk.P)}
		for g := range tc.keys.Gal {
			drawn[g] = tc.kgen.genGaloisKey(tc.sk, g, keyLvl)
		}
		for g, k := range drawn {
			want := cut.Rlk
			if g != 0 {
				want = cut.Gal[g]
			}
			if !bytes.Equal(keyWire(t, k), keyWire(t, want)) {
				t.Errorf("key %d drawn at level %d is not the top-level key's prefix", g, keyLvl)
			}
		}
		low := NewEvaluator(p, cut)
		for lvl := 0; lvl <= keyLvl; lvl++ {
			ct := dropTo(tc.eval, ctTop, lvl)
			ops := map[string]func(ev *Evaluator) (*Ciphertext, error){
				"Rotate":     func(ev *Evaluator) (*Ciphertext, error) { return ev.Rotate(ct, 3) },
				"SwitchKeys": func(ev *Evaluator) (*Ciphertext, error) { return ev.SwitchKeys(ct, ev.keys.Rlk) },
			}
			if lvl > 0 {
				ops["Mul"] = func(ev *Evaluator) (*Ciphertext, error) { return ev.Mul(ct, ct) }
				ops["sweep"] = func(ev *Evaluator) (*Ciphertext, error) { return ev.EvaluateLinearTransform(ct, lt, tc.enc) }
			}
			for name, op := range ops {
				want, err := op(tc.eval)
				if err != nil {
					t.Fatalf("%s at level %d, full keys: %v", name, lvl, err)
				}
				got, err := op(low)
				if err != nil {
					t.Fatalf("%s at level %d, keys at level %d: %v", name, lvl, keyLvl, err)
				}
				if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
					t.Errorf("%s at level %d: keys cut to level %d change the output", name, lvl, keyLvl)
				}
			}
		}
	}
}

// TestKeyBelowLevelFails: every op that switches keys checks, before it
// borrows anything, that the key covers its level — digits, Q rows and P
// rows — and otherwise returns an error wrapping ErrMissingKey that names the
// key and both levels.
func TestKeyBelowLevelFails(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	p := tc.params
	r := rand.New(rand.NewSource(72))
	lt := denseTestTransform(r, p.Slots(), 8)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, append([]int{3}, GaloisKeysForLinearTransform(p, lt)...))
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)
	keyLvl := p.MaxLevel() - 2
	ev := NewEvaluator(p, truncatedKeySet(p, tc.keys, keyLvl))
	ct := dropTo(tc.eval, tc.encryptVec(t, randomComplex(r, p.Slots(), 0.5)), keyLvl+1)
	noP := truncatedKey(p, tc.keys.Rlk, p.MaxLevel())
	noP.BP[0] = noP.BP[0].Truncated(p.Alpha() - 2)

	pool := func() float64 {
		var n float64
		for name, v := range obs.Default.Snapshot().Counters {
			if strings.HasPrefix(name, "ring_pool_") {
				n += v
			}
		}
		return n
	}
	levels := fmt.Sprintf("at level %d does not cover level %d", keyLvl, keyLvl+1)
	for _, c := range []struct {
		name, msg string
		op        func() (*Ciphertext, error)
	}{
		{"Rotate", "Galois key for element", func() (*Ciphertext, error) { return ev.Rotate(ct, 3) }},
		{"Conjugate", "Galois key for element", func() (*Ciphertext, error) { return ev.Conjugate(ct) }},
		{"EvaluateLinearTransform", "Galois key for element", func() (*Ciphertext, error) { return ev.EvaluateLinearTransform(ct, lt, tc.enc) }},
		{"Mul", "relinearization key " + levels, func() (*Ciphertext, error) { return ev.Mul(ct, ct) }},
		{"SwitchKeys", "switching key " + levels, func() (*Ciphertext, error) { return ev.SwitchKeys(ct, ev.keys.Rlk) }},
		{"SwitchKeys/short P", "switching key", func() (*Ciphertext, error) { return tc.eval.SwitchKeys(ct, noP) }},
	} {
		before := pool()
		out, err := c.op()
		if !errors.Is(err, ErrMissingKey) || out != nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s with a key too low: (%v, %v), want ErrMissingKey naming %q", c.name, out, err, c.msg)
		}
		if err != nil && c.msg == "Galois key for element" && !strings.Contains(err.Error(), levels) {
			t.Errorf("%s: %q does not name both levels", c.name, err)
		}
		if d := pool() - before; d != 0 {
			t.Errorf("%s borrowed or returned %v pooled polynomials before failing", c.name, d)
		}
	}
	if _, err := NewEvaluator(p, &EvaluationKeySet{}).Mul(ct, ct); !errors.Is(err, ErrMissingKey) {
		t.Errorf("Mul without a relinearization key: %v, want ErrMissingKey", err)
	}
}

// TestPublicKeyGenCoversTheTop: the exported generators always leave a
// top-level key, replacing a lower one the set holds, and keep one at the top.
func TestPublicKeyGenCoversTheTop(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	p := tc.params
	top := p.MaxLevel()
	g1, gc := p.RingQ().GaloisElement(1), p.RingQ().GaloisElementConjugate()
	tc.kgen.ensureGaloisKey(tc.sk, tc.keys, g1, 2)
	tc.kgen.ensureGaloisKey(tc.sk, tc.keys, gc, 1)
	if tc.keys.Gal[g1].Level() != 2 || tc.keys.Gal[gc].Level() != 1 {
		t.Fatalf("keys generated at levels %d / %d, want 2 / 1", tc.keys.Gal[g1].Level(), tc.keys.Gal[gc].Level())
	}
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	tc.kgen.GenConjugationKey(tc.sk, tc.keys)
	for name, g := range map[string]uint64{"rotation": g1, "conjugation": gc} {
		if lvl := tc.keys.Gal[g].Level(); lvl != top {
			t.Errorf("%s key at level %d after the public generator, want %d", name, lvl, top)
		}
	}
	kept := tc.keys.Gal[g1]
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	if tc.keys.Gal[g1] != kept {
		t.Error("a top-level key was regenerated")
	}
}

// TestBootstrapKeysAtTheirLevels: NewBootstrapper generates each key at the
// highest level a bootstrap spends it — encapsulation at level 0 and at the
// top, conjugation at the CoeffToSlot output, every DFT rotation key at the
// highest level of a sweep using it — and the sweeps of a bootstrap run at
// exactly the levels that accounting (stageLevels) names. The first bootstrap
// of a fresh ring fills the buffer pool once across levels: its pool-miss
// bytes are pinned.
func TestBootstrapKeysAtTheirLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping test is expensive")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer par.SetWorkers(par.SetWorkers(1))
	tc := buildTestContext(t, BootTestParameters(), false)
	p := tc.params
	top := p.MaxLevel()
	cfg := DefaultBootstrapConfig()
	boot, err := NewBootstrapper(p, tc.enc, tc.eval, tc.kgen, tc.sk, tc.keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv := cfg.stageLevels(top)
	for name, c := range map[string]struct {
		k    *SwitchingKey
		want int
	}{
		"toSparse":    {boot.toSparse, 0},
		"toDense":     {boot.toDense, top},
		"relin":       {tc.keys.Rlk, top},
		"conjugation": {tc.keys.Gal[p.RingQ().GaloisElementConjugate()], lv.conj},
	} {
		if got := c.k.Level(); got != c.want {
			t.Errorf("%s key at level %d, want %d", name, got, c.want)
		}
	}

	ct := dropTo(tc.eval, tc.encryptVec(t, randomComplex(rand.New(rand.NewSource(73)), p.Slots(), 0.7)), 0)
	missBytes := obs.Default.Counter("ring_pool_miss_bytes_total")
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool mid-run
	start, miss0 := time.Now().UnixNano(), missBytes.Value()
	out, err := boot.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	fill := missBytes.Value() - miss0
	tc.eval.Release(out)

	// The sweeps ran, in order, at the levels the accounting gave their keys.
	var ran []int
	for _, s := range obs.DefaultTracer.Snapshot() {
		if s.Name == "lintrans" && s.StartUnixNs >= start {
			var bs, diags, ks, lvl int
			var model float64
			if _, err := fmt.Sscanf(s.Attrs, "bs=%d diags=%d ks=%d lvl=%d model_ms=%f", &bs, &diags, &ks, &lvl, &model); err != nil {
				t.Fatalf("lintrans span %q: %v", s.Attrs, err)
			}
			ran = append(ran, lvl)
		}
	}
	sweepLevel := append(append([]int{}, lv.c2s...), lv.s2c...)
	if fmt.Sprint(ran) != fmt.Sprint(sweepLevel) {
		t.Fatalf("sweeps ran at levels %v, the accounting says %v", ran, sweepLevel)
	}
	lts := append(append([]*LinearTransform{}, boot.c2s...), boot.s2c...)
	want := map[int]int{}
	for i, lt := range lts {
		for _, r := range lt.sweepPlan(p).rotations() {
			want[r] = max(want[r], sweepLevel[i])
		}
	}
	below := 0
	for r, lvl := range want {
		if got := tc.keys.Gal[p.RingQ().GaloisElement(r)].Level(); got != lvl {
			t.Errorf("rotation %d key at level %d, its highest sweep runs at %d", r, got, lvl)
		}
		if lvl < top {
			below++
		}
	}
	t.Logf("%d DFT rotation keys, %d below the top; key set %.1f MB; first bootstrap's pool misses %.2f MB",
		len(want), below, float64(tc.keys.CoeffBytes())/1e6, fill/1e6)
	// Measured 12.8 MB at this shape on one core (18.3 MB with pooled ModUp
	// digits and ModDown conversions, 100.3 MB with one pool per limb
	// count); 10 % over it fails.
	if limit := 12.8e6 * 1.1; fill > limit && !raceEnabled { // sync.Pool drops puts under -race
		t.Errorf("first bootstrap missed the pool for %.2f MB, want <= %.2f", fill/1e6, limit/1e6)
	}
}

// TestCoeffBytesCountsCapacity: a ciphertext whose polynomials the pool
// served from larger backings is charged what it pins — their capacity — not
// its limbs.
func TestCoeffBytesCountsCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	rq, top := p.RingQ(), p.MaxLevel()
	rq.PutPoly(rq.NewPoly(top))
	rq.PutPoly(rq.NewPoly(top))
	ct := &Ciphertext{C0: rq.GetPoly(1), C1: rq.GetPoly(1)}
	if ct.Level() != 1 {
		t.Fatalf("borrowed ciphertext at level %d, want 1", ct.Level())
	}
	if got, want := ct.CoeffBytes(), int64(2*(top+1)*p.N()*8); got != want {
		t.Errorf("CoeffBytes %d, want the two %d-limb backings' %d", got, top+1, want)
	}
}

// TestKeySwitchScratchBound holds each key switch to its resident set. With
// the pool emptied (two GCs), an op's ring_pool_miss_bytes_total delta is its
// peak borrow. At the hks_n16 limb shape (26 Q limbs, α = 7, D = 4; logN 12)
// a Rotate, a Mul and a SwitchKeys at the top level ℓ borrow at most
// (4·(ℓ+1) + 2α)·N·8 bytes — the four QP accumulators, the input's
// premultiplied coefficient copy (and a Mul's degree-2 term, which the
// digits' own rows read) or the two outputs — plus (D + 2)·N·8 for the rows
// the merged tail borrows (its two top rows and a conversion tile). The ModUp
// digits (D·(ℓ+1+α) rows) and the ModDown's converted rows live in the
// pipeline's per-goroutine scratch, not in the pool. An EvaluateLinearTransform
// may hold every giant's accumulators besides (T0 and T1 over Q ∪ P and the
// two Q-basis sums: 4Q + 2P per giant). Each op's peak is the least of three
// runs, so a pooled row that a goroutine migration strands once does not count.
func TestKeySwitchScratchBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	lit := hksShapeParams()
	lit.LogN = 12
	tc := newTestContext(t, lit)
	p, ev := tc.params, tc.eval
	r := rand.New(rand.NewSource(121))
	lt := denseTestTransform(r, p.Slots(), 8)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(p, lt))
	ct := tc.encryptVec(t, randomComplex(r, p.Slots(), 1))
	ct2 := tc.encryptVec(t, randomComplex(r, p.Slots(), 1))
	lvl := ct.Level()
	row := float64(p.N() * 8)
	qp := float64(4*(lvl+1)+2*p.Alpha()) * row
	ks := qp + float64(p.PlanAt(lvl).Digits+2)*row
	giants := float64(len(lt.sweepPlan(p).giants))

	missBytes := obs.Default.Counter("ring_pool_miss_bytes_total")
	peak := func(op func() (*Ciphertext, error)) float64 {
		least := 0.0
		for try := 0; try < 3; try++ {
			runtime.GC()
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			miss0 := missBytes.Value()
			out, err := op()
			miss := missBytes.Value() - miss0
			debug.SetGCPercent(gc)
			if err != nil {
				t.Fatal(err)
			}
			ev.Release(out)
			if try == 0 || miss < least {
				least = miss
			}
		}
		return least
	}
	for _, c := range []struct {
		name  string
		bound float64
		op    func() (*Ciphertext, error)
	}{
		{"Rotate", ks, func() (*Ciphertext, error) { return ev.Rotate(ct, 1) }},
		{"Mul", ks, func() (*Ciphertext, error) { return ev.Mul(ct, ct2) }},
		{"SwitchKeys", ks, func() (*Ciphertext, error) { return ev.SwitchKeys(ct, tc.keys.Rlk) }},
		{"EvaluateLinearTransform", ks + giants*qp, func() (*Ciphertext, error) { return ev.EvaluateLinearTransform(ct, lt, tc.enc) }},
	} {
		got := peak(c.op)
		t.Logf("%-24s peak borrow %6.2f MB (%5.1f rows), bound %6.2f MB (%5.1f rows)", c.name, got/1e6, got/row, c.bound/1e6, c.bound/row)
		if got > c.bound {
			t.Errorf("%s at level %d borrowed %.2f MB from the pool, want <= %.2f MB", c.name, lvl, got/1e6, c.bound/1e6)
		}
	}
}
