package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks of the functional stack's basic CKKS functions (§II-A) at
// research scale (N=2^10), plus HMULT at the repo benchmark's shapes and
// bootstrapping at N=2^11.

// benchContext leaves the ring pools unpoisoned: poisoning every returned
// polynomial is test-only work a benchmark must not time.
func benchContext(b *testing.B) *testContext {
	return buildTestContext(b, TestParameters(), false)
}

func BenchmarkEncode(b *testing.B) {
	tc := benchContext(b)
	r := rand.New(rand.NewSource(1))
	v := randomComplex(r, tc.params.Slots(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRoundTrip times the two halves of the client path — encode +
// encrypt under the secret key, as Context.Encrypt runs it, and decrypt +
// decode — at the serving workload's shape and at the paper-scale one (the
// hks_n16 chain), where they are the repo benchmark's ckks.encrypt_ms /
// ckks.decrypt_ms.
func BenchmarkClientRoundTrip(b *testing.B) {
	for _, shape := range []struct {
		name        string
		logN, limbs int
	}{{"n12_l10", 12, 10}, {"n16_l26", 16, 26}} {
		params, err := NewParameters(ParametersLiteral{LogN: shape.logN, LogQ: append([]int{55}, repeatInts(45, shape.limbs-1)...),
			LogP: []int{58}, LogScale: 45})
		if err != nil {
			b.Fatal(err)
		}
		enc := NewEncoder(params)
		kgen := NewKeyGenerator(params, 1)
		sk := kgen.GenSecretKey()
		encr, decr := NewEncryptor(params, 2), NewDecryptor(params, sk)
		v := randomComplex(rand.New(rand.NewSource(2)), params.Slots(), 1)
		level, scale := params.MaxLevel(), params.DefaultScale()
		ct, err := encr.EncodeEncryptNew(enc, v, level, scale, sk)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/encode+encrypt", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encr.EncodeEncryptNew(enc, v, level, scale, sk); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/decrypt+decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decr.DecryptDecodeNew(ct, enc)
			}
		})
	}
}

func BenchmarkHADDFunc(b *testing.B) {
	tc := benchContext(b)
	r := rand.New(rand.NewSource(3))
	ct1 := tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
	ct2 := tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.eval.Add(ct1, ct2)
	}
}

// BenchmarkHMult times one HMULT — tensor, relinearization and the rescale
// merged into its ModDown — at the top of boot_n12's chain (logN 12, 24
// limbs, α = 6) and of hks_n16's (N = 2^16, 26 limbs, α = 7): the per-op
// figure DESIGN.md §3.8.5 quotes. Each shape's keys are built once, on first
// use.
func BenchmarkHMult(b *testing.B) {
	n12 := BootTestParameters()
	n12.LogN = 12
	n16 := hksShapeParams()
	n16.LogN = 16
	for _, shape := range []struct {
		name string
		lit  ParametersLiteral
	}{{"n12_l24", n12}, {"n16_l26", n16}} {
		var tc *testContext
		var ct0, ct1 *Ciphertext
		b.Run(shape.name, func(b *testing.B) {
			if tc == nil {
				tc = buildTestContext(b, shape.lit, false)
				r := rand.New(rand.NewSource(4))
				ct0 = tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
				ct1 = tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := tc.eval.Mul(ct0, ct1)
				if err != nil {
					b.Fatal(err)
				}
				tc.eval.Release(out)
			}
		})
	}
}

// BenchmarkSweep times one linear-transform sweep at the repo benchmark's
// shapes and logs the plan's baby step, Galois keys and modeled time beside
// it: boot_n12's six DFT matrices (BootTestParameters at logN 12), planned as
// one set by newBootPlan and each run at the level a bootstrap runs it
// (CoeffToSlot 23/22/21, SlotToCoeff 11/10/9), and
// serve_mix_n12's 8-diagonal map at the top of its 10-limb chain, planned
// alone. Each shape holds only its own transform's Galois keys.
func BenchmarkSweep(b *testing.B) {
	boot := BootTestParameters()
	boot.LogN = 12
	serve := ParametersLiteral{LogN: 12, LogQ: append([]int{55}, repeatInts(45, 9)...), LogP: repeatInts(58, 3), LogScale: 45}
	var bootTC *testContext
	var dft []*LinearTransform
	bootMatrix := func(i int) func(b *testing.B) (*testContext, *LinearTransform) {
		return func(b *testing.B) (*testContext, *LinearTransform) {
			if bootTC == nil {
				bootTC = buildTestContext(b, boot, false)
				bp, err := newBootPlan(bootTC.params, bootTC.enc, DefaultBootstrapConfig())
				if err != nil {
					b.Fatal(err)
				}
				dft = append(bp.c2s, bp.s2c...)
			}
			return bootTC, dft[i]
		}
	}
	for _, shape := range []struct {
		name  string
		level int
		setup func(b *testing.B) (*testContext, *LinearTransform)
	}{
		{"boot_c2s0_l23", 23, bootMatrix(0)},
		{"boot_c2s1_l22", 22, bootMatrix(1)},
		{"boot_c2s2_l21", 21, bootMatrix(2)},
		{"boot_s2c0_l11", 11, bootMatrix(3)},
		{"boot_s2c1_l10", 10, bootMatrix(4)},
		{"boot_s2c2_l9", 9, bootMatrix(5)},
		{"serve_l9", 9, func(b *testing.B) (*testContext, *LinearTransform) {
			tc := buildTestContext(b, serve, false)
			return tc, denseTestTransform(rand.New(rand.NewSource(6)), tc.params.Slots(), 8)
		}},
	} {
		var tc *testContext
		var ev *Evaluator
		var lt *LinearTransform
		var ct *Ciphertext
		b.Run(shape.name, func(b *testing.B) {
			if ev == nil {
				tc, lt = shape.setup(b)
				p := tc.params
				keys := NewEvaluationKeySet()
				tc.kgen.GenRotationKeys(tc.sk, keys, GaloisKeysForLinearTransform(p, lt))
				ev = NewEvaluator(p, keys)
				r := rand.New(rand.NewSource(7))
				ct = dropTo(ev, tc.encryptVec(b, randomComplex(r, p.Slots(), 1)), shape.level)
				out, err := ev.EvaluateLinearTransform(ct, lt, tc.enc) // encodes the diagonals
				if err != nil {
					b.Fatal(err)
				}
				ev.Release(out)
				pl := lt.sweepPlan(p)
				b.Logf("%d diagonals at level %d: plan bs=%d, %d Galois keys, %d key switches, modeled %.1f ms",
					len(lt.Diags), shape.level, pl.bs, len(pl.rotations()), pl.keySwitchCount(), sweepCostAt(p, shape.level, pl).ms(p))
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := ev.EvaluateLinearTransform(ct, lt, tc.enc)
				if err != nil {
					b.Fatal(err)
				}
				ev.Release(out)
			}
		})
	}
}

func BenchmarkHROTFunc(b *testing.B) {
	tc := benchContext(b)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, []int{1})
	r := rand.New(rand.NewSource(5))
	ct := tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := tc.eval.Rotate(ct, 1)
		if err != nil {
			b.Fatal(err)
		}
		tc.eval.Release(out)
	}
}

// BenchmarkKeySwitch times the bare ModUp -> KeyMult -> ModDown pipeline
// (relinearization key, top level). `make profile` uses it to emit the
// key-switch CPU profile.
func BenchmarkKeySwitch(b *testing.B) {
	tc := benchContext(b)
	r := rand.New(rand.NewSource(8))
	ct := tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
	lvl := ct.Level()
	rq := tc.params.RingQ()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d0, d1 := tc.eval.keySwitch(ct.C1, lvl, tc.keys.Rlk, nil, 0)
		rq.PutPoly(d0)
		rq.PutPoly(d1)
	}
}

func BenchmarkLinearTransformFunc(b *testing.B) {
	tc := benchContext(b)
	r := rand.New(rand.NewSource(6))
	lt := randomSparseLT(r, tc.params.Slots(), []int{0, 1, 2, 3, 5, 8, 13, 21})
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, lt))
	ct := tc.encryptVec(b, randomComplex(r, tc.params.Slots(), 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapFunc times one bootstrap of a level-0 ciphertext under
// DefaultBootstrapConfig: the preset at logN 11, then the functional Fig 2b
// sweep at boot_n12's shape (logN 12), one row per special-prime count α over
// the same 24-limb chain, D = ⌈24/α⌉ digits at the top (8, 6, 4, 3, 2). Each
// row reports its key set's CoeffBytes as evk-MB; its keys are built once, on
// first use.
func BenchmarkBootstrapFunc(b *testing.B) {
	if testing.Short() {
		b.Skip("bootstrapping bench is expensive")
	}
	type row struct {
		name string
		lit  ParametersLiteral
	}
	rows := []row{{"n11", BootTestParameters()}}
	for _, alpha := range []int{3, 4, 6, 8, 12} {
		lit := BootTestParameters()
		lit.LogN = 12
		lit.LogP = repeatInts(60, alpha)
		rows = append(rows, row{fmt.Sprintf("n12/a%d", alpha), lit})
	}
	for _, r := range rows {
		var tc *testContext
		var boot *Bootstrapper
		var ct *Ciphertext
		b.Run(r.name, func(b *testing.B) {
			if tc == nil {
				tc = buildTestContext(b, r.lit, false)
				var err error
				if boot, err = tc.bootstrapper(DefaultBootstrapConfig()); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				ct = dropTo(tc.eval, tc.encryptVec(b, randomComplex(rng, tc.params.Slots(), 0.7)), 0)
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := boot.Bootstrap(ct)
				if err != nil {
					b.Fatal(err)
				}
				tc.eval.Release(out)
			}
			b.ReportMetric(float64(tc.keys.CoeffBytes())/1e6, "evk-MB")
		})
	}
}
