package modarith

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// Differential sweep: every registered kernel tier must produce BIT-IDENTICAL
// output to the pure-Go oracle on every kernel, for random and adversarial
// inputs across the supported modulus range and across lengths that exercise
// both the vector body and the scalar tail. On a host with no assembly tier
// this degenerates to Go-vs-Go and passes trivially; CI's AVX-512 amd64
// legs provide the real coverage.

// tierTestLens hits 0-tail, partial-tail and multi-block cases for the 8-lane
// (AVX-512) kernels.
var tierTestLens = []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 31, 32, 33, 64, 100, 256, 1000, 1024}

// stageBlockCounts are the twiddle-block counts the stage kernels are swept
// over: below, at and astride the 2/4/8 blocks one 16-coefficient tail step
// covers at span 4/2/1, so both the vector steps and the Go remainder run.
var stageBlockCounts = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 64}

// tierTestModuli returns a 45-, 55-, 60- and MaxModulusBits-bit prime, in
// that order, then the two primes straddling 2^50, the bound below which the
// NTT butterflies run on the IFMA multiply-adds, and the two straddling 2^51
// (narrowModulus), below which a dot term is one 52-bit product.
func tierTestModuli(t testing.TB) []Modulus {
	t.Helper()
	var ms []Modulus
	for _, bits := range []int{45, 55, 60, MaxModulusBits} {
		ps, err := GenerateNTTPrimes(bits, 12, 1)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%d): %v", bits, err)
		}
		ms = append(ms, MustModulus(ps[0]))
	}
	for _, bits := range []int{50, 51} {
		ps, err := GenerateNTTPrimes(bits, 12, 2)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%d): %v", bits, err)
		}
		for _, p := range ps {
			ms = append(ms, MustModulus(p))
		}
	}
	return ms
}

// randBelow returns a uniform-ish value in [0, bound) with the domain
// boundaries (0, 1, bound-2, bound-1) over-sampled — the values that expose
// missed conditional subtractions and carry bugs.
func randBelow(rng *rand.Rand, bound uint64) uint64 {
	switch rng.Intn(8) {
	case 0:
		return bound - 1
	case 1:
		return bound - 1 - uint64(rng.Intn(2))
	case 2:
		return uint64(rng.Intn(2))
	default:
		return rng.Uint64() % bound
	}
}

func randRow(rng *rand.Rand, n int, bound uint64) []uint64 {
	r := make([]uint64, n)
	for i := range r {
		r[i] = randBelow(rng, bound)
	}
	return r
}

// randTwiddles returns nb random twiddles with their Shoup companions.
func randTwiddles(rng *rand.Rand, m Modulus, nb int) (psi, psiShoup []uint64) {
	psi = randRow(rng, nb, m.Q)
	psiShoup = make([]uint64, nb)
	for i, w := range psi {
		psiShoup[i] = m.ShoupPrecomp(w)
	}
	return psi, psiShoup
}

func cloneRow(a []uint64) []uint64 {
	return append([]uint64(nil), a...)
}

func rowsEqual(t *testing.T, kernel string, tier KernelTier, m Modulus, got, want []uint64) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: tier %v q=%d n=%d: out[%d] = %#x, oracle %#x",
				kernel, tier, m.Q, len(want), j, got[j], want[j])
		}
	}
}

// forEachTierCase runs fn for every kernel table × modulus × length, the
// tables side by side.
func forEachTierCase(t *testing.T, lens []int, fn func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand)) {
	t.Helper()
	t.Parallel()
	moduli := tierTestModuli(t)
	for _, tt := range KernelTables() {
		tbl := tt.t
		t.Run(tt.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x5eed + int64(tbl.tier)))
			for _, m := range moduli {
				for _, n := range lens {
					fn(t, tbl, m, n, rng)
				}
			}
		})
	}
}

// permTestLens are the row lengths of the block-permutation tests: one block
// of fewer than eight lanes, one of eight, and several.
var permTestLens = []int{1, 2, 3, 4, 7, 8, 16, 24, 64, 256, 1000, 1024}

// randBlockPerm returns a random block permutation of n words and its scalar
// form: each output block reads a random source block through one of eight
// random lane maps (repeated lanes allowed: the kernels do not need a
// bijection).
func randBlockPerm(rng *rand.Rand, n int) (*BlockPerm, []int) {
	lanes := min(n, permLanes)
	var shuf [permLanes][permLanes]int
	for s := range shuf {
		for l := range shuf[s] {
			shuf[s][l] = rng.Intn(lanes)
		}
	}
	src := make([]int, n)
	for j := 0; j < n; j += lanes {
		sb, sh := rng.Intn(n/lanes), rng.Intn(permLanes)
		for l := 0; l < lanes; l++ {
			src[j+l] = sb*lanes + shuf[sh][l]
		}
	}
	return NewBlockPerm(n, func(i int) int { return src[i] }), src
}

// TestTierMulAccWidePerm runs the sweep's automorphism MAC at the bound its
// callers rely on: MaxDotTerms products of a lazy a < 2q and an exact b < q,
// onto an addend below 2q, stay exact in 128 bits at every modulus up to
// MaxModulusBits. Checked word for word against the Go kernel after every
// term, and the final pair against a big.Int sum over the scalar
// permutation.
func TestTierMulAccWidePerm(t *testing.T) {
	forEachTierCase(t, permTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		saturated := rng.Intn(3) == 0
		in := dotRows(rng, 1, n, m.TwoQ, saturated)[0]
		gotHi, gotLo := make([]uint64, n), cloneRow(in)
		wantHi, wantLo := make([]uint64, n), cloneRow(in)
		sums := make([]*big.Int, n)
		for j := range sums {
			sums[j] = new(big.Int).SetUint64(in[j])
		}
		x, y := new(big.Int), new(big.Int)
		for k := 0; k < MaxDotTerms; k++ {
			a := dotRows(rng, 1, n, m.TwoQ, saturated)[0]
			b := dotRows(rng, 1, n, m.Q, saturated)[0]
			p, src := randBlockPerm(rng, n)
			for j, s := range src {
				sums[j].Add(sums[j], x.Mul(x.SetUint64(a[s]), y.SetUint64(b[j])))
			}
			vecMulAccWidePermGo(wantHi, wantLo, a, b, p)
			tbl.mulAccWidePerm(gotHi, gotLo, a, b, p)
			rowsEqual(t, "mulAccWidePerm.hi", tbl.tier, m, gotHi, wantHi)
			rowsEqual(t, "mulAccWidePerm.lo", tbl.tier, m, gotLo, wantLo)
		}
		for j, sum := range sums {
			pair := new(big.Int).Lsh(x.SetUint64(gotHi[j]), 64)
			if pair.Add(pair, y.SetUint64(gotLo[j])).Cmp(sum) != 0 {
				t.Fatalf("mulAccWidePerm: tier %v q=%d n=%d: pair[%d] = %v, exact sum %v",
					tbl.tier, m.Q, n, j, pair, sum)
			}
		}
	})
}

// TestTierPermute holds the two permutation entries to the Go kernels and
// to the scalar permutation: out = σ(a) on full-range words, and
// out = σ(a + b mod q) on residues with the boundary values over-sampled.
func TestTierPermute(t *testing.T) {
	forEachTierCase(t, permTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		p, src := randBlockPerm(rng, n)
		a, b := randRow(rng, n, m.Q), randRow(rng, n, m.Q)
		full := make([]uint64, n)
		for j := range full {
			full[j] = rng.Uint64()
		}
		got, want := make([]uint64, n), make([]uint64, n)
		tbl.permute(got, full, p)
		vecPermuteGo(want, full, p)
		rowsEqual(t, "permute", tbl.tier, m, got, want)
		for j, s := range src {
			if want[j] != full[s] {
				t.Fatalf("permute: q=%d n=%d: Go kernel out[%d] = %#x, scalar %#x", m.Q, n, j, want[j], full[s])
			}
		}
		tbl.addPermute(m, got, a, b, p)
		vecAddPermuteGo(m, want, a, b, p)
		rowsEqual(t, "addPermute", tbl.tier, m, got, want)
		for j, s := range src {
			if want[j] != m.Add(a[s], b[s]) {
				t.Fatalf("addPermute: q=%d n=%d: Go kernel out[%d] = %#x, scalar %#x", m.Q, n, j, want[j], m.Add(a[s], b[s]))
			}
		}
	})
}

// TestBlockPermRejects: a permutation whose output block reads two source
// blocks, or that needs a ninth lane shuffle, is refused at construction.
func TestBlockPermRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		src  func(i int) int
	}{
		{"open block", func(i int) int { return (i + 1) % 64 }},
		{"nine shuffles", func(i int) int { // eight rotations, then a reversal
			if b, l := i/8, i%8; b < 8 {
				return 8*b + (l+b)%8
			}
			return i&^7 | (7 - i%8)
		}},
		{"out of range", func(i int) int { return i + 8 }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewBlockPerm accepted it", c.name)
				}
			}()
			NewBlockPerm(72, c.src)
		}()
	}
}

func TestTierBarrettFamily(t *testing.T) {
	kernels := []struct {
		name string
		ref  func(m Modulus, out, a, b []uint64)
		tab  func(tbl *kernelTable) func(m Modulus, out, a, b []uint64)
	}{
		{"mulBarrett", vecMulBarrettGo, func(tbl *kernelTable) func(Modulus, []uint64, []uint64, []uint64) { return tbl.mulBarrett }},
		{"mulAddBarrett", vecMulAddBarrettGo, func(tbl *kernelTable) func(Modulus, []uint64, []uint64, []uint64) { return tbl.mulAddBarrett }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
				a := randRow(rng, n, m.TwoQ) // lazy operands allowed
				b := randRow(rng, n, m.TwoQ)
				out := randRow(rng, n, m.Q)
				want := cloneRow(out)
				k.ref(m, want, a, b)
				k.tab(tbl)(m, out, a, b)
				rowsEqual(t, k.name, tbl.tier, m, out, want)
			})
		})
	}
}

func TestTierMulShoup(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		a := randRow(rng, n, m.TwoQ) // lazy operands: the merged key-switch tail scales BConv rows straight
		w := randBelow(rng, m.Q)
		ws := m.ShoupPrecomp(w)
		out := make([]uint64, n)
		want := make([]uint64, n)
		vecMulShoupGo(m, want, a, w, ws)
		for j := range want {
			if exact := m.Mul(a[j]%m.Q, w); want[j] != exact {
				t.Fatalf("vecMulShoupGo(%d, %d) = %d, want the exact residue %d", a[j], w, want[j], exact)
			}
		}
		tbl.mulShoup(m, out, a, w, ws)
		rowsEqual(t, "mulShoup", tbl.tier, m, out, want)
	})
}

// TestTierMulShoupAddLazy covers the constant multiply-accumulate on lazy
// operands: a < 2q (MulShoupLazy holds for any a), out in [0, 2q).
func TestTierMulShoupAddLazy(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		a := randRow(rng, n, m.TwoQ)
		w := randBelow(rng, m.Q)
		ws := m.ShoupPrecomp(w)
		out := randRow(rng, n, m.TwoQ)
		want := cloneRow(out)
		vecMulShoupAddLazyGo(m, want, a, w, ws)
		for j := range want {
			if want[j] >= m.TwoQ || want[j]%m.Q != (out[j]%m.Q+m.Mul(a[j]%m.Q, w))%m.Q {
				t.Fatalf("vecMulShoupAddLazyGo: out[%d] = %d, not out + a·w in [0, 2q)", j, want[j])
			}
		}
		tbl.mulShoupAddLazy(m, out, a, w, ws)
		rowsEqual(t, "mulShoupAddLazy", tbl.tier, m, out, want)
	})
}

func TestTierSubMulShoupLazy(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		a := randRow(rng, n, m.TwoQ)
		b := randRow(rng, n, m.TwoQ)
		w := randBelow(rng, m.Q)
		ws := m.ShoupPrecomp(w)
		out := make([]uint64, n)
		want := make([]uint64, n)
		vecSubMulShoupLazyGo(m, want, a, b, w, ws)
		tbl.subMulShoupLazy(m, out, a, b, w, ws)
		rowsEqual(t, "subMulShoupLazy", tbl.tier, m, out, want)
	})
}

func TestTierRescaleStep(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		row := randRow(rng, n, m.TwoQ)
		tt := randRow(rng, n, 4*m.Q)
		halfModQ := randBelow(rng, m.Q)
		w := randBelow(rng, m.Q)
		ws := m.ShoupPrecomp(w)
		want := cloneRow(row)
		vecRescaleStepGo(m, want, tt, halfModQ, w, ws)
		tbl.rescaleStep(m, row, tt, halfModQ, w, ws)
		rowsEqual(t, "rescaleStep", tbl.tier, m, row, want)
	})
}

func TestTierWideKernels(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		row := randRow(rng, n, m.TwoQ)
		w := randBelow(rng, m.TwoQ)

		gotHi, gotLo := make([]uint64, n), make([]uint64, n)
		wantHi, wantLo := make([]uint64, n), make([]uint64, n)
		vecMulWideGo(wantHi, wantLo, row, w)
		tbl.mulWide(gotHi, gotLo, row, w)
		rowsEqual(t, "mulWide.hi", tbl.tier, m, gotHi, wantHi)
		rowsEqual(t, "mulWide.lo", tbl.tier, m, gotLo, wantLo)

		// Accumulate on top of near-overflow accumulators: accLo close to
		// 2^64 forces the cross-word carry, accHi arbitrary.
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				gotLo[j] = ^uint64(0) - uint64(rng.Intn(4))
			} else {
				gotLo[j] = rng.Uint64()
			}
			gotHi[j] = rng.Uint64() % (m.Q << 1)
			wantLo[j], wantHi[j] = gotLo[j], gotHi[j]
		}
		vecMulAccWideGo(wantHi, wantLo, row, w)
		tbl.mulAccWide(gotHi, gotLo, row, w)
		rowsEqual(t, "mulAccWide.hi", tbl.tier, m, gotHi, wantHi)
		rowsEqual(t, "mulAccWide.lo", tbl.tier, m, gotLo, wantLo)
	})
}

func TestTierFoldAndReduceWide(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		hi := randRow(rng, n, m.Q) // fold-domain accumulators keep hi < q
		lo := make([]uint64, n)
		for j := range lo {
			lo[j] = rng.Uint64()
		}

		gotHi, gotLo := cloneRow(hi), cloneRow(lo)
		wantHi, wantLo := cloneRow(hi), cloneRow(lo)
		vecFoldWide128LazyGo(m, wantHi, wantLo)
		tbl.foldWide128Lazy(m, gotHi, gotLo)
		rowsEqual(t, "foldWide128Lazy.hi", tbl.tier, m, gotHi, wantHi)
		rowsEqual(t, "foldWide128Lazy.lo", tbl.tier, m, gotLo, wantLo)

		got, want := make([]uint64, n), make([]uint64, n)
		vecReduceWide128Go(m, want, hi, lo)
		tbl.reduceWide128(m, got, hi, lo)
		rowsEqual(t, "reduceWide128", tbl.tier, m, got, want)

		vecReduceWide128LazyGo(m, want, hi, lo)
		tbl.reduceWide128Lazy(m, got, hi, lo)
		rowsEqual(t, "reduceWide128Lazy", tbl.tier, m, got, want)
	})
}

// dotTermCounts are the digit counts the dot kernel is swept over: the
// degenerate single product, the shapes the key switch runs (D = 4 at
// hks_n16, 9 at boot_n12), and the most one reduction may sum.
var dotTermCounts = []int{1, 2, 4, 9, 16, MaxDotTerms}

// dotRows returns k rows of n words below bound, or — saturated — all at
// bound-1, the operands that push the 128-bit sum to its stated limit.
func dotRows(rng *rand.Rand, k, n int, bound uint64, saturated bool) [][]uint64 {
	rows := make([][]uint64, k)
	for i := range rows {
		rows[i] = randRow(rng, n, bound)
		if saturated {
			for j := range rows[i] {
				rows[i][j] = bound - 1
			}
		}
	}
	return rows
}

// checkDot holds a dot-kernel result to its contract: in [0, 2q) and congruent
// to acc·in + Σ_k a[k]·b[k], computed twice — by a chain of exact MACs (one
// reduction per term) and as a big.Int sum.
func checkDot(t *testing.T, label string, m Modulus, got, in []uint64, a, b [][]uint64, accumulate bool) {
	t.Helper()
	chain := make([]uint64, len(in))
	if accumulate {
		copy(chain, in)
		vecReduceTwoQGo(m, chain)
	}
	for k := range a {
		vecMulAddBarrettGo(m, chain, a[k][:len(in)], b[k][:len(in)])
	}

	q := new(big.Int).SetUint64(m.Q)
	sum, x, y := new(big.Int), new(big.Int), new(big.Int)
	for j, v := range got {
		sum.SetUint64(0)
		if accumulate {
			sum.SetUint64(in[j])
		}
		for k := range a {
			sum.Add(sum, x.Mul(x.SetUint64(a[k][j]), y.SetUint64(b[k][j])))
		}
		exact := sum.Mod(sum, q).Uint64()
		if r := v % m.Q; v >= m.TwoQ || r != chain[j] || r != exact {
			t.Fatalf("%s: q=%d k=%d n=%d acc=%v: out[%d] = %#x (≡ %d), MAC chain %d, big.Int %d",
				label, m.Q, len(a), len(in), accumulate, j, v, r, chain[j], exact)
		}
	}
}

func TestTierDotLazy(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		for _, k := range dotTermCounts {
			for _, accumulate := range []bool{false, true} {
				saturated := rng.Intn(3) == 0
				a := dotRows(rng, k, n, m.TwoQ, saturated) // lazy digits
				b := dotRows(rng, k, n, m.Q, saturated)    // exact key rows
				in := dotRows(rng, 1, n, m.TwoQ, saturated)[0]

				want := cloneRow(in)
				vecDotLazyGo(m, want, a, b, accumulate)
				got := cloneRow(in)
				tbl.dotLazy(m, got, a, b, accumulate)
				rowsEqual(t, "dotLazy", tbl.tier, m, got, want)
				checkDot(t, "dotLazy tier "+tbl.tier.String(), m, got, in, a, b, accumulate)
			}
		}
	})
}

// TestTierDotKeyLazy: the two-output dot of a key switch is, on every tier,
// exactly two dotLazy calls — each output with its own accumulate flag, the
// saturated operands included.
func TestTierDotKeyLazy(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		for _, k := range dotTermCounts {
			for flags := 0; flags < 4; flags++ {
				accB, accA := flags&1 != 0, flags&2 != 0
				saturated := rng.Intn(3) == 0
				a := dotRows(rng, k, n, m.TwoQ, saturated)
				b := dotRows(rng, k, n, m.Q, saturated)
				u := dotRows(rng, k, n, m.Q, saturated)
				inB, inA := dotRows(rng, 1, n, m.TwoQ, saturated)[0], dotRows(rng, 1, n, m.TwoQ, saturated)[0]

				wantB, wantA := cloneRow(inB), cloneRow(inA)
				vecDotLazyGo(m, wantB, a, b, accB)
				vecDotLazyGo(m, wantA, a, u, accA)
				gotB, gotA := cloneRow(inB), cloneRow(inA)
				tbl.dotKeyLazy(m, gotB, gotA, a, b, u, accB, accA)
				rowsEqual(t, "dotKeyLazy B", tbl.tier, m, gotB, wantB)
				rowsEqual(t, "dotKeyLazy A", tbl.tier, m, gotA, wantA)
			}
		}
	})
}

// convSourceBits are the source-modulus sizes the row conversion is tested
// over. GenerateNTTPrimes puts primes either side of 2^bits, so 51 bits
// gives moduli on both sides of the narrow bound (2^51) and 52 bits rows
// that may cross 2^52 once lazy.
var convSourceBits = []int{50, 51, 52, 55, 60, MaxModulusBits}

// convTermCounts: one term, the digit widths a key switch converts (α = 3 on
// serve_mix_n12, 6 on boot_n12, 7 on hks_n16; α is also ModDown's source
// count), and rows longer than the small folds below allow.
var convTermCounts = []int{1, 3, 6, 7, 12, 40}

// convSources returns two moduli of every convSourceBits size.
func convSources(t testing.TB) []Modulus {
	t.Helper()
	var ms []Modulus
	for _, bits := range convSourceBits {
		ps, err := GenerateNTTPrimes(bits, 12, 2)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%d): %v", bits, err)
		}
		for _, q := range ps {
			ms = append(ms, MustModulus(q))
		}
	}
	return ms
}

// convOperands draws a conversion row of k terms onto m over n coefficients:
// sources picked from srcs, lazy rows below 2q_k (saturated: all 2q_k − 1),
// and constants below m's q with the 52-bit boundary over-sampled, so one
// row mixes narrow and wide terms. fold is the most products the 128-bit sum
// always takes, as rns.BasisConverter bounds it.
func convOperands(rng *rand.Rand, srcs []Modulus, m Modulus, k, n int, saturated bool) (rows [][]uint64, c ConvRow, fold int) {
	from, w := make([]Modulus, k), make([]uint64, k)
	prodBits := 0
	for i := range from {
		from[i] = srcs[rng.Intn(len(srcs))]
		switch rng.Intn(4) {
		case 0:
			w[i] = 1<<52 - 1 - uint64(rng.Intn(2))
		case 1:
			w[i] = rng.Uint64() % (1 << 52)
		default:
			w[i] = randBelow(rng, m.Q)
		}
		w[i] %= m.Q
		prodBits = max(prodBits, bits.Len64(from[i].TwoQ-1)+bits.Len64(w[i]))
	}
	rows = make([][]uint64, k)
	for i := range rows {
		rows[i] = dotRows(rng, 1, n, from[i].TwoQ, saturated)[0]
	}
	return rows, NewConvRow(from, w), 1 << min(31, 128-prodBits)
}

// checkConvertRow holds a converted row to the big.Int sum of its terms: the
// exact residue, or a [0, 2q) one congruent to it.
func checkConvertRow(t *testing.T, label string, m Modulus, got []uint64, rows [][]uint64, c *ConvRow, lazy bool) {
	t.Helper()
	q := new(big.Int).SetUint64(m.Q)
	sum, x, y := new(big.Int), new(big.Int), new(big.Int)
	for j, v := range got {
		sum.SetUint64(0)
		for k, row := range rows {
			sum.Add(sum, x.Mul(x.SetUint64(row[j]), y.SetUint64(c.terms[k].w)))
		}
		exact := sum.Mod(sum, q).Uint64()
		if (!lazy && v != exact) || v >= m.TwoQ || v%m.Q != exact {
			t.Fatalf("%s: q=%d k=%d n=%d lazy=%v: out[%d] = %d, big.Int %d", label, m.Q, len(rows), len(got), lazy, j, v, exact)
		}
	}
}

// TestTierConvertRow: the row conversion is, on every table, the Go table's
// tiled loop word for word — exact and lazy, with and without folds, over
// sources and constants on both sides of the narrow bound, on lengths with
// and without a 16-coefficient tail and across tiles — and that loop is the
// big.Int sum.
func TestTierConvertRow(t *testing.T) {
	srcs := convSources(t)
	lens := append(append([]int(nil), tierTestLens...), ConvertTile+17)
	forEachTierCase(t, lens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		hi := make([]uint64, ConvertTile)
		for _, k := range convTermCounts {
			rows, c, bound := convOperands(rng, srcs, m, k, n, rng.Intn(3) == 0)
			for _, fold := range []int{bound, 2, 5} {
				for _, lazy := range []bool{false, true} {
					want := make([]uint64, n)
					convertRowTiled(&goKernels, m, want, rows, &c, fold, lazy, hi)
					got := make([]uint64, n)
					tbl.convertRow(tbl, m, got, rows, &c, fold, lazy, hi)
					rowsEqual(t, "convertRow", tbl.tier, m, got, want)
					if tbl == &goKernels && fold == bound {
						checkConvertRow(t, "convertRow", m, got, rows, &c, lazy)
					}
				}
			}
		}
	})
}

// TestTierConvertRowTermLimit runs the row conversion at the most terms one
// IFMA kernel call sums (1024), one past it and 1400, where the IFMA table
// hands the row to the tiled loop, with every operand word all ones: every
// term wide and its limbs near their largest, about 3·2^52 a term into the
// two weight-2^52 registers, whose sum would wrap past 1365 terms in one
// call. The sum exceeds 2^128 and
// no fold is asked for, so each table returns the sum mod 2^128 reduced —
// the same words on every table.
func TestTierConvertRowTermLimit(t *testing.T) {
	ms := tierTestModuli(t)
	m, wide := ms[0], ms[3]
	const n = 19 // one 16-coefficient step and a tail
	hi := make([]uint64, ConvertTile)
	for _, tt := range KernelTables() {
		for _, k := range []int{1024, 1025, 1400} {
			from, w, rows := make([]Modulus, k), make([]uint64, k), make([][]uint64, k)
			for i := range rows {
				from[i], w[i], rows[i] = wide, ^uint64(0), make([]uint64, n)
				for j := range rows[i] {
					rows[i][j] = ^uint64(0)
				}
			}
			c := NewConvRow(from, w)
			for _, lazy := range []bool{false, true} {
				got, want := make([]uint64, n), make([]uint64, n)
				convertRowTiled(&goKernels, m, want, rows, &c, 1<<31, lazy, hi)
				tt.t.convertRow(tt.t, m, got, rows, &c, 1<<31, lazy, hi)
				rowsEqual(t, "convertRow "+tt.String(), tt.t.tier, m, got, want)
			}
		}
	}
}

// convGroupOperands draws the source rows of a group conversion as
// convOperands does, and one conversion row onto each of ms over them. fold
// is the most products every target's 128-bit sum always takes.
func convGroupOperands(rng *rand.Rand, srcs, ms []Modulus, k, n int, saturated bool) (rows [][]uint64, cs []ConvRow, fold int) {
	from := make([]Modulus, k)
	rows = make([][]uint64, k)
	for i := range from {
		from[i] = srcs[rng.Intn(len(srcs))]
		rows[i] = dotRows(rng, 1, n, from[i].TwoQ, saturated)[0]
	}
	fold = 1 << 31
	for _, m := range ms {
		w, prodBits := make([]uint64, k), 0
		for i := range w {
			switch rng.Intn(4) {
			case 0:
				w[i] = 1<<52 - 1 - uint64(rng.Intn(2))
			case 1:
				w[i] = rng.Uint64() % (1 << 52)
			default:
				w[i] = randBelow(rng, m.Q)
			}
			w[i] %= m.Q
			prodBits = max(prodBits, bits.Len64(from[i].TwoQ-1)+bits.Len64(w[i]))
		}
		cs = append(cs, NewConvRow(from, w))
		fold = min(fold, 1<<min(31, 128-prodBits))
	}
	return rows, cs, fold
}

// TestTierConvertRows: the group conversion is, on every table, the Go
// table's tiled row loop run target by target, word for word — for 1 to
// ConvertGroup + 1 targets, in order, scattered and repeated, exact and
// lazy, with and without folds, over sources on both sides of the narrow
// bound and targets of every size (the 55-bit and wider targets' constants
// cross 2^52, as q0's do; a group with a target at or below 2^24 takes the
// row kernel, one just above it the group close), and again with every
// source and target below the narrow bounds, so every term is narrow, on
// lengths with and without an 8-coefficient tail and across tiles.
func TestTierConvertRows(t *testing.T) {
	allSrcs := convSources(t)
	allMs := append(tierTestModuli(t), MustModulus(1<<20-3), MustModulus(1<<24+43))
	below := func(ms []Modulus, bound uint64) (out []Modulus) {
		for _, m := range ms {
			if m.Q < bound {
				out = append(out, m)
			}
		}
		return out
	}
	t.Parallel()
	for _, tt := range KernelTables() {
		tbl := tt.t
		t.Run(tt.String(), func(t *testing.T) {
			t.Parallel()
			hi := make([]uint64, ConvertTile)
			rng := rand.New(rand.NewSource(0x6c0de))
			for _, set := range []struct{ srcs, ms []Modulus }{
				{allSrcs, allMs},
				{below(allSrcs, narrowModulus), below(allMs, 1<<52)},
			} {
				testConvertRowsSet(t, tbl, rng, set.srcs, set.ms, hi)
			}
		})
	}
}

// testConvertRowsSet is TestTierConvertRows over one set of sources and
// targets, at least five of them.
func testConvertRowsSet(t *testing.T, tbl *kernelTable, rng *rand.Rand, srcs, ms []Modulus, hi []uint64) {
	t.Helper()
	small := []int{len(ms) - 1, 0, len(ms) - 2, 1, 2}
	for _, n := range []int{1, 7, 8, 9, 16, 17, 64, 100, ConvertTile + 17} {
		for _, k := range convTermCounts {
			rows, cs, bound := convGroupOperands(rng, srcs, ms, k, n, rng.Intn(3) == 0)
			for g := 1; g <= ConvertGroup+1; g++ {
				inOrder, repeated := make([]int, g), make([]int, g)
				for i := range inOrder {
					inOrder[i], repeated[i] = i, rng.Intn(2)
				}
				for _, js := range [][]int{inOrder, rng.Perm(len(ms))[:g], repeated, small[:g]} {
					for _, fold := range []int{bound, 2, 5} {
						for _, lazy := range []bool{false, true} {
							outs := make([][]uint64, g)
							for i := range outs {
								outs[i] = make([]uint64, n)
							}
							tbl.convertRows(tbl, outs, ms, cs, js, rows, fold, lazy, hi)
							for i, j := range js {
								want := make([]uint64, n)
								convertRowTiled(&goKernels, ms[j], want, rows, &cs[j], fold, lazy, hi)
								rowsEqual(t, fmt.Sprintf("convertRows target %d of %v", i, js), tbl.tier, ms[j], outs[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestTierAddSub covers the exact element-wise pair, with out distinct from
// and aliasing either input (Ring.Add(d0, d0, c0) and the pipeline's
// accumulate-in-place adds both alias).
func TestTierAddSub(t *testing.T) {
	kernels := []struct {
		name string
		ref  func(m Modulus, out, a, b []uint64)
		tab  func(tbl *kernelTable) func(m Modulus, out, a, b []uint64)
	}{
		{"add", vecAddGo, func(tbl *kernelTable) func(Modulus, []uint64, []uint64, []uint64) { return tbl.add }},
		{"sub", vecSubGo, func(tbl *kernelTable) func(Modulus, []uint64, []uint64, []uint64) { return tbl.sub }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
				a := stageRow(rng, n, m.Q)
				b := stageRow(rng, n, m.Q)
				want := make([]uint64, n)
				k.ref(m, want, a, b)
				for j, v := range want {
					if v >= m.Q {
						t.Fatalf("%s oracle: out[%d] = %d not below q=%d", k.name, j, v, m.Q)
					}
				}

				out := make([]uint64, n)
				k.tab(tbl)(m, out, a, b)
				rowsEqual(t, k.name, tbl.tier, m, out, want)

				out = cloneRow(a)
				k.tab(tbl)(m, out, out, b)
				rowsEqual(t, k.name+" out==a", tbl.tier, m, out, want)

				out = cloneRow(b)
				k.tab(tbl)(m, out, a, out)
				rowsEqual(t, k.name+" out==b", tbl.tier, m, out, want)
			})
		})
	}
}

// TestTierAddScalar covers the exact scalar add, with out distinct from and
// aliasing a (rns's rescale adds into a scratch row, the pipeline in place).
func TestTierAddScalar(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		a := stageRow(rng, n, m.Q)
		c := randBelow(rng, m.Q)
		want := make([]uint64, n)
		vecAddScalarGo(m, want, a, c)
		for j, v := range want {
			if v != (a[j]+c)%m.Q {
				t.Fatalf("addScalar oracle: out[%d] = %d, want %d", j, v, (a[j]+c)%m.Q)
			}
		}
		out := make([]uint64, n)
		tbl.addScalar(m, out, a, c)
		rowsEqual(t, "addScalar", tbl.tier, m, out, want)
		out = cloneRow(a)
		tbl.addScalar(m, out, out, c)
		rowsEqual(t, "addScalar out==a", tbl.tier, m, out, want)
	})
}

func TestTierReduceTwoQ(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		p := randRow(rng, n, m.TwoQ)
		want := cloneRow(p)
		vecReduceTwoQGo(m, want)
		tbl.reduceTwoQ(m, p)
		rowsEqual(t, "reduceTwoQ", tbl.tier, m, p, want)
	})
}

// stageCnts returns the per-block butterfly counts to sweep at one span: the
// full block, and — where the contract allows partial blocks — the shares a
// split transform hands one worker (multiples of 4, vector-aligned or not).
// 8 is the one-vector share that must stay on the block's own stride; 24 and
// 40 are odd vector counts, so the AVX-512 two-vector loop ends in its
// one-vector remainder; 48 is three whole pairs.
func stageCnts(span int) []int {
	cnts := []int{span}
	for _, c := range []int{4, 8, 12, 24, 40, 48, span / 2} {
		if span >= 8 && c < span {
			cnts = append(cnts, c)
		}
	}
	return cnts
}

// stageRow returns a row for a stage kernel: random with the boundaries
// over-sampled, or (every third call) saturated at bound-1, the operand that
// drives every conditional subtraction and the Shoup product to their limits.
func stageRow(rng *rand.Rand, n int, bound uint64) []uint64 {
	r := randRow(rng, n, bound)
	if rng.Intn(3) == 0 {
		for i := range r {
			r[i] = bound - 1
		}
	}
	return r
}

func TestTierButterflies(t *testing.T) {
	forEachTierCase(t, stageBlockCounts, func(t *testing.T, tbl *kernelTable, m Modulus, nb int, rng *rand.Rand) {
		for _, span := range []int{1, 2, 4, 8, 16, 32, 64} {
			psi, psiShoup := randTwiddles(rng, m, nb)
			for _, cnt := range stageCnts(span) {
				for _, lazy := range []bool{false, true} {
					a := stageRow(rng, 2*span*nb, 4*m.Q) // CT butterfly domain [0, 4q)
					want := cloneRow(a)
					vecFwdStageGo(m, want, psi, psiShoup, span, cnt, lazy)
					tbl.fwdStage(m, a, psi, psiShoup, span, cnt, lazy)
					rowsEqual(t, "fwdStage", tbl.tier, m, a, want)
				}
				a := stageRow(rng, 2*span*nb, m.TwoQ) // GS butterfly domain [0, 2q)
				want := cloneRow(a)
				vecInvStageGo(m, want, psi, psiShoup, span, cnt)
				tbl.invStage(m, a, psi, psiShoup, span, cnt)
				rowsEqual(t, "invStage", tbl.tier, m, a, want)
			}
		}
	})
}

func TestTierInvFinal(t *testing.T) {
	forEachTierCase(t, tierTestLens, func(t *testing.T, tbl *kernelTable, m Modulus, n int, rng *rand.Rand) {
		nInv, w := randBelow(rng, m.Q), randBelow(rng, m.Q)
		nInvShoup, ws := m.ShoupPrecomp(nInv), m.ShoupPrecomp(w)
		for _, lazy := range []bool{false, true} {
			x := stageRow(rng, n, m.TwoQ)
			y := stageRow(rng, n, m.TwoQ)
			wantX, wantY := cloneRow(x), cloneRow(y)
			vecInvFinalGo(m, wantX, wantY, nInv, nInvShoup, w, ws, lazy)
			tbl.invFinal(m, x, y, nInv, nInvShoup, w, ws, lazy)
			rowsEqual(t, "invFinal.x", tbl.tier, m, x, wantX)
			rowsEqual(t, "invFinal.y", tbl.tier, m, y, wantY)
		}
	})
}
