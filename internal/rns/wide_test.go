package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
)

// crtReconstruct returns the unique x in [0, Q) with the given residues.
func crtReconstruct(in [][]uint64, col int, ms []modarith.Modulus) *big.Int {
	Q := basisProduct(ms)
	x := big.NewInt(0)
	for i, m := range ms {
		qi := new(big.Int).SetUint64(m.Q)
		qHat := new(big.Int).Div(Q, qi)
		inv := new(big.Int).ModInverse(qHat, qi)
		term := new(big.Int).SetUint64(in[i][col])
		term.Mul(term, inv).Mod(term, qi).Mul(term, qHat)
		x.Add(x, term)
	}
	return x.Mod(x, Q)
}

// checkConvertColumns asserts that for every column the outputs of Convert
// equal x + e·Q mod p_j for one 0 ≤ e < k consistent across all targets —
// the exact approximate-BConv contract, verified with big.Int arithmetic.
func checkConvertColumns(t *testing.T, bc *BasisConverter, out, in [][]uint64) {
	t.Helper()
	Q := basisProduct(bc.From)
	n := len(in[0])
	for c := 0; c < n; c++ {
		x := crtReconstruct(in, c, bc.From)
		found := false
		for e := int64(0); e < int64(len(bc.From)); e++ {
			v := new(big.Int).Add(x, new(big.Int).Mul(Q, big.NewInt(e)))
			ok := true
			for j := range bc.To {
				if out[j][c] != new(big.Int).Mod(v, new(big.Int).SetUint64(bc.To[j].Q)).Uint64() {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("col %d: output is not x + e·Q for any 0 ≤ e < %d", c, len(bc.From))
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

// TestConvertMatchesRefAndContract runs the wide-accumulation kernel against
// the retired scalar oracle and the big.Int x + e·Q contract on random and
// adversarial inputs: all-zero, per-limb near-q residues (q_i − 1), x = Q−1,
// and single-limb values (residues of x < min q_i, identical across limbs).
func TestConvertMatchesRefAndContract(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ fromBits, toBits, k, nTo int }{
		{45, 50, 4, 3},
		{50, 55, 7, 5},
		{60, 60, 3, 2}, // near the 61-bit modulus cap
	} {
		from := mustModuli(t, shape.fromBits, 9, shape.k)
		to := mustModuli(t, shape.toBits, 9, shape.nTo)
		bc, err := NewBasisConverter(from, to)
		if err != nil {
			t.Fatal(err)
		}
		// n > RowTile exercises the tile loop and the ragged final tile.
		n := RowTile + 33
		in := newRows(shape.k, n)
		Q := basisProduct(from)
		for c := 0; c < n; c++ {
			x := new(big.Int).Rand(r, Q)
			switch c {
			case 0: // zero
				x.SetInt64(0)
			case 1: // x = Q - 1 (every residue near its modulus)
				x.Sub(Q, big.NewInt(1))
			case 3: // single-limb value: x < min q_i, all residues equal x
				x.SetUint64(r.Uint64() % from[0].Q)
			}
			decompose(x, from, n, c, in)
		}
		// case 2: per-limb near-q residues q_i − 1 (as raw rows, not a CRT
		// decomposition of a chosen x — stresses the accumulator magnitudes).
		for i := range in {
			in[i][2] = from[i].Q - 1
		}

		got := newRows(shape.nTo, n)
		want := newRows(shape.nTo, n)
		lazy := newRows(shape.nTo, n)
		bc.Convert(got, in)
		bc.ConvertRef(want, in)
		convertRows(bc, lazy, in, true)
		for j := range got {
			pj := to[j]
			for c := 0; c < n; c++ {
				if got[j][c] != want[j][c] {
					t.Fatalf("%d/%d-bit k=%d: target %d col %d: wide %d != ref %d",
						shape.fromBits, shape.toBits, shape.k, j, c, got[j][c], want[j][c])
				}
				lz := lazy[j][c]
				if lz >= pj.TwoQ || (lz != got[j][c] && lz != got[j][c]+pj.Q) {
					t.Fatalf("target %d col %d: lazy %d not a [0, 2q) residue of %d", j, c, lz, got[j][c])
				}
			}
		}
		checkConvertColumns(t, bc, got, in)
	}
}

// TestConvertFoldPath forces the mid-accumulation overflow guard (foldEvery)
// to fire and checks the folded chain still matches the scalar oracle. The
// white-box foldEvery override stands in for a > 2^(128-2·61)-limb digit,
// which no realistic parameter set reaches; the bound itself is asserted
// separately below.
func TestConvertFoldPath(t *testing.T) {
	from := mustModuli(t, 55, 8, 12)
	to := mustModuli(t, 50, 8, 3)
	bc, err := NewBasisConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	n := 64
	in := newRows(len(from), n)
	for i := range in {
		for c := range in[i] {
			in[i][c] = r.Uint64() % from[i].Q
		}
		in[i][0] = from[i].Q - 1 // max-magnitude column
	}
	want := newRows(len(to), n)
	bc.ConvertRef(want, in)
	for _, foldEvery := range []int{2, 3, 5} {
		bc.foldEvery = foldEvery
		got := newRows(len(to), n)
		bc.Convert(got, in)
		for j := range got {
			for c := range got[j] {
				if got[j][c] != want[j][c] {
					t.Fatalf("foldEvery=%d target %d col %d: got %d want %d",
						foldEvery, j, c, got[j][c], want[j][c])
				}
			}
		}
	}
}

func TestConverterFoldBound(t *testing.T) {
	// 2^(128-b1-b2) products of b1×b2-bit factors fit a 128-bit accumulator.
	for _, tc := range []struct {
		fromBits, toBits, want int
	}{
		{60, 60, 1 << 8},
		{55, 50, 1 << 23},
		{45, 45, 1 << 31}, // capped: effectively unbounded
	} {
		from := mustModuli(t, tc.fromBits, 8, 2)
		to := mustModuli(t, tc.toBits, 8, 2)
		bc, err := NewBasisConverter(from, to)
		if err != nil {
			t.Fatal(err)
		}
		// Generated primes straddle the target size, so allow one bit more.
		if bc.foldEvery != tc.want && bc.foldEvery != tc.want>>1 && bc.foldEvery != tc.want>>2 {
			t.Fatalf("%d/%d bits: foldEvery = %d, want about %d", tc.fromBits, tc.toBits, bc.foldEvery, tc.want)
		}
		if bc.foldEvery < 2 {
			t.Fatalf("foldEvery %d would make no forward progress", bc.foldEvery)
		}
	}
}

func TestConvertShapeChecks(t *testing.T) {
	from := mustModuli(t, 45, 8, 2)
	to := mustModuli(t, 50, 8, 2)
	bc, err := NewBasisConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("wrong in count", func() { bc.Convert(newRows(2, 4), newRows(3, 4)) })
	mustPanic("wrong out count", func() { bc.Convert(newRows(1, 4), newRows(2, 4)) })
	in := newRows(2, 4)
	in[1] = in[1][:3]
	mustPanic("ragged in", func() { bc.Convert(newRows(2, 4), in) })
	out := newRows(2, 4)
	out[1] = out[1][:3]
	mustPanic("ragged out", func() { bc.Convert(out, newRows(2, 4)) })
	mustPanic("rescale limb mismatch", func() {
		NewRescaler(mustModuli(t, 45, 8, 3)).DivRoundByLastModulus(newRows(2, 4))
	})
	mustPanic("rescale ragged", func() {
		rows := newRows(3, 4)
		rows[0] = rows[0][:2]
		NewRescaler(mustModuli(t, 45, 8, 3)).DivRoundByLastModulus(rows)
	})
}

// TestRescalerMatchesRef runs the vectorized rescale against the scalar
// oracle on random and adversarial inputs, twice per Rescaler so the pooled
// t-row scratch gets exercised on the reuse path.
func TestRescalerMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, shape := range []struct{ bits, limbs int }{
		{45, 2}, {50, 5}, {60, 4},
	} {
		ms := mustModuli(t, shape.bits, 9, shape.limbs)
		rs := NewRescaler(ms)
		Q := basisProduct(ms)
		n := RowTile + 17
		for round := 0; round < 2; round++ {
			rows := newRows(shape.limbs, n)
			for c := 0; c < n; c++ {
				x := new(big.Int).Rand(r, Q)
				switch c {
				case 0:
					x.SetInt64(0)
				case 1:
					x.Sub(Q, big.NewInt(1))
				}
				decompose(x, ms, n, c, rows)
			}
			want := make([][]uint64, shape.limbs)
			for i := range want {
				want[i] = append([]uint64(nil), rows[i]...)
			}
			DivRoundByLastModulusRef(ms, want)
			rs.DivRoundByLastModulus(rows)
			for i := 0; i < shape.limbs-1; i++ {
				for c := 0; c < n; c++ {
					if rows[i][c] != want[i][c] {
						t.Fatalf("%d-bit l=%d round %d: limb %d col %d: got %d want %d",
							shape.bits, shape.limbs, round, i, c, rows[i][c], want[i][c])
					}
				}
			}
		}
	}
}

// TestRescaleNTTDomainMatchesRef: rescaling a value that stays in NTT form —
// inverse-transform the last row only, LastRowPlusHalf, then per kept limb
// CorrectionRow, forward transform, (x̂_i − ŵ_i)·q_L^{-1} — equals
// NTT(DivRoundByLastModulusRef(INTT(x))) byte for byte: over mixed prime
// widths (a dropped prime between, below and above the kept ones), on random
// and all-(q−1) rows, on every kernel tier the host has.
func TestRescaleNTTDomainMatchesRef(t *testing.T) {
	t.Parallel()
	const logN = 8
	n := 1 << logN
	p60, err := modarith.GenerateNTTPrimes(60, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	p45, err := modarith.GenerateNTTPrimes(45, logN, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(15))
	for _, primes := range [][]uint64{
		{p60[0], p45[0], p45[2], p45[1]}, // q_L between the 45-bit primes, below q_0
		{p45[0], p45[1], p60[0]},         // q_L above every kept prime
	} {
		for _, tier := range modarith.KernelTables() {
			ms := make([]modarith.Modulus, len(primes))
			tbl := make([]*ntt.Tables, len(primes))
			for i, q := range primes {
				if ms[i], err = tier.NewModulus(q); err != nil {
					t.Fatal(err)
				}
				if tbl[i], err = ntt.NewTables(ms[i], logN); err != nil {
					t.Fatal(err)
				}
			}
			l := len(ms) - 1
			rs := NewRescaler(ms)
			for _, maxed := range []bool{false, true} {
				x := newRows(l+1, n)
				for i := range x {
					for c := range x[i] {
						x[i][c] = ms[i].Q - 1
						if !maxed {
							x[i][c] = r.Uint64() % ms[i].Q
						}
					}
				}

				want := make([][]uint64, l+1)
				for i := range want {
					want[i] = append([]uint64(nil), x[i]...)
					tbl[i].Inverse(want[i])
				}
				DivRoundByLastModulusRef(ms, want)

				tRow := append([]uint64(nil), x[l]...)
				tbl[l].Inverse(tRow)
				rs.LastRowPlusHalf(tRow, tRow)
				for i := 0; i < l; i++ {
					tbl[i].Forward(want[i])
					got := make([]uint64, n)
					rs.CorrectionRow(i, got, tRow, 1)
					// Scaled by s, a row holding −y comes back as s·(w_i + y).
					s := uint64(12345+i) % ms[i].Q
					y, folded := make([]uint64, n), make([]uint64, n)
					for c := range y {
						y[c] = x[i][(c+1)%n]
						folded[c] = ms[i].Neg(y[c])
					}
					rs.CorrectionRow(i, folded, tRow, s)
					for c := range folded {
						if want := ms[i].Mul(s, ms[i].Add(got[c], y[c])); folded[c] != want {
							t.Fatalf("tier %v limb %d col %d: CorrectionRow(−y, s) = %d, want s·(w + y) = %d", tier, i, c, folded[c], want)
						}
					}
					tbl[i].ForwardLazy(got)
					inv := rs.LastModulusInv()[i]
					ms[i].VecSubMulShoupLazy(got, x[i], got, inv, ms[i].ShoupPrecomp(inv))
					for c := range got {
						if got[c] != want[i][c] {
							t.Fatalf("tier %v chain %v maxed=%v: limb %d col %d: NTT-domain %d, reference %d",
								tier, primes, maxed, i, c, got[c], want[i][c])
						}
					}
				}
			}
		}
	}
}
