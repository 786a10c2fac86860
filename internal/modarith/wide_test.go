package modarith

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

func big128(hi, lo uint64) *big.Int {
	v := new(big.Int).SetUint64(hi)
	v.Lsh(v, 64)
	return v.Or(v, new(big.Int).SetUint64(lo))
}

// mul64AddWide returns (hi, lo) + a·b as a 128-bit pair, the scalar
// reference of the tables' mulWide / mulAccWide.
func mul64AddWide(a, b, hi, lo uint64) (uint64, uint64) {
	phi, plo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, plo, 0)
	hi, _ = bits.Add64(hi, phi, carry)
	return hi, lo
}

// reduceWide128 reduces a 128-bit value hi:lo to its exact residue in
// [0, q), the scalar reference of VecReduceWide128.
func reduceWide128(m Modulus, hi, lo uint64) uint64 {
	r := m.ReduceWide128Lazy(hi, lo)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}

func TestMul64AddWide(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		a, b := r.Uint64(), r.Uint64()
		// Seed small enough that a*b never overflows the accumulator.
		hi, lo := r.Uint64()>>2, r.Uint64()
		gotHi, gotLo := mul64AddWide(a, b, hi, lo)
		want := big128(hi, lo)
		want.Add(want, new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)))
		want.Mod(want, new(big.Int).Lsh(big.NewInt(1), 128))
		if big128(gotHi, gotLo).Cmp(want) != 0 {
			t.Fatalf("mul64AddWide(%d, %d, %d, %d) = (%d, %d), want %v", a, b, hi, lo, gotHi, gotLo, want)
		}
	}
}

func TestReduceWide128(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, bits := range []int{45, 55, 60} {
		primes, err := GenerateNTTPrimes(bits, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range primes {
			m := MustModulus(q)
			qb := new(big.Int).SetUint64(q)
			check := func(hi, lo uint64) {
				t.Helper()
				want := new(big.Int).Mod(big128(hi, lo), qb).Uint64()
				if got := reduceWide128(m, hi, lo); got != want {
					t.Fatalf("q=%d reduceWide128(%d, %d) = %d, want %d", q, hi, lo, got, want)
				}
				lz := m.ReduceWide128Lazy(hi, lo)
				if lz >= m.TwoQ {
					t.Fatalf("q=%d ReduceWide128Lazy(%d, %d) = %d out of [0, 2q)", q, hi, lo, lz)
				}
				if lz != want && lz != want+q {
					t.Fatalf("q=%d lazy %d not congruent to %d", q, lz, want)
				}
			}
			// Adversarial corners of the 128-bit domain.
			for _, pair := range [][2]uint64{
				{0, 0}, {0, q - 1}, {0, q}, {0, 2*q - 1},
				{0, ^uint64(0)}, {^uint64(0), ^uint64(0)},
				{^uint64(0), 0}, {q - 1, q - 1},
			} {
				check(pair[0], pair[1])
			}
			for iter := 0; iter < 2000; iter++ {
				check(r.Uint64(), r.Uint64())
			}
		}
	}
}

func TestVecWideAccumulateChain(t *testing.T) {
	// Full chain differential vs big.Int: vecMulWide + (k-1)×vecMulAccWide
	// + VecReduceWide128[Lazy] computes an exact k-term inner product mod q,
	// and the row kernels' 128-bit pairs are the scalar forms' word for word.
	r := rand.New(rand.NewSource(3))
	primes, err := GenerateNTTPrimes(55, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := MustModulus(primes[0])
	qb := new(big.Int).SetUint64(m.Q)
	const n, k = 37, 16 // 16 terms of 55+55 bits fit 128 bits with slack
	rows := make([][]uint64, k)
	ws := make([]uint64, k)
	want := make([]*big.Int, n)
	for c := range want {
		want[c] = new(big.Int)
	}
	for i := range rows {
		rows[i] = make([]uint64, n)
		ws[i] = r.Uint64() % m.Q
		for c := range rows[i] {
			rows[i][c] = r.Uint64() % m.Q
			term := new(big.Int).Mul(new(big.Int).SetUint64(rows[i][c]), new(big.Int).SetUint64(ws[i]))
			want[c].Add(want[c], term)
		}
	}
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	m.k.mulWide(hi, lo, rows[0], ws[0])
	for i := 1; i < k; i++ {
		m.k.mulAccWide(hi, lo, rows[i], ws[i])
	}
	exact := make([]uint64, n)
	lazy := make([]uint64, n)
	m.VecReduceWide128(exact, hi, lo)
	m.k.reduceWide128Lazy(m, lazy, hi, lo)
	folded := append([]uint64(nil), lo...)
	foldedHi := append([]uint64(nil), hi...)
	m.VecFoldWide128Lazy(foldedHi, folded)
	for c := 0; c < n; c++ {
		var sh, sl uint64
		for i := range rows {
			sh, sl = mul64AddWide(rows[i][c], ws[i], sh, sl)
		}
		if hi[c] != sh || lo[c] != sl || exact[c] != reduceWide128(m, sh, sl) {
			t.Fatalf("col %d: row kernels give (%d, %d) → %d, the scalar forms (%d, %d) → %d",
				c, hi[c], lo[c], exact[c], sh, sl, reduceWide128(m, sh, sl))
		}
		w := new(big.Int).Mod(want[c], qb).Uint64()
		if exact[c] != w {
			t.Fatalf("col %d: exact %d want %d", c, exact[c], w)
		}
		if lazy[c] >= m.TwoQ || (lazy[c] != w && lazy[c] != w+m.Q) {
			t.Fatalf("col %d: lazy %d not congruent to %d in [0, 2q)", c, lazy[c], w)
		}
		if foldedHi[c] != 0 || folded[c] >= m.TwoQ || (folded[c] != w && folded[c] != w+m.Q) {
			t.Fatalf("col %d: fold (%d, %d) not a lazy residue of %d", c, foldedHi[c], folded[c], w)
		}
	}
}

func TestVecMulShoup(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	primes, err := GenerateNTTPrimes(60, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := MustModulus(primes[0])
	a := make([]uint64, 65)
	for c := range a {
		a[c] = r.Uint64() % m.Q
	}
	a[0], a[1] = 0, m.Q-1
	w := r.Uint64() % m.Q
	ws := m.ShoupPrecomp(w)
	out := make([]uint64, len(a))
	m.VecMulShoup(out, a, w, ws)
	for c := range a {
		if want := m.MulShoup(a[c], w, ws); out[c] != want {
			t.Fatalf("col %d: got %d want %d", c, out[c], want)
		}
	}
}

func TestVecSubMulShoupLazy(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	primes, err := GenerateNTTPrimes(60, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := MustModulus(primes[0])
	qb := new(big.Int).SetUint64(m.Q)
	n := 64
	a := make([]uint64, n)
	b := make([]uint64, n)
	for c := range a {
		a[c] = r.Uint64() % m.Q
		b[c] = r.Uint64() % m.TwoQ // lazy subtrahend domain
	}
	a[0], b[0] = 0, m.TwoQ-1
	a[1], b[1] = m.Q-1, 0
	w := r.Uint64() % m.Q
	ws := m.ShoupPrecomp(w)
	out := make([]uint64, n)
	m.VecSubMulShoupLazy(out, a, b, w, ws)
	for c := range a {
		want := new(big.Int).Sub(new(big.Int).SetUint64(a[c]), new(big.Int).SetUint64(b[c]))
		want.Mul(want, new(big.Int).SetUint64(w))
		want.Mod(want, qb)
		if out[c] != want.Uint64() {
			t.Fatalf("col %d: (%d - %d)*%d = %d, want %v", c, a[c], b[c], w, out[c], want)
		}
	}
}

func TestVecAddScalarAndRescaleStep(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	primes, err := GenerateNTTPrimes(60, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, mL := MustModulus(primes[0]), MustModulus(primes[1])
	qb := new(big.Int).SetUint64(m.Q)
	n := 64
	a := make([]uint64, n)
	for c := range a {
		a[c] = r.Uint64() % m.Q
	}
	s := r.Uint64() % m.Q
	sum := make([]uint64, n)
	m.VecAddScalar(sum, a, s)
	for c := range a {
		if want := m.Add(a[c], s); sum[c] != want {
			t.Fatalf("VecAddScalar col %d: got %d want %d", c, sum[c], want)
		}
	}

	// VecRescaleStep: t holds arbitrary uint64 values (residues of another,
	// larger modulus), row < q.
	row := make([]uint64, n)
	tRow := make([]uint64, n)
	for c := range row {
		row[c] = r.Uint64() % m.Q
		tRow[c] = r.Uint64() % mL.Q
	}
	row[0], tRow[0] = 0, mL.Q-1
	row[1], tRow[1] = m.Q-1, 0
	half := mL.QHalf % m.Q
	w := r.Uint64() % m.Q
	ws := m.ShoupPrecomp(w)
	want := make([]uint64, n)
	for c := range row {
		v := new(big.Int).SetUint64(row[c])
		v.Add(v, new(big.Int).SetUint64(half))
		v.Sub(v, new(big.Int).SetUint64(tRow[c]))
		v.Mul(v, new(big.Int).SetUint64(w))
		want[c] = v.Mod(v, qb).Uint64()
	}
	m.VecRescaleStep(row, tRow, half, w, ws)
	for c := range row {
		if row[c] != want[c] {
			t.Fatalf("VecRescaleStep col %d: got %d want %d", c, row[c], want[c])
		}
	}
}
