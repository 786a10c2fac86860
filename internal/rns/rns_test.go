package rns

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

func mustModuli(t testing.TB, bits, logN, count int) []modarith.Modulus {
	t.Helper()
	primes, err := modarith.GenerateNTTPrimes(bits, logN, count)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]modarith.Modulus, count)
	for i, q := range primes {
		out[i] = modarith.MustModulus(q)
	}
	return out
}

func basisProduct(ms []modarith.Modulus) *big.Int {
	p := big.NewInt(1)
	for _, m := range ms {
		p.Mul(p, new(big.Int).SetUint64(m.Q))
	}
	return p
}

func decompose(x *big.Int, ms []modarith.Modulus, n, col int, rows [][]uint64) {
	for i, m := range ms {
		rows[i][col] = new(big.Int).Mod(x, new(big.Int).SetUint64(m.Q)).Uint64()
	}
	_ = n
}

func TestConvertMatchesBigInt(t *testing.T) {
	from := mustModuli(t, 45, 10, 4)
	to := mustModuli(t, 50, 10, 3)
	bc, err := NewBasisConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	in := make([][]uint64, len(from))
	for i := range in {
		in[i] = make([]uint64, n)
	}
	out := make([][]uint64, len(to))
	for i := range out {
		out[i] = make([]uint64, n)
	}
	r := rand.New(rand.NewSource(1))
	Q := basisProduct(from)
	xs := make([]*big.Int, n)
	for c := 0; c < n; c++ {
		x := new(big.Int).Rand(r, Q)
		xs[c] = x
		decompose(x, from, n, c, in)
	}
	bc.Convert(out, in)

	// Expected: v = Σ_i [x·qHatInv_i]_{q_i}·(Q/q_i); check v ≡ x (mod Q),
	// v < k·Q, and out_j = v mod p_j.
	for c := 0; c < n; c++ {
		v := big.NewInt(0)
		for i, qi := range from {
			term := new(big.Int).SetUint64(qi.Mul(in[i][c], bc.qHatInv[i]))
			qHat := new(big.Int).Div(Q, new(big.Int).SetUint64(qi.Q))
			v.Add(v, term.Mul(term, qHat))
		}
		if new(big.Int).Mod(v, Q).Cmp(xs[c]) != 0 {
			t.Fatalf("col %d: v mod Q != x", c)
		}
		if v.Cmp(new(big.Int).Mul(Q, big.NewInt(int64(len(from))))) >= 0 {
			t.Fatalf("col %d: overflow multiple too large", c)
		}
		for j, pj := range to {
			want := new(big.Int).Mod(v, new(big.Int).SetUint64(pj.Q)).Uint64()
			if out[j][c] != want {
				t.Fatalf("col %d target %d: got %d want %d", c, j, out[j][c], want)
			}
		}
	}
}

// convertRows is Convert through the row conversion, lazy or exact: the
// premultiply once, then every target row on its own.
func convertRows(bc *BasisConverter, out, in [][]uint64, lazy bool) {
	pre := make([][]uint64, len(in))
	for i, qi := range bc.From {
		pre[i] = make([]uint64, len(in[i]))
		w := bc.QHatInv()[i]
		qi.VecMulShoup(pre[i], in[i], w, qi.ShoupPrecomp(w))
	}
	hi := make([]uint64, RowTile)
	for j := range out {
		bc.ConvertRow(out[j], pre, j, lazy, hi)
	}
}

// convertGroups is convertRows through the group conversion, g targets a
// call, the targets taken out of order — the odd ones, then the even ones —
// so a group's rows are scattered over the basis as a ModUp's are around a
// digit's own limbs.
func convertGroups(bc *BasisConverter, out, in [][]uint64, lazy bool, g int) {
	pre := make([][]uint64, len(in))
	for i, qi := range bc.From {
		pre[i] = make([]uint64, len(in[i]))
		w := bc.QHatInv()[i]
		qi.VecMulShoup(pre[i], in[i], w, qi.ShoupPrecomp(w))
	}
	var order []int
	for _, first := range []int{1, 0} {
		for j := first; j < len(out); j += 2 {
			order = append(order, j)
		}
	}
	hi := make([]uint64, RowTile)
	for len(order) > 0 {
		js := order[:min(g, len(order))]
		outs := make([][]uint64, len(js))
		for t, j := range js {
			outs[t] = out[j]
		}
		bc.ConvertRows(outs, pre, js, lazy, hi)
		order = order[len(js):]
	}
}

// forEachTable runs fn once under every kernel table the host can run — go,
// avx512 and, on an IFMA host, avx512-noifma, the table an AVX-512 host
// without IFMA runs — and restores the host's own table after.
func forEachTable(t testing.TB, fn func(name string)) {
	t.Helper()
	orig := modarith.ActiveTier()
	defer func() {
		if err := modarith.SetKernelTier(orig); err != nil {
			t.Fatal(err)
		}
	}()
	for _, tier := range modarith.AvailableTiers() {
		if err := modarith.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		fn(tier.String())
		if tier == modarith.TierAVX512 {
			if err := modarith.SetKernelTierWithoutIFMA(); err != nil {
				t.Fatal(err)
			}
			fn("avx512-noifma")
		}
	}
}

// convertRowCase is one converter the row conversion is held to big.Int on.
type convertRowCase struct {
	name     string
	from, to []modarith.Modulus
	fold     int  // overrides foldEvery when > 0
	scaled   bool // convert through bc.Scaled
}

// convertRowCases: the digit widths a key switch converts (α = 1, 3, 7) and
// a 33-limb source at 45 bits; sources and targets of 50, 51, 52, 55, 60 and
// 61 bits, on both sides of the kernel's narrow bound (sources below 2^51,
// constants below 2^52: the primes nearest 2^51 and 2^52 fall either side);
// hks_n16's digit 0, a 55-bit q0 among 45-bit primes, which mixes narrow and
// wide terms in one row; Scaled converters; and rows with more terms than
// one fold allows.
func convertRowCases(t *testing.T) []convertRowCase {
	const logN, nTo = 10, 5
	var cs []convertRowCase
	for _, k := range []int{1, 3, 7, 33} {
		mods := mustModuli(t, 45, logN, k+nTo)
		cs = append(cs, convertRowCase{name: fmt.Sprintf("45/k%d", k), from: mods[:k], to: mods[k:]})
	}
	sizes := []int{50, 51, 52, 55, 60, modarith.MaxModulusBits}
	var mixed []modarith.Modulus // one target of every size
	for _, b := range sizes {
		mixed = append(mixed, mustModuli(t, b, logN, 3)[2])
	}
	for _, b := range sizes {
		cs = append(cs, convertRowCase{name: fmt.Sprintf("%d/mixed", b), from: mustModuli(t, b, logN, 2), to: mixed})
	}
	digit0 := append(mustModuli(t, 55, logN, 1), mustModuli(t, 45, logN, 6)...)
	hksTo := append(mustModuli(t, 45, logN, 9)[6:], mustModuli(t, 50, logN, 2)...)
	return append(cs,
		convertRowCase{name: "hks-digit0", from: digit0, to: hksTo},
		convertRowCase{name: "hks-digit0/scaled", from: digit0, to: hksTo, scaled: true},
		convertRowCase{name: "61/mixed/scaled", from: mustModuli(t, 61, logN, 2), to: mixed, scaled: true},
		convertRowCase{name: "hks-digit0/fold3", from: digit0, to: hksTo, fold: 3},
		convertRowCase{name: "45/k33/fold5/scaled", from: cs[3].from, to: cs[3].to, fold: 5, scaled: true},
	)
}

// TestConvertRowMatchesBigInt holds the row conversion to the big.Int
// definition of TestConvertMatchesBigInt, v = Σ_i [x·qHatInv_i]_{q_i}·(Q/q_i)
// (times s_j for a Scaled converter): every target row, exact and lazy, on
// every kernel table, over a row longer than one accumulator tile whose
// length is not a multiple of 16, so the IFMA kernel's row tail runs too.
// Every table's words equal the Go table's, lazy ones included.
func TestConvertRowMatchesBigInt(t *testing.T) {
	const n = RowTile + 17
	r := rand.New(rand.NewSource(3))
	for _, tc := range convertRowCases(t) {
		from, to := tc.from, tc.to
		bc, err := NewBasisConverter(from, to)
		if err != nil {
			t.Fatal(err)
		}
		s := make([]uint64, len(to))
		for j := range s {
			s[j] = 1
		}
		if tc.scaled {
			for j, pj := range to {
				s[j] = r.Uint64() % pj.Q
			}
			bc = bc.Scaled(s)
		}
		if tc.fold > 0 {
			bc.foldEvery = tc.fold
		}
		in := newRows(len(from), n)
		Q := basisProduct(from)
		for c := 0; c < n; c++ {
			decompose(new(big.Int).Rand(r, Q), from, n, c, in)
		}
		for i, qi := range from {
			in[i][2] = qi.Q - 1 // every product at its largest
		}
		want := newRows(len(to), n)
		for c := 0; c < n; c++ {
			v := big.NewInt(0)
			for i, qi := range from {
				term := new(big.Int).SetUint64(qi.Mul(in[i][c], bc.qHatInv[i]))
				v.Add(v, term.Mul(term, new(big.Int).Div(Q, new(big.Int).SetUint64(qi.Q))))
			}
			for j, pj := range to {
				vs := new(big.Int).Mul(v, new(big.Int).SetUint64(s[j]))
				want[j][c] = vs.Mod(vs, new(big.Int).SetUint64(pj.Q)).Uint64()
			}
		}
		var goLazy [][]uint64 // the first table run is the Go one
		forEachTable(t, func(table string) {
			exact, lazy := newRows(len(to), n), newRows(len(to), n)
			convertRows(bc, exact, in, false)
			convertRows(bc, lazy, in, true)
			if goLazy == nil {
				goLazy = lazy
			}
			for j, pj := range to {
				for c := 0; c < n; c++ {
					if exact[j][c] != want[j][c] {
						t.Fatalf("%s on %s: target %d col %d: exact %d, want %d", tc.name, table, j, c, exact[j][c], want[j][c])
					}
					if lz := lazy[j][c]; lz >= pj.TwoQ || lz%pj.Q != want[j][c] {
						t.Fatalf("%s on %s: target %d col %d: lazy %d is not a [0, 2p) residue of %d", tc.name, table, j, c, lz, want[j][c])
					}
					if lazy[j][c] != goLazy[j][c] {
						t.Fatalf("%s on %s: target %d col %d: lazy %d, Go table %d", tc.name, table, j, c, lazy[j][c], goLazy[j][c])
					}
				}
			}
		})
	}
}

// TestScaledConvert: a Scaled converter's rows are the plain converter's
// times the row's scalar, residue for residue, exact and lazy.
func TestScaledConvert(t *testing.T) {
	from := mustModuli(t, 50, 10, 5)
	to := mustModuli(t, 45, 10, 4)
	bc, err := NewBasisConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	s := make([]uint64, len(to))
	for j, pj := range to {
		s[j] = r.Uint64() % pj.Q
	}
	scaled := bc.Scaled(s)
	const n = 600 // three column tiles, the last one ragged
	in := make([][]uint64, len(from))
	for i, qi := range from {
		in[i] = make([]uint64, n)
		for c := range in[i] {
			in[i][c] = r.Uint64() % qi.Q
		}
	}
	rows := func() [][]uint64 {
		out := make([][]uint64, len(to))
		for j := range out {
			out[j] = make([]uint64, n)
		}
		return out
	}
	plain, got, lazy := rows(), rows(), rows()
	bc.Convert(plain, in)
	scaled.Convert(got, in)
	convertRows(scaled, lazy, in, true)
	for j, pj := range to {
		for c := 0; c < n; c++ {
			want := pj.Mul(plain[j][c], s[j])
			if got[j][c] != want || lazy[j][c]%pj.Q != want || lazy[j][c] >= pj.TwoQ {
				t.Fatalf("row %d col %d: scaled %d / lazy %d, want %d", j, c, got[j][c], lazy[j][c], want)
			}
		}
	}
}

func TestConvertOffsetIsSmallMultipleOfQ(t *testing.T) {
	// The fast conversion returns x + e·Q with a single 0 ≤ e < k consistent
	// across all target primes (§II-B approximate BConv).
	from := mustModuli(t, 45, 8, 3)
	to := mustModuli(t, 50, 8, 2)
	bc, err := NewBasisConverter(from, to)
	if err != nil {
		t.Fatal(err)
	}
	Q := basisProduct(from)
	f := func(raw uint64) bool {
		x := new(big.Int).Mod(new(big.Int).SetUint64(raw), Q)
		in := make([][]uint64, len(from))
		for i := range in {
			in[i] = []uint64{new(big.Int).Mod(x, new(big.Int).SetUint64(from[i].Q)).Uint64()}
		}
		out := make([][]uint64, len(to))
		for i := range out {
			out[i] = []uint64{0}
		}
		bc.Convert(out, in)
		for e := int64(0); e < int64(len(from)); e++ {
			v := new(big.Int).Add(x, new(big.Int).Mul(Q, big.NewInt(e)))
			ok := true
			for j := range to {
				if out[j][0] != new(big.Int).Mod(v, new(big.Int).SetUint64(to[j].Q)).Uint64() {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDivRoundByLastModulus(t *testing.T) {
	ms := mustModuli(t, 45, 8, 4)
	Q := basisProduct(ms)
	qL := new(big.Int).SetUint64(ms[len(ms)-1].Q)
	n := 16
	r := rand.New(rand.NewSource(5))
	rows := make([][]uint64, len(ms))
	for i := range rows {
		rows[i] = make([]uint64, n)
	}
	xs := make([]*big.Int, n)
	for c := 0; c < n; c++ {
		x := new(big.Int).Rand(r, Q)
		xs[c] = x
		decompose(x, ms, n, c, rows)
	}
	NewRescaler(ms).DivRoundByLastModulus(rows)
	for c := 0; c < n; c++ {
		// round(x/qL) = floor((x + qL/2)/qL)
		want := new(big.Int).Add(xs[c], new(big.Int).Rsh(qL, 1))
		want.Div(want, qL)
		for i := 0; i < len(ms)-1; i++ {
			w := new(big.Int).Mod(want, new(big.Int).SetUint64(ms[i].Q)).Uint64()
			if rows[i][c] != w {
				t.Fatalf("col %d limb %d: got %d want %d", c, i, rows[i][c], w)
			}
		}
	}
}

func TestProductModAndInv(t *testing.T) {
	p := mustModuli(t, 45, 8, 2)
	q := mustModuli(t, 50, 8, 3)
	pm := ProductMod(p, q)
	pinv := ProductInvMod(p, q)
	for j, qj := range q {
		if qj.Mul(pm[j], pinv[j]) != 1 {
			t.Fatalf("P * P^{-1} != 1 mod q_%d", j)
		}
		want := new(big.Int).Mod(basisProduct(p), new(big.Int).SetUint64(qj.Q)).Uint64()
		if pm[j] != want {
			t.Fatalf("ProductMod wrong at %d", j)
		}
	}
}

func TestNewBasisConverterRejectsDuplicates(t *testing.T) {
	ms := mustModuli(t, 45, 8, 2)
	dup := []modarith.Modulus{ms[0], ms[0]}
	if _, err := NewBasisConverter(dup, ms); err == nil {
		t.Fatal("expected error for duplicate primes")
	}
	if _, err := NewBasisConverter(nil, ms); err == nil {
		t.Fatal("expected error for empty basis")
	}
}
