package ntt

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

func newTestTables(t testing.TB, logN int) *Tables {
	t.Helper()
	primes, err := modarith.GenerateNTTPrimes(55, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := NewTables(modarith.MustModulus(primes[0]), logN)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randPoly(r *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % q
	}
	return a
}

// naiveNegacyclic computes the schoolbook negacyclic convolution
// c = a*b mod (X^N+1, q).
func naiveNegacyclic(a, b []uint64, mod modarith.Modulus) []uint64 {
	n := len(a)
	c := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := mod.Mul(a[i], b[j])
			k := i + j
			if k < n {
				c[k] = mod.Add(c[k], p)
			} else {
				c[k-n] = mod.Sub(c[k-n], p)
			}
		}
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	for _, logN := range []int{3, 6, 10, 13} {
		tbl := newTestTables(t, logN)
		r := rand.New(rand.NewSource(int64(logN)))
		a := randPoly(r, tbl.N, tbl.Mod.Q)
		orig := append([]uint64(nil), a...)
		tbl.Forward(a)
		tbl.Inverse(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("logN=%d: round trip differs at %d: %d != %d", logN, i, a[i], orig[i])
			}
		}
	}
}

func TestConvolutionMatchesSchoolbook(t *testing.T) {
	for _, logN := range []int{3, 5, 8} {
		tbl := newTestTables(t, logN)
		r := rand.New(rand.NewSource(42))
		a := randPoly(r, tbl.N, tbl.Mod.Q)
		b := randPoly(r, tbl.N, tbl.Mod.Q)
		want := naiveNegacyclic(a, b, tbl.Mod)

		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tbl.Forward(fa)
		tbl.Forward(fb)
		c := make([]uint64, tbl.N)
		tbl.Mod.VecMulBarrett(c, fa, fb)
		tbl.Inverse(c)
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("logN=%d: convolution differs at %d: got %d want %d", logN, i, c[i], want[i])
			}
		}
	}
}

func TestLinearity(t *testing.T) {
	tbl := newTestTables(t, 6)
	mod := tbl.Mod
	f := func(seed int64, s1, s2 uint32) bool {
		r := rand.New(rand.NewSource(seed))
		a := randPoly(r, tbl.N, mod.Q)
		b := randPoly(r, tbl.N, mod.Q)
		c1, c2 := uint64(s1)%mod.Q, uint64(s2)%mod.Q
		// NTT(c1*a + c2*b) == c1*NTT(a) + c2*NTT(b)
		lhs := make([]uint64, tbl.N)
		for i := range lhs {
			lhs[i] = mod.Add(mod.Mul(c1, a[i]), mod.Mul(c2, b[i]))
		}
		tbl.Forward(lhs)
		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tbl.Forward(fa)
		tbl.Forward(fb)
		for i := range lhs {
			rhs := mod.Add(mod.Mul(c1, fa[i]), mod.Mul(c2, fb[i]))
			if lhs[i] != rhs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantPolynomial(t *testing.T) {
	// NTT of the constant polynomial c is the all-c vector.
	tbl := newTestTables(t, 8)
	a := make([]uint64, tbl.N)
	a[0] = 7
	tbl.Forward(a)
	for i := range a {
		if a[i] != 7 {
			t.Fatalf("NTT(const 7)[%d] = %d", i, a[i])
		}
	}
}

func TestMonomialShiftIsNegacyclic(t *testing.T) {
	// X^(N-1) * X = X^N = -1 mod X^N+1.
	tbl := newTestTables(t, 4)
	mod := tbl.Mod
	a := make([]uint64, tbl.N) // X^(N-1)
	a[tbl.N-1] = 1
	b := make([]uint64, tbl.N) // X
	b[1] = 1
	tbl.Forward(a)
	tbl.Forward(b)
	c := make([]uint64, tbl.N)
	tbl.Mod.VecMulBarrett(c, a, b)
	tbl.Inverse(c)
	if c[0] != mod.Q-1 {
		t.Fatalf("c[0] = %d, want q-1 (i.e. -1)", c[0])
	}
	for i := 1; i < tbl.N; i++ {
		if c[i] != 0 {
			t.Fatalf("c[%d] = %d, want 0", i, c[i])
		}
	}
}

func TestRejectsWrongLength(t *testing.T) {
	tbl := newTestTables(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward on wrong-length slice should panic")
		}
	}()
	tbl.Forward(make([]uint64, 3))
}

// inverseLazy is Inverse with lazy outputs in [0, 2q). No production chain
// runs it; it stays here as the lazy inverse the round-trip, tier and fuzz
// tests hold the stage kernels to.
func (t *Tables) inverseLazy(a []uint64) {
	t.checkLen(a, "inverseLazy")
	t.inverse(a, true)
}

// randLazy returns a vector with coefficients in the lazy domain [0, 2q).
func randLazy(r *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % (2 * q)
	}
	return a
}

// bigIntNegacyclic is an independently-derived reference: the negacyclic
// convolution accumulated in big.Int with a single reduction per output
// coefficient, so none of the package's modular arithmetic is trusted.
func bigIntNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	bq := new(big.Int).SetUint64(q)
	acc := make([]*big.Int, n)
	for i := range acc {
		acc[i] = new(big.Int)
	}
	t := new(big.Int)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		ai := new(big.Int).SetUint64(a[i])
		for j := 0; j < n; j++ {
			t.SetUint64(b[j]).Mul(t, ai)
			if i+j < n {
				acc[i+j].Add(acc[i+j], t)
			} else {
				acc[i+j-n].Sub(acc[i+j-n], t)
			}
		}
	}
	c := make([]uint64, n)
	for i := range c {
		acc[i].Mod(acc[i], bq)
		c[i] = acc[i].Uint64()
	}
	return c
}

// TestConvolutionMatchesBigInt checks the full lazy pipeline — ForwardLazy,
// lazy VecMulBarrett inputs, Inverse — against the big.Int schoolbook reference.
func TestConvolutionMatchesBigInt(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		tbl := newTestTables(t, logN)
		r := rand.New(rand.NewSource(int64(100 + logN)))
		a := randPoly(r, tbl.N, tbl.Mod.Q)
		b := randPoly(r, tbl.N, tbl.Mod.Q)
		want := bigIntNegacyclic(a, b, tbl.Mod.Q)

		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tbl.ForwardLazy(fa)
		tbl.ForwardLazy(fb)
		c := make([]uint64, tbl.N)
		tbl.Mod.VecMulBarrett(c, fa, fb) // lazy inputs, exact output
		tbl.Inverse(c)
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("logN=%d: lazy convolution differs at %d: got %d want %d", logN, i, c[i], want[i])
			}
		}
	}
}

// TestRoundTripEveryLogN exercises exact and lazy round trips at every
// supported transform size, including the [0, q) / [0, 2q) output bounds.
func TestRoundTripEveryLogN(t *testing.T) {
	for logN := 1; logN <= 17; logN++ {
		tbl := newTestTables(t, logN)
		q := tbl.Mod.Q
		r := rand.New(rand.NewSource(int64(logN)))
		orig := randPoly(r, tbl.N, q)

		exact := append([]uint64(nil), orig...)
		tbl.Forward(exact)
		for i, v := range exact {
			if v >= q {
				t.Fatalf("logN=%d: Forward output %d at %d not < q", logN, v, i)
			}
		}
		tbl.Inverse(exact)
		lazy := append([]uint64(nil), orig...)
		tbl.ForwardLazy(lazy)
		for i, v := range lazy {
			if v >= 2*q {
				t.Fatalf("logN=%d: ForwardLazy output %d at %d not < 2q", logN, v, i)
			}
		}
		tbl.inverseLazy(lazy)
		for i := range orig {
			if exact[i] != orig[i] {
				t.Fatalf("logN=%d: exact round trip differs at %d: %d != %d", logN, i, exact[i], orig[i])
			}
			if tbl.Mod.ReduceTwoQ(lazy[i]) != orig[i] {
				t.Fatalf("logN=%d: lazy round trip differs at %d: %d !≡ %d", logN, i, lazy[i], orig[i])
			}
		}
	}
}

// TestLazyMatchesExact: the lazy variants agree with the exact ones modulo q
// for both exact and lazy-domain inputs.
func TestLazyMatchesExact(t *testing.T) {
	for _, logN := range []int{1, 2, 5, 9, 12, 14} {
		tbl := newTestTables(t, logN)
		mod := tbl.Mod
		r := rand.New(rand.NewSource(int64(7 * logN)))
		for trial := 0; trial < 4; trial++ {
			in := randLazy(r, tbl.N, mod.Q) // Forward/Inverse accept [0, 2q)
			fe := append([]uint64(nil), in...)
			fl := append([]uint64(nil), in...)
			tbl.Forward(fe)
			tbl.ForwardLazy(fl)
			for i := range fe {
				if fe[i] != mod.ReduceTwoQ(fl[i]) {
					t.Fatalf("logN=%d: ForwardLazy[%d]=%d !≡ Forward=%d", logN, i, fl[i], fe[i])
				}
			}
			ie := append([]uint64(nil), in...)
			il := append([]uint64(nil), in...)
			tbl.Inverse(ie)
			tbl.inverseLazy(il)
			for i := range ie {
				if ie[i] != mod.ReduceTwoQ(il[i]) {
					t.Fatalf("logN=%d: inverseLazy[%d]=%d !≡ Inverse=%d", logN, i, il[i], ie[i])
				}
			}
		}
	}
}

// TestMatchesReference: the Harvey rewrite agrees everywhere with the
// retained pre-rewrite kernels.
func TestMatchesReference(t *testing.T) {
	for _, logN := range []int{1, 2, 3, 4, 6, 8, 10, 13} {
		tbl := newTestTables(t, logN)
		r := rand.New(rand.NewSource(int64(31 * logN)))
		a := randPoly(r, tbl.N, tbl.Mod.Q)

		fNew := append([]uint64(nil), a...)
		fRef := append([]uint64(nil), a...)
		tbl.Forward(fNew)
		tbl.ForwardRef(fRef)
		for i := range fNew {
			if fNew[i] != fRef[i] {
				t.Fatalf("logN=%d: Forward differs from ForwardRef at %d: %d != %d", logN, i, fNew[i], fRef[i])
			}
		}
		iNew := append([]uint64(nil), a...)
		iRef := append([]uint64(nil), a...)
		tbl.Inverse(iNew)
		tbl.InverseRef(iRef)
		for i := range iNew {
			if iNew[i] != iRef[i] {
				t.Fatalf("logN=%d: Inverse differs from InverseRef at %d: %d != %d", logN, i, iNew[i], iRef[i])
			}
		}
	}
}

// TestOneTwiddleTable pins the tables' resident set at N = 2^16: the
// forward twiddles and their Shoup companions, 2N words, and no inverse
// table. The inverse stages read that table mirrored and negated, so the
// test also checks, at every index of every stage block [m, 2m), that
// q − psiRev[3m−1−j] is ψ^(−brv(j)) and that ^psiRevShoup[3m−1−j] is its
// Shoup companion.
func TestOneTwiddleTable(t *testing.T) {
	const logN = 16
	tbl := newTestTables(t, logN)
	words := 0
	v := reflect.ValueOf(tbl).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			words += f.Len()
		}
	}
	if words != 2*tbl.N {
		t.Fatalf("Tables holds %d table words at N = %d, want 2N = %d", words, tbl.N, 2*tbl.N)
	}
	mod := tbl.Mod
	inv := make([]uint64, tbl.N) // inv[brv(i)] = ψ^(−i)
	psiInv, w := mod.MustInv(tbl.Psi), uint64(1)
	for i := range inv {
		inv[reverseBits(uint64(i), logN)] = w
		w = mod.Mul(w, psiInv)
	}
	for m := 1; m < tbl.N; m <<= 1 {
		for j := m; j < 2*m; j++ {
			k := 3*m - 1 - j
			if got := mod.Q - tbl.psiRev[k]; got != inv[j] {
				t.Fatalf("m = %d, j = %d: q − psiRev[%d] = %d, want ψ^(−brv(j)) = %d", m, j, k, got, inv[j])
			}
			if got, want := ^tbl.psiRevShoup[k], mod.ShoupPrecomp(inv[j]); got != want {
				t.Fatalf("m = %d, j = %d: ^psiRevShoup[%d] = %d, want the companion %d", m, j, k, got, want)
			}
		}
	}
	if want := mod.Mul(inv[1], tbl.nInv); tbl.wLastNInv != want {
		t.Fatalf("wLastNInv = %d, want ψ^(−N/2)·N^(−1) = %d", tbl.wLastNInv, want)
	}
}

func BenchmarkForwardN4096(b *testing.B) {
	tbl := newTestTables(b, 12)
	r := rand.New(rand.NewSource(9))
	a := randPoly(r, tbl.N, tbl.Mod.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Forward(a)
	}
}

func BenchmarkInverseN4096(b *testing.B) {
	tbl := newTestTables(b, 12)
	r := rand.New(rand.NewSource(9))
	a := randPoly(r, tbl.N, tbl.Mod.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Inverse(a)
	}
}

// BenchmarkStages times every stage of the forward and inverse transforms on
// its own (one sub-benchmark per span, ns/butterfly alongside ns/op), so a
// stage profile that is not flat — one span falling off the vector path —
// shows from `go test -bench Stages`. The fwd span-1 row is Forward's exact
// exit and the fwdLazy one the [0, 2q) exit ForwardLazy (ModUp, ModDown)
// runs; the inverse span N/2 row is the 1/N-fused final stage. Every row runs
// on a 55-bit prime (fwd/n16/…) and on a 45-bit one (fwd/n16-q45/…), whose
// butterflies take the IFMA kernels on a host that has them, once per
// kernel table (go/…, avx512/…, avx512-noifma/…). The fwd-cold/n16 and inv-cold/n16
// rows (and their -q45 forms) run whole lazy transforms, each on the next of
// coldModuli moduli with a row of its own, so every transform finds its
// twiddles and its row out of the last-level cache, in DRAM, as a key
// switch's limbs do; they report the wide stages (span ≥ 8) and the tail
// (spans 4, 2, 1) in µs per transform apiece.
func BenchmarkStages(b *testing.B) {
	for _, k := range modarith.KernelTables() {
		b.Run(k.String(), func(b *testing.B) { benchStages(b, k) })
	}
}

func benchStages(b *testing.B, k modarith.Kernels) {
	for _, shape := range []struct {
		bits   int
		suffix string
	}{{55, ""}, {45, "-q45"}} {
		for _, logN := range []int{12, 16} {
			benchStagesAt(b, k, shape.bits, logN, shape.suffix)
		}
		benchStagesCold(b, k, shape.bits, shape.suffix)
	}
}

// coldModuli is how many N = 2^16 moduli the cold rows rotate through: a
// modulus's twiddles and Shoup companions take 1 MiB (one table, which the
// inverse stages read mirrored), its row 512 KiB: 1.5 MiB a modulus, so
// under a 105 MiB L3 the cold set is 140 moduli, 210 MiB.
func coldModuli() int { return (coldBytes() + 3<<19 - 1) / (3 << 19) }

// coldBytes is twice the last-level cache that sysfs reports for cpu0
// (cache/index3/size, in KiB), or 256 MiB where that cannot be read: a
// working set that large is read from DRAM, not from the cache.
func coldBytes() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if kib, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(string(b)), "K")); err == nil && perr == nil && kib > 0 {
		return 2 * kib << 10
	}
	return 256 << 20
}

func benchStagesCold(b *testing.B, k modarith.Kernels, bits int, suffix string) {
	const logN = 16
	primes, err := modarith.GenerateNTTPrimes(bits, logN, coldModuli())
	if err != nil {
		b.Fatal(err)
	}
	tbls, rows := make([]*Tables, len(primes)), make([][]uint64, len(primes))
	r := rand.New(rand.NewSource(9))
	for i, q := range primes {
		m, err := k.NewModulus(q)
		if err != nil {
			b.Fatal(err)
		}
		if tbls[i], err = NewTables(m, logN); err != nil {
			b.Fatal(err)
		}
		rows[i] = randPoly(r, tbls[i].N, q)
	}
	n := 1 << logN
	// A transform runs its stages lazily, so a row's [0, 2q) output is the
	// next transform's input.
	cold := func(dir string, run func(t *Tables, a []uint64, wide, tail *time.Duration)) {
		b.Run(fmt.Sprintf("%s-cold/n%d%s", dir, logN, suffix), func(b *testing.B) {
			var wide, tail time.Duration
			for i := 0; i < b.N; i++ {
				run(tbls[i%len(tbls)], rows[i%len(rows)], &wide, &tail)
			}
			b.ReportMetric(float64(wide)/1e3/float64(b.N), "wide-µs")
			b.ReportMetric(float64(tail)/1e3/float64(b.N), "tail-µs")
		})
	}
	cold("fwd", func(t *Tables, a []uint64, wide, tail *time.Duration) {
		t0 := time.Now()
		m := 1
		for ; m < n/8; m <<= 1 {
			t.fwdStage(a, m, true)
		}
		t1 := time.Now()
		for ; m < n; m <<= 1 {
			t.fwdStage(a, m, true)
		}
		*wide += t1.Sub(t0)
		*tail += time.Since(t1)
	})
	cold("inv", func(t *Tables, a []uint64, wide, tail *time.Duration) {
		t0 := time.Now()
		m := n >> 1
		for ; m > n/16; m >>= 1 {
			t.invStage(a, m)
		}
		t1 := time.Now()
		for ; m > 1; m >>= 1 {
			t.invStage(a, m)
		}
		t.invStageFinal(a, true)
		*tail += t1.Sub(t0)
		*wide += time.Since(t1)
	})
}

func benchStagesAt(b *testing.B, k modarith.Kernels, bits, logN int, suffix string) {
	primes, err := modarith.GenerateNTTPrimes(bits, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := k.NewModulus(primes[0])
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := NewTables(m, logN)
	if err != nil {
		b.Fatal(err)
	}
	n := tbl.N
	a := randPoly(rand.New(rand.NewSource(9)), n, tbl.Mod.Q)
	stage := func(name string, span int, run func()) {
		b.Run(fmt.Sprintf("%s/n%d%s/span%d", name, logN, suffix, span), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run() // every stage maps its input domain into itself
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n/2), "ns/butterfly")
		})
	}
	for m := 1; m < n; m <<= 1 {
		m, span := m, n/(2*m)
		stage("fwd", span, func() { tbl.fwdStage(a, m, false) })
	}
	stage("fwdLazy", 1, func() { tbl.fwdStage(a, n/2, true) })
	for m := n >> 1; m > 1; m >>= 1 {
		m, span := m, n/(2*m)
		stage("inv", span, func() { tbl.invStage(a, m) })
	}
	stage("inv", n/2, func() { tbl.invStageFinal(a, false) })
}
