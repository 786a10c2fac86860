package modarith

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

var testModuli = []uint64{
	(1 << 16) + 1,             // Fermat prime F4
	0x1fffffffffe00001,        // 61-bit NTT-friendly prime (Lattigo Qi60)
	0xffffffffffc0001,         // 60-bit
	0x1fffffffffb40001,        // another 61-bit
	(1 << 28) - (1 << 16) + 1, // 28-bit-class prime 268369921 = 2^28-2^16+1
}

func TestNewModulusRejectsBad(t *testing.T) {
	for _, q := range []uint64{0, 1, 2, 4, 1 << 62} {
		if _, err := NewModulus(q); err == nil {
			t.Errorf("NewModulus(%d) should fail", q)
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	for _, q := range testModuli {
		if !IsPrime(q) {
			t.Fatalf("test modulus %d is not prime", q)
		}
		m := MustModulus(q)
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			a := r.Uint64() % q
			b := r.Uint64() % q
			if got, want := m.Add(a, b), (a+b)%q; got != want {
				// a+b may overflow uint64 only if q >= 2^63; excluded by construction
				t.Fatalf("Add(%d,%d) mod %d = %d, want %d", a, b, q, got, want)
			}
			wantSub := new(big.Int).Mod(new(big.Int).Sub(big.NewInt(0).SetUint64(a), big.NewInt(0).SetUint64(b)), big.NewInt(0).SetUint64(q)).Uint64()
			if got := m.Sub(a, b); got != wantSub {
				t.Fatalf("Sub(%d,%d) mod %d = %d, want %d", a, b, q, got, wantSub)
			}
			if got := m.Add(a, m.Neg(a)); got != 0 {
				t.Fatalf("a + (-a) = %d, want 0", got)
			}
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		bq := new(big.Int).SetUint64(q)
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 1000; i++ {
			a := r.Uint64() % q
			b := r.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bq)
			if got := m.Mul(a, b); got != want.Uint64() {
				t.Fatalf("Mul(%d,%d) mod %d = %d, want %s", a, b, q, got, want)
			}
		}
	}
}

func TestMulShoup(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			a := r.Uint64() % q
			w := r.Uint64() % q
			ws := m.ShoupPrecomp(w)
			if got, want := m.MulShoup(a, w, ws), m.Mul(a, w); got != want {
				t.Fatalf("MulShoup(%d,%d) mod %d = %d, want %d", a, w, q, got, want)
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	m := MustModulus(testModuli[1])
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := r.Uint64()%(m.Q-1) + 1
		inv := m.MustInv(a)
		if m.Mul(a, inv) != 1 {
			t.Fatalf("a * a^{-1} != 1 for a=%d", a)
		}
	}
	if m.Pow(3, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
	if m.Pow(3, 1) != 3 {
		t.Fatal("a^1 != a")
	}
}

func TestPowIsHomomorphic(t *testing.T) {
	m := MustModulus(0xffffffffffc0001)
	f := func(a uint64, e1, e2 uint16) bool {
		a = a%(m.Q-1) + 1
		lhs := m.Mul(m.Pow(a, uint64(e1)), m.Pow(a, uint64(e2)))
		rhs := m.Pow(a, uint64(e1)+uint64(e2))
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativeCommutative(t *testing.T) {
	m := MustModulus(0x1fffffffffe00001)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Q, b%m.Q, c%m.Q
		if m.Mul(a, b) != m.Mul(b, a) {
			return false
		}
		return m.Mul(m.Mul(a, b), c) == m.Mul(a, m.Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCenteredRoundTrip(t *testing.T) {
	m := MustModulus(testModuli[0])
	f := func(a uint64) bool {
		a %= m.Q
		c := m.Centered(a)
		if c > int64(m.QHalf) || c < -int64(m.QHalf) {
			return false
		}
		return m.FromCentered(c) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimitiveNthRoot(t *testing.T) {
	for _, logN := range []int{4, 10} {
		n := uint64(1) << uint(logN+1) // 2N-th roots
		primes, err := GenerateNTTPrimes(55, logN, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range primes {
			m := MustModulus(q)
			psi, err := m.PrimitiveNthRoot(n)
			if err != nil {
				t.Fatal(err)
			}
			if m.Pow(psi, n) != 1 {
				t.Fatalf("psi^n != 1 for q=%d", q)
			}
			if m.Pow(psi, n/2) != q-1 {
				t.Fatalf("psi^(n/2) != -1 for q=%d (order too small)", q)
			}
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{2: true, 3: true, 5: true, 7: true, 97: true, 65537: true}
	composites := []uint64{0, 1, 4, 6, 9, 15, 91, 65536, 3215031751}
	for p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	for _, tc := range []struct{ bits, logN, count int }{
		{28, 12, 8},
		{40, 13, 10},
		{45, 12, 8},
		{55, 16, 20},
		{60, 16, 4},
		// The limit: the candidates above 2^61 are 62-bit, and at logN=12 the
		// nearest prime to 2^61 is one of them.
		{MaxModulusBits, 10, 8},
		{MaxModulusBits, 12, 8},
		{MaxModulusBits, 16, 8},
	} {
		primes, err := GenerateNTTPrimes(tc.bits, tc.logN, tc.count)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%v): %v", tc, err)
		}
		seen := map[uint64]bool{}
		step := uint64(1) << uint(tc.logN+1)
		for _, q := range primes {
			if seen[q] {
				t.Fatalf("duplicate prime %d", q)
			}
			seen[q] = true
			if !IsPrime(q) {
				t.Fatalf("%d not prime", q)
			}
			if q%step != 1 {
				t.Fatalf("%d != 1 mod 2N", q)
			}
			if _, err := NewModulus(q); err != nil {
				t.Fatalf("GenerateNTTPrimes(%v) returned a prime NewModulus rejects: %v", tc, err)
			}
			if n := bits.Len64(q); n != tc.bits && n != tc.bits+1 {
				t.Fatalf("GenerateNTTPrimes(%v): %d has %d bits", tc, q, n)
			}
		}
	}
}

func TestGeneratePrimeChain(t *testing.T) {
	sizes := []int{50, 40, 40, 40, 50}
	chain, err := GeneratePrimeChain(sizes, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != len(sizes) {
		t.Fatalf("len=%d", len(chain))
	}
	seen := map[uint64]bool{}
	for i, q := range chain {
		if seen[q] {
			t.Fatalf("duplicate prime in chain: %d", q)
		}
		seen[q] = true
		center := float64(uint64(1) << uint(sizes[i]))
		if rel := (float64(q) - center) / center; rel > 0.01 || rel < -0.01 {
			t.Fatalf("chain[%d]=%d is %.4f away from 2^%d (want within 1%%)", i, q, rel, sizes[i])
		}
	}
}

func BenchmarkMul(b *testing.B) {
	m := MustModulus(0x1fffffffffe00001)
	x, y := uint64(123456789123), uint64(987654321987)
	for i := 0; i < b.N; i++ {
		x = m.Mul(x, y)
	}
	_ = x
}

func BenchmarkMulShoup(b *testing.B) {
	m := MustModulus(0x1fffffffffe00001)
	w := uint64(987654321987)
	ws := m.ShoupPrecomp(w)
	x := uint64(123456789123)
	for i := 0; i < b.N; i++ {
		x = m.MulShoup(x, w, ws)
	}
	_ = x
}

func TestMulBarrettAgainstMul(t *testing.T) {
	for _, q := range append([]uint64{3, 5, 17, 257}, testModuli...) {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(7))
		check := func(a, b uint64) {
			t.Helper()
			want := m.Mul(a, b)
			if got := m.MulBarrett(a, b); got != want {
				t.Fatalf("MulBarrett(%d,%d) mod %d = %d, want %d", a, b, q, got, want)
			}
			lazy := m.MulBarrettLazy(a, b)
			if lazy >= m.TwoQ {
				t.Fatalf("MulBarrettLazy(%d,%d) mod %d = %d >= 2q", a, b, q, lazy)
			}
			if m.ReduceTwoQ(lazy) != want {
				t.Fatalf("MulBarrettLazy(%d,%d) mod %d = %d not congruent to %d", a, b, q, lazy, want)
			}
		}
		// Boundary operands where quotient-estimate error is most likely.
		edges := []uint64{0, 1, 2, q / 2, q - 2, q - 1}
		for _, a := range edges {
			for _, b := range edges {
				check(a, b)
			}
		}
		for i := 0; i < 5000; i++ {
			check(r.Uint64()%q, r.Uint64()%q)
		}
	}
}

func TestAddLazyReduceTwoQ(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(8))
		for i := 0; i < 2000; i++ {
			a := r.Uint64() % m.TwoQ
			b := r.Uint64() % m.TwoQ
			s := m.AddLazy(a, b)
			if s >= m.TwoQ {
				t.Fatalf("AddLazy(%d,%d) = %d >= 2q (q=%d)", a, b, s, q)
			}
			if got, want := m.ReduceTwoQ(s), (a%q+b%q)%q; got != want {
				t.Fatalf("AddLazy(%d,%d) mod %d = %d, want %d", a, b, q, got, want)
			}
		}
	}
}

// TestLazyAccumulationChain exercises the intended usage pattern of the fused
// kernels: a long multiply-accumulate chain kept in [0,2q) and reduced once.
func TestLazyAccumulationChain(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(9))
		var acc, want uint64
		for i := 0; i < 256; i++ {
			a := r.Uint64() % q
			b := r.Uint64() % q
			acc = m.AddLazy(acc, m.MulBarrettLazy(a, b))
			want = m.Add(want, m.Mul(a, b))
		}
		if got := m.ReduceTwoQ(acc); got != want {
			t.Fatalf("lazy MAC chain mod %d = %d, want %d", q, got, want)
		}
	}
}

// TestMulBarrettLazyLazyOperands: the Barrett bound holds for lazy-domain
// operands (< 2q), which is what lets NTTLazy outputs feed the gadget MACs.
func TestMulBarrettLazyLazyOperands(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(11))
		check := func(a, b uint64) {
			t.Helper()
			lazy := m.MulBarrettLazy(a, b)
			if lazy >= m.TwoQ {
				t.Fatalf("MulBarrettLazy(%d,%d) mod %d = %d >= 2q", a, b, q, lazy)
			}
			if got, want := m.ReduceTwoQ(lazy), m.Mul(a%q, b%q); got != want {
				t.Fatalf("MulBarrettLazy(%d,%d) mod %d ≡ %d, want %d", a, b, q, got, want)
			}
		}
		edges := []uint64{0, 1, q - 1, q, q + 1, 2*q - 2, 2*q - 1}
		for _, a := range edges {
			for _, b := range edges {
				check(a, b)
			}
		}
		for i := 0; i < 5000; i++ {
			check(r.Uint64()%m.TwoQ, r.Uint64()%m.TwoQ)
		}
	}
}

// TestVecMulBarrettKernels checks the exact row kernels against the scalar
// reference on full rows including boundary values.
func TestVecMulBarrettKernels(t *testing.T) {
	for _, q := range testModuli {
		m := MustModulus(q)
		r := rand.New(rand.NewSource(13))
		const n = 257
		a := make([]uint64, n)
		b := make([]uint64, n)
		acc := make([]uint64, n)
		for i := range a {
			a[i] = r.Uint64() % q
			b[i] = r.Uint64() % q
			acc[i] = r.Uint64() % q
		}
		a[0], b[0] = q-1, q-1
		a[1], b[1] = 0, q-1

		out := make([]uint64, n)
		m.VecMulBarrett(out, a, b)
		for i := range out {
			if want := m.Mul(a[i], b[i]); out[i] != want {
				t.Fatalf("VecMulBarrett[%d] mod %d = %d, want %d", i, q, out[i], want)
			}
		}
		// Lazy inputs (< 2q) must still give the exact product.
		la := make([]uint64, n)
		for i := range la {
			la[i] = r.Uint64() % m.TwoQ
		}
		m.VecMulBarrett(out, la, b)
		for i := range out {
			if want := m.Mul(la[i]%q, b[i]); out[i] != want {
				t.Fatalf("VecMulBarrett lazy[%d] mod %d = %d, want %d", i, q, out[i], want)
			}
		}

		addOut := append([]uint64(nil), acc...)
		m.VecMulAddBarrett(addOut, a, b)
		for i := range addOut {
			if want := m.Add(acc[i], m.Mul(a[i], b[i])); addOut[i] != want {
				t.Fatalf("VecMulAddBarrett[%d] mod %d = %d, want %d", i, q, addOut[i], want)
			}
		}
	}
}

func BenchmarkMulBarrett(b *testing.B) {
	m := MustModulus(0x1fffffffffe00001)
	x, y := uint64(123456789123), uint64(987654321987)
	for i := 0; i < b.N; i++ {
		x = m.MulBarrett(x, y)
	}
	_ = x
}

func BenchmarkMulBarrettLazy(b *testing.B) {
	m := MustModulus(0x1fffffffffe00001)
	x, y := uint64(123456789123), uint64(987654321987)
	for i := 0; i < b.N; i++ {
		x = m.ReduceTwoQ(m.MulBarrettLazy(x, y))
	}
	_ = x
}
