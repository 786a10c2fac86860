package ring

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

func newTestRing(t testing.TB, logN, nPrimes int) *Ring {
	t.Helper()
	r, err := NewRing(logN, mustPrimes(t, 50, logN, nPrimes))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newTestRingAt is newTestRing on kernel table k at pool width width.
func newTestRingAt(t testing.TB, logN, nPrimes int, k modarith.Kernels, width int) *Ring {
	t.Helper()
	r, err := NewRingAt(logN, mustPrimes(t, 50, logN, nPrimes), k, width)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewPolyShape(t *testing.T) {
	r := newTestRing(t, 6, 4)
	p := r.NewPoly(2)
	if p.Level() != 2 {
		t.Fatalf("level = %d", p.Level())
	}
	if len(p.Coeffs) != 3 || len(p.Coeffs[0]) != r.N {
		t.Fatalf("bad shape")
	}
}

func TestAddSubNegIdentities(t *testing.T) {
	r := newTestRing(t, 5, 3)
	s := testStream(7)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, false)
	b := s.UniformPoly(r, level, false)

	sum := r.NewPoly(level)
	r.Add(sum, a, b, level)
	diff := r.NewPoly(level)
	r.Sub(diff, sum, b, level)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}

	neg := r.NewPoly(level)
	r.Neg(neg, a, level)
	r.Add(neg, neg, a, level)
	zero := r.NewPoly(level)
	if !neg.Equal(zero) {
		t.Fatal("a + (-a) != 0")
	}
}

func TestMulCoeffsDistributes(t *testing.T) {
	r := newTestRing(t, 5, 2)
	level := r.MaxLevel()
	f := func(seed int64) bool {
		s := testStream(seed)
		a := s.UniformPoly(r, level, true)
		b := s.UniformPoly(r, level, true)
		c := s.UniformPoly(r, level, true)
		// a*(b+c) == a*b + a*c
		bc := r.NewPoly(level)
		r.Add(bc, b, c, level)
		lhs := r.NewPoly(level)
		r.MulCoeffs(lhs, a, bc, level)
		rhs := r.NewPoly(level)
		rhs.IsNTT = true
		r.MulCoeffsAdd(rhs, a, b, level)
		r.MulCoeffsAdd(rhs, a, c, level)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestNTTRoundTripPoly(t *testing.T) {
	r := newTestRing(t, 7, 3)
	s := testStream(3)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, false)
	orig := a.CopyNew()
	r.NTT(a, level)
	if !a.IsNTT {
		t.Fatal("domain flag not set")
	}
	r.INTT(a, level)
	if !a.Equal(orig) {
		t.Fatal("NTT/INTT round trip failed")
	}
}

// TestNTTLazyMatchesExact: lazy transforms agree with exact ones modulo each
// limb's prime, stay below 2q, and round-trip through ReduceLazy.
// TestINTTLimbMatchesINTT: the single-limb inverse transform is the full one's
// row, and counts as one limb transform.
func TestINTTLimbMatchesINTT(t *testing.T) {
	r := newTestRing(t, 6, 4)
	level := r.MaxLevel()
	p := testStream(7).UniformPoly(r, level, true)
	row := append([]uint64(nil), p.Coeffs[2]...)
	_, intt0 := r.Counters()
	r.INTTLimb(row, 2)
	if _, intt1 := r.Counters(); intt1-intt0 != 1 {
		t.Fatalf("INTTLimb moved the inverse counter by %d, want 1", intt1-intt0)
	}
	r.INTT(p, level)
	for j := range row {
		if row[j] != p.Coeffs[2][j] {
			t.Fatalf("INTTLimb row differs from INTT at coefficient %d", j)
		}
	}
}

// TestPoolContract: GetPoly hands back whatever the last borrower left (no
// zero fill), flagged coefficient-domain, and a poisoned pool overwrites
// returned polynomials so that stale contents cannot pass for results.
func TestPoolContract(t *testing.T) {
	r := newTestRing(t, 5, 3)
	p := r.GetPoly(2) // pool miss: fresh
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != 0 {
				t.Fatal("a pool miss must return a zero polynomial")
			}
			p.Coeffs[i][j] = 7
		}
	}
	p.IsNTT = true
	r.PoisonPool()
	r.PutPoly(p)
	if p.Coeffs[1][3] != ^uint64(0) {
		t.Fatal("PutPoly on a poisoned pool left the rows intact")
	}
	// sync.Pool may drop the item; either way the borrow is never the 7s.
	q := r.GetPoly(2)
	if q.IsNTT || q.Coeffs[1][3] == 7 {
		t.Fatal("GetPoly returned an NTT-flagged or unpoisoned recycled polynomial")
	}
	// A miss on a poisoned pool is poisoned too: a borrower that skips a row
	// fails the same way whether or not the pool had something to recycle.
	if fresh := r.GetPoly(1); fresh.Coeffs[0][0] != ^uint64(0) || fresh.Coeffs[1][r.N-1] != ^uint64(0) {
		t.Fatal("a pool miss on a poisoned pool returned zeros")
	}
}

// TestPoolAcrossCapacities: a borrow takes the smallest pooled polynomial
// that fits and is cut to exactly level+1 rows (poisoned, under PoisonPool),
// a row past them is out of range, and PutPoly files the polynomial at its
// full capacity again. A miss allocates exactly what was asked.
func TestPoolAcrossCapacities(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	// One P: a sync.Pool's per-P slot is not visible from another P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newTestRing(t, 5, 6)
	r.PoisonPool()
	big, mid := r.NewPoly(5), r.NewPoly(3)
	r.PutPoly(big)
	r.PutPoly(mid)

	p := r.GetPoly(1)
	if p != mid || len(p.Coeffs) != 2 || p.Capacity() != 4 {
		t.Fatalf("GetPoly(1) took %d rows of capacity %d, want 2 rows of the 4-limb polynomial", len(p.Coeffs), p.Capacity())
	}
	for i, row := range p.Coeffs {
		for j, v := range row {
			if v != ^uint64(0) {
				t.Fatalf("borrowed row %d coefficient %d is %d, not poisoned", i, j, v)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("slicing a borrow past its level reached the pooled capacity")
			}
		}()
		_ = p.Coeffs[:3]
	}()
	if q := r.GetPoly(1); q != big || len(q.Coeffs) != 2 || q.Capacity() != 6 {
		t.Fatalf("second GetPoly(1) took %d rows of capacity %d, want the 6-limb polynomial", len(q.Coeffs), q.Capacity())
	}
	miss := poolMissBytes.Value()
	if q := r.GetPoly(2); q.Capacity() != 3 || poolMissBytes.Value()-miss != float64(3*r.N*8) {
		t.Fatalf("a miss allocated capacity %d", q.Capacity())
	}

	r.PutPoly(p)
	if len(p.Coeffs) != 4 {
		t.Fatalf("PutPoly left %d rows, want the full capacity 4", len(p.Coeffs))
	}
	if q := r.GetPoly(3); q != p || len(q.Coeffs) != 4 {
		t.Fatalf("GetPoly(3) did not get the 4-limb polynomial back whole")
	}
}

// TestPutPolyView: only a whole polynomial is pooled. A Truncated view shares
// its rows with the polynomial it was cut from, so filing it would hand those
// rows to the next borrower while their owner still uses them; an
// unmarshalled polynomial was not allocated by the ring. Both are dropped.
func TestPutPolyView(t *testing.T) {
	r := newTestRing(t, 5, 4)
	owner := testStream(3).UniformPoly(r, 3, true)
	want := owner.CopyNew()

	var decoded Poly
	blob, err := owner.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	r.PoisonPool()
	puts := poolPuts.Value()
	r.PutPoly(owner.Truncated(1))
	r.PutPoly(owner.Truncated(3)) // every limb, still a view
	r.PutPoly(&decoded)
	r.PutPoly(nil)
	if got := poolPuts.Value(); got != puts {
		t.Fatalf("PutPoly pooled %v views / unmarshalled polynomials", got-puts)
	}
	if !owner.Equal(want) || !decoded.Equal(want) {
		t.Fatal("PutPoly wrote to a polynomial it did not pool")
	}
	for level := 0; level <= 3; level++ {
		for k := 0; k < 4; k++ {
			p := r.GetPoly(level)
			for _, row := range owner.Coeffs {
				if &p.Coeffs[0][0] == &row[0] || &p.Coeffs[level][0] == &row[0] {
					t.Fatalf("GetPoly(%d) handed out a row its owner still holds", level)
				}
			}
		}
	}

	// The whole polynomial itself, and a copy of it, are pooled.
	r.PutPoly(owner)
	r.PutPoly(want)
	if got := poolPuts.Value(); got != puts+2 {
		t.Fatalf("PutPoly pooled %v of two whole polynomials", got-puts)
	}
}

func TestNTTLazyMatchesExact(t *testing.T) {
	r := newTestRing(t, 7, 3)
	s := testStream(5)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, false)
	exact := a.CopyNew()
	lazy := a.CopyNew()

	r.NTT(exact, level)
	nttLazy(r, lazy, level)
	if !lazy.IsNTT {
		t.Fatal("NTTLazy did not set domain flag")
	}
	for i := 0; i <= level; i++ {
		mod := r.Moduli[i]
		for j := range lazy.Coeffs[i] {
			v := lazy.Coeffs[i][j]
			if v >= mod.TwoQ {
				t.Fatalf("NTTLazy limb %d coeff %d = %d >= 2q", i, j, v)
			}
			if mod.ReduceTwoQ(v) != exact.Coeffs[i][j] {
				t.Fatalf("NTTLazy limb %d coeff %d !≡ NTT", i, j)
			}
		}
	}

	// The exact inverse takes lazy inputs.
	r.INTT(lazy, level)
	if !lazy.Equal(a) {
		t.Fatal("NTTLazy/INTT round trip failed")
	}
}

// automorphismCoeff is the coefficient-domain oracle for AutomorphismNTT:
// coefficient j of in lands at position g*j mod 2N of out, negated when the
// exponent wraps past N.
func automorphismCoeff(r *Ring, out, in *Poly, g uint64, level int) {
	if in.IsNTT || out == in {
		panic("automorphismCoeff needs a coefficient-domain input it does not overwrite")
	}
	n := uint64(r.N)
	mask := 2*n - 1
	for i := 0; i <= level; i++ {
		mod := r.Moduli[i]
		src, dst := in.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			k := (j * g) & mask
			if k < n {
				dst[k] = src[j]
			} else {
				dst[k-n] = mod.Neg(src[j])
			}
		}
	}
	out.IsNTT = false
}

func TestAutomorphismCoeffVsNTT(t *testing.T) {
	r := newTestRing(t, 8, 2)
	s := testStream(13)
	level := r.MaxLevel()
	for _, rot := range []int{1, 2, 5, 31, -1, -7} {
		g := r.GaloisElement(rot)
		a := s.UniformPoly(r, level, false)

		// Path 1: coefficient-domain automorphism then NTT.
		c1 := r.NewPoly(level)
		automorphismCoeff(r, c1, a, g, level)
		r.NTT(c1, level)

		// Path 2: NTT then NTT-domain automorphism.
		an := a.CopyNew()
		r.NTT(an, level)
		c2 := r.NewPoly(level)
		r.AutomorphismNTT(c2, an, g, level)

		if !c1.Equal(c2) {
			t.Fatalf("rot=%d: NTT-domain automorphism disagrees with coefficient-domain", rot)
		}
	}
}

func TestAutomorphismGroupLaw(t *testing.T) {
	// σ_g1 ∘ σ_g2 = σ_{g1*g2 mod 2N}
	r := newTestRing(t, 6, 2)
	s := testStream(17)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, false)
	g1, g2 := r.GaloisElement(3), r.GaloisElement(7)
	twoN := uint64(2 * r.N)

	t1 := r.NewPoly(level)
	automorphismCoeff(r, t1, a, g2, level)
	t2 := r.NewPoly(level)
	automorphismCoeff(r, t2, t1, g1, level)

	t3 := r.NewPoly(level)
	automorphismCoeff(r, t3, a, g1*g2%twoN, level)
	if !t2.Equal(t3) {
		t.Fatal("automorphism composition law violated")
	}
}

func TestAutomorphismConjugateInvolution(t *testing.T) {
	r := newTestRing(t, 6, 2)
	s := testStream(19)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, true)
	g := r.GaloisElementConjugate()
	b := r.NewPoly(level)
	r.AutomorphismNTT(b, a, g, level)
	c := r.NewPoly(level)
	r.AutomorphismNTT(c, b, g, level)
	if !c.Equal(a) {
		t.Fatal("conjugation applied twice is not the identity")
	}
}

func TestGaloisElementRotationComposition(t *testing.T) {
	r := newTestRing(t, 8, 1)
	twoN := uint64(2 * r.N)
	f := func(r1, r2 uint8) bool {
		a := int(r1) % (r.N / 2)
		b := int(r2) % (r.N / 2)
		return r.GaloisElement(a)*r.GaloisElement(b)%twoN == r.GaloisElement(a+b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTernaryPolyWeight(t *testing.T) {
	r := newTestRing(t, 8, 2)
	s := testStream(23)
	h := 32
	p := SmallVectorToPoly(r, r.MaxLevel(), s.TernaryVector(r.N, h))
	nonzero := 0
	for j := 0; j < r.N; j++ {
		c := r.Moduli[0].Centered(p.Coeffs[0][j])
		switch c {
		case 0:
		case 1, -1:
			nonzero++
		default:
			t.Fatalf("ternary coefficient %d out of range", c)
		}
		// All limbs must agree on the signed value.
		for i := 1; i <= p.Level(); i++ {
			if r.Moduli[i].Centered(p.Coeffs[i][j]) != c {
				t.Fatal("limbs disagree on small value")
			}
		}
	}
	if nonzero != h {
		t.Fatalf("hamming weight = %d, want %d", nonzero, h)
	}
}

func TestGaussianPolyBounded(t *testing.T) {
	r := newTestRing(t, 8, 1)
	s := testStream(29)
	sigma := 3.2
	p := SmallVectorToPoly(r, 0, s.GaussianVector(r.N, sigma))
	var sum, sumSq float64
	for j := 0; j < r.N; j++ {
		c := float64(r.Moduli[0].Centered(p.Coeffs[0][j]))
		if c > 6*sigma || c < -6*sigma {
			t.Fatalf("gaussian sample %f outside 6 sigma", c)
		}
		sum += c
		sumSq += c * c
	}
	n := float64(r.N)
	mean := sum / n
	std := sumSq/n - mean*mean
	if std < sigma*sigma/2 || std > sigma*sigma*2 {
		t.Fatalf("sample variance %f implausible for sigma=%f", std, sigma)
	}
}

// TestEmbedCenteredMatchesFromCentered: both rows of the embed (add-q for
// vectors below the modulus, Barrett for the rest) against the dividing
// scalar reference, over mixed prime sizes and the int64 extremes.
func TestEmbedCenteredMatchesFromCentered(t *testing.T) {
	primes := append(mustPrimes(t, 61, 5, 1), mustPrimes(t, 45, 5, 2)...)
	r, err := NewRing(5, primes)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(32))
	for _, bitLen := range []uint{2, 44, 46, 60, 62, 63} { // below all, between, above all the moduli
		v := make([]int64, r.N)
		for j := range v {
			v[j] = rnd.Int63() >> (63 - bitLen)
			if rnd.Intn(2) == 0 {
				v[j] = -v[j]
			}
		}
		v[0], v[1], v[2] = 0, 1<<(bitLen-1), -(1 << (bitLen - 1))
		if bitLen == 63 {
			v[3], v[4], v[5] = math.MaxInt64, math.MinInt64, -int64(primes[1])
		}
		p := r.GetPoly(r.MaxLevel())
		p.IsNTT = true
		r.EmbedCentered(p, v, r.MaxLevel())
		if p.IsNTT {
			t.Fatal("EmbedCentered left the NTT flag set")
		}
		for i, mod := range r.Moduli {
			for j, x := range v {
				want := uint64((x%int64(mod.Q) + int64(mod.Q)) % int64(mod.Q))
				if got := p.Coeffs[i][j]; got != want {
					t.Fatalf("%d-bit values, limb %d (q=%d): embed(%d) = %d, want %d", bitLen, i, mod.Q, x, got, want)
				}
			}
		}
		r.PutPoly(p)
	}
}

func mustPrimes(t testing.TB, bits, logN, n int) []uint64 {
	t.Helper()
	primes, err := modarith.GenerateNTTPrimes(bits, logN, n)
	if err != nil {
		t.Fatal(err)
	}
	return primes
}

// TestRowOpsMatchScalar: the limb-wise ops that run on row kernels (Add, Sub,
// MulByLimbScalars) against the scalar Modulus methods, one coefficient at a
// time, with out distinct from and aliasing an input.
func TestRowOpsMatchScalar(t *testing.T) {
	r := newTestRing(t, 5, 3)
	s := testStream(43)
	level := r.MaxLevel()
	a := s.UniformPoly(r, level, true)
	b := s.UniformPoly(r, level, true)
	scalars := make([]uint64, level+1)
	for i := range scalars {
		scalars[i] = r.Moduli[i].Q - uint64(i) - 1
	}
	sum, diff, prod := r.NewPoly(level), r.NewPoly(level), r.NewPoly(level)
	r.Add(sum, a, b, level)
	r.Sub(diff, a, b, level)
	r.MulByLimbScalars(prod, a, scalars, level)
	for i, mod := range r.Moduli {
		for j := range a.Coeffs[i] {
			x, y := a.Coeffs[i][j], b.Coeffs[i][j]
			if sum.Coeffs[i][j] != mod.Add(x, y) || diff.Coeffs[i][j] != mod.Sub(x, y) ||
				prod.Coeffs[i][j] != mod.Mul(x, scalars[i]) {
				t.Fatalf("limb %d coefficient %d: row op differs from the scalar op", i, j)
			}
		}
	}
	if !sum.IsNTT || !diff.IsNTT || !prod.IsNTT {
		t.Fatal("row ops did not propagate the domain flag")
	}
	inPlace := a.CopyNew()
	r.Add(inPlace, inPlace, b, level)
	if !inPlace.Equal(sum) {
		t.Fatal("Add with out == a differs")
	}
	inPlace.Copy(b)
	r.Sub(inPlace, a, inPlace, level)
	if !inPlace.Equal(diff) {
		t.Fatal("Sub with out == b differs")
	}
}

// TestScaledResiduesMatchBigInt: ScaledResidues reduces a signed multi-word
// integer c·scale per limb exactly as big.Int.Mod does, and AddLimbScalars
// (NTT domain) and MulByLimbScalars (both domains) apply the residues.
func TestScaledResiduesMatchBigInt(t *testing.T) {
	r := newTestRing(t, 4, 3)
	s := testStream(47)
	level := r.MaxLevel()
	q0 := float64(r.Moduli[0].Q) // below 2^53: exact
	consts := []struct{ c, scale float64 }{
		{0, 1}, {1, 1}, {-1, 1}, {q0, 1}, {-q0, 1},
		{0x1234567, 0x1p150}, {-0x1234567, 0x1p150}, {q0, 0x1234567p150},
		{1<<32 - 1, 1<<32 + 1}, {-1, 0x1p64}, // 2^64 − 1 and −2^64
	}
	for _, k := range consts {
		v := new(big.Int)
		new(big.Float).SetPrec(106).Mul(big.NewFloat(k.c), big.NewFloat(k.scale)).Int(v)
		res := r.ScaledResidues(make([]uint64, level+1), k.c, k.scale)
		for _, ntt := range []bool{false, true} {
			a := s.UniformPoly(r, level, ntt)
			sum, prod := a.CopyNew(), r.NewPoly(level)
			if ntt { // AddLimbScalars is NTT-only: the coefficient-domain sum stays a
				r.AddLimbScalars(sum, a, res, level)
			}
			r.MulByLimbScalars(prod, a, res, level)
			for i, mod := range r.Moduli {
				c := new(big.Int).Mod(v, new(big.Int).SetUint64(mod.Q)).Uint64()
				for j, x := range a.Coeffs[i] {
					wantSum := x
					if ntt {
						wantSum = mod.Add(x, c)
					}
					if sum.Coeffs[i][j] != wantSum || prod.Coeffs[i][j] != mod.Mul(x, c) {
						t.Fatalf("v=%v ntt=%v limb %d coefficient %d: got sum %d prod %d, want %d %d",
							v, ntt, i, j, sum.Coeffs[i][j], prod.Coeffs[i][j], wantSum, mod.Mul(x, c))
					}
				}
			}
		}
	}
}

func TestUniformRejectionIsUniform(t *testing.T) {
	// Crude sanity: mean of residues should be ~q/2.
	r := newTestRing(t, 10, 1)
	s := testStream(rand.Int63())
	p := s.UniformPoly(r, 0, false)
	q := float64(r.Moduli[0].Q)
	var sum float64
	for _, v := range p.Coeffs[0] {
		sum += float64(v)
	}
	mean := sum / float64(r.N)
	if mean < 0.4*q || mean > 0.6*q {
		t.Fatalf("uniform sample mean %.3g implausible for q=%.3g", mean, q)
	}
}

// TestMulByLimbScalarsAddLazyMatchesUnfused: a lazy scalar MAC chain ended
// by ReduceLazy equals the exact MulByLimbScalars + Add composition.
func TestMulByLimbScalarsAddLazyMatchesUnfused(t *testing.T) {
	r := newTestRing(t, 5, 9)
	s := testStream(17)
	level := r.MaxLevel()

	scalars := make([]uint64, level+1)
	for i := range scalars {
		scalars[i] = uint64(i*i+3) % r.Moduli[i].Q
	}

	acc := s.UniformPoly(r, level, true)
	want := acc.CopyNew()
	fused := acc.CopyNew()
	tmp := r.NewPoly(level)
	for k := 0; k < 5; k++ {
		a := s.UniformPoly(r, level, true)
		r.MulByLimbScalarsAddLazy(fused, a, scalars, level)
		r.MulByLimbScalars(tmp, a, scalars, level)
		r.Add(want, want, tmp, level)
	}
	r.ReduceLazy(fused, level)
	if !fused.Equal(want) {
		t.Fatal("fused scalar MAC != MulByLimbScalars+Add composition")
	}
}
