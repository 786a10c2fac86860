package ckks

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// decodeBigCoeffs is the decode oracle: the exact centered CRT of every
// coefficient through big.Int (over ALL limbs of pt), each rounded once to
// float64. It is the body Encoder.Decode ran before the word-arithmetic path
// replaced it. pt may be in either domain; it is not modified.
func decodeBigCoeffs(e *Encoder, pt *ring.Poly) []float64 {
	rq := e.params.RingQ()
	level := pt.Level()
	work := pt.CopyNew()
	if work.IsNTT {
		rq.INTT(work, level)
	}

	// CRT reconstruct each coefficient as a centered big integer, then to
	// float64 via big.Float for full precision.
	moduli := rq.Moduli[:level+1]
	bigQ := big.NewInt(1)
	for _, m := range moduli {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(m.Q))
	}
	halfQ := new(big.Int).Rsh(bigQ, 1)
	// Precompute CRT weights w_i = (Q/q_i)·[(Q/q_i)^{-1}]_{q_i}.
	weights := make([]*big.Int, len(moduli))
	for i, m := range moduli {
		qi := new(big.Int).SetUint64(m.Q)
		qHat := new(big.Int).Div(bigQ, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qHat, qi), qi)
		weights[i] = new(big.Int).Mul(qHat, inv)
	}

	coeffToFloat := func(j int) float64 {
		acc := big.NewInt(0)
		for i := range moduli {
			t := new(big.Int).SetUint64(work.Coeffs[i][j])
			acc.Add(acc, t.Mul(t, weights[i]))
		}
		acc.Mod(acc, bigQ)
		if acc.Cmp(halfQ) > 0 {
			acc.Sub(acc, bigQ)
		}
		f, _ := new(big.Float).SetInt(acc).Float64()
		return f
	}

	out := make([]float64, e.params.N())
	for j := range out {
		out[j] = coeffToFloat(j)
	}
	return out
}

// decodeBig is the slot vector of the oracle's coefficients.
func decodeBig(e *Encoder, pt *ring.Poly, scale float64) []complex128 {
	c := decodeBigCoeffs(e, pt)
	nh := e.params.N() / 2
	vals := make([]complex128, e.params.Slots())
	for j := 0; j < nh; j++ {
		vals[j] = complex(c[j]/scale, c[j+nh]/scale)
	}
	e.specialFFT(vals)
	return vals
}

// polyFromBig builds the coefficient-domain polynomial with the given signed
// integer coefficients at the given level.
func polyFromBig(rq *ring.Ring, level int, coeffs []*big.Int) *ring.Poly {
	p := rq.NewPoly(level)
	r := new(big.Int)
	for i := 0; i <= level; i++ {
		q := new(big.Int).SetUint64(rq.Moduli[i].Q)
		for j, c := range coeffs {
			p.Coeffs[i][j] = r.Mod(c, q).Uint64() // Mod is Euclidean: in [0, q)
		}
	}
	return p
}

// fastCoeffs runs the production digit and float passes over the first k
// limbs of a coefficient-domain pt and returns one float per coefficient.
func fastCoeffs(e *Encoder, pt *ring.Poly, k int) []float64 {
	work := pt.Truncated(k - 1).CopyNew()
	e.garnerDigits(work)
	out := make([]float64, e.params.N())
	for j := range out {
		out[j] = e.digitsToFloat(work, j)
	}
	return out
}

// ulps returns |a−b| in units of b's last place.
func ulps(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / (math.Nextafter(math.Abs(b), math.Inf(1)) - math.Abs(b))
}

// contractCoeffs draws coefficients inside the decode contract for scale
// 2^logScale: zero, ±1, ±small, ±2^(headroom−2)·Δ (the largest magnitude the
// test asks for) and its neighbours, and uniform signed values of every bit
// length below it.
func contractCoeffs(r *rand.Rand, n int, logScale float64) []*big.Int {
	top := new(big.Int).Lsh(big.NewInt(1), uint(math.Ceil(logScale))+decodeHeadroomBits-2)
	out := make([]*big.Int, n)
	for j := range out {
		c := new(big.Int)
		switch j % 8 {
		case 0: // zero
		case 1:
			c.SetInt64(1)
		case 2:
			c.SetInt64(int64(r.Intn(1 << 20)))
		case 3:
			c.Set(top)
		case 4:
			c.Sub(top, big.NewInt(int64(1+r.Intn(1000))))
		default:
			c.Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(top.BitLen()-1))))
		}
		if r.Intn(2) == 0 {
			c.Neg(c)
		}
		out[j] = c
	}
	return out
}

func TestDecodeMatchesBigOracle(t *testing.T) {
	params, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	rq := params.RingQ()
	rq.PoisonPool()
	enc := NewEncoder(params)
	top := params.MaxLevel()
	q0 := float64(rq.Moduli[0].Q)
	r := rand.New(rand.NewSource(20))

	for _, level := range []int{0, 1, 2, top} {
		for _, scale := range []float64{1 << 30, 1 << 45, math.Ldexp(1, 90), q0} {
			for _, ntt := range []bool{false, true} {
				coeffs := contractCoeffs(r, params.N(), math.Log2(scale))
				pt := polyFromBig(rq, level, coeffs)
				want := decodeBigCoeffs(enc, pt)
				k := enc.decodeLimbs(level, scale)
				got := fastCoeffs(enc, pt, k)
				for j := range want {
					if u := ulps(got[j], want[j]); u > 1 {
						t.Fatalf("level %d scale 2^%.0f k=%d coeff %d (%v): fast %g, oracle %g (%.1f ulp)",
							level, math.Log2(scale), k, j, coeffs[j], got[j], want[j], u)
					}
				}

				// The public entry point, in either input domain.
				in := pt.CopyNew()
				if ntt {
					rq.NTT(in, level)
				}
				keep := in.CopyNew()
				slots, wantSlots := enc.Decode(in, scale), decodeBig(enc, pt, scale)
				if !in.Equal(keep) {
					t.Fatal("Decode modified its input")
				}
				tol := 0.0
				for _, w := range wantSlots {
					tol = math.Max(tol, math.Abs(real(w))+math.Abs(imag(w)))
				}
				if e := maxErr(slots, wantSlots); e > tol*1e-13 {
					t.Fatalf("level %d scale 2^%.0f ntt=%v: Decode differs from the oracle by %g (slots up to %g)",
						level, math.Log2(scale), ntt, e, tol)
				}
			}
		}
	}
}

// TestDecodeWholeChainIsCenteredCRT: with k = level+1 the digits are the exact
// centered residue mod Q_ℓ, including the values next to ±Q/2 that no prefix
// shorter than the chain can tell apart.
func TestDecodeWholeChainIsCenteredCRT(t *testing.T) {
	params, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	rq := params.RingQ()
	enc := NewEncoder(params)
	r := rand.New(rand.NewSource(21))
	for _, level := range []int{0, 1, 2, params.MaxLevel()} {
		bigQ := big.NewInt(1)
		for _, m := range rq.Moduli[:level+1] {
			bigQ.Mul(bigQ, new(big.Int).SetUint64(m.Q))
		}
		half := new(big.Int).Rsh(bigQ, 1) // (Q−1)/2, the largest centered value
		coeffs := make([]*big.Int, params.N())
		for j := range coeffs {
			c := new(big.Int)
			switch j % 4 {
			case 0:
				c.Sub(half, big.NewInt(int64(j/4))) // Q/2, Q/2 − 1, …
			case 1:
				c.Rand(r, half)
			case 2:
				c.SetInt64(int64(j))
			case 3:
				c.Rsh(half, uint(r.Intn(half.BitLen())))
			}
			if j%8 >= 4 {
				c.Neg(c)
			}
			coeffs[j] = c
		}
		pt := polyFromBig(rq, level, coeffs)
		want := decodeBigCoeffs(enc, pt)
		got := fastCoeffs(enc, pt, level+1)
		for j := range want {
			if u := ulps(got[j], want[j]); u > 1 {
				t.Fatalf("level %d coeff %d (%v): fast %g, oracle %g (%.1f ulp)", level, j, coeffs[j], got[j], want[j], u)
			}
		}
	}
}

// FuzzDecode: any plaintext inside the headroom contract decodes to the
// oracle's coefficients, at any level, scale and input domain.
func FuzzDecode(f *testing.F) {
	params, err := NewParameters(fuzzParameters())
	if err != nil {
		f.Fatal(err)
	}
	rq := params.RingQ()
	enc := NewEncoder(params)
	f.Add(int64(1), uint8(1), uint8(45), true)
	f.Add(int64(2), uint8(0), uint8(45), false)
	f.Add(int64(3), uint8(1), uint8(20), true)
	f.Add(int64(4), uint8(1), uint8(90), false)
	f.Fuzz(func(t *testing.T, seed int64, lvl, logScale uint8, ntt bool) {
		level := int(lvl) % (params.MaxLevel() + 1)
		scale := math.Ldexp(1, 1+int(logScale)%120)
		pt := polyFromBig(rq, level, contractCoeffs(rand.New(rand.NewSource(seed)), params.N(), math.Log2(scale)))
		want := decodeBig(enc, pt, scale)
		if ntt {
			rq.NTT(pt, level)
		}
		got := enc.Decode(pt, scale)
		tol := 0.0
		for _, w := range want {
			tol = math.Max(tol, math.Abs(real(w))+math.Abs(imag(w)))
		}
		if e := maxErr(got, want); e > tol*1e-13 {
			t.Fatalf("level %d scale 2^%.0f ntt=%v: Decode differs from the oracle by %g (slots up to %g)",
				level, math.Log2(scale), ntt, e, tol)
		}
	})
}

func TestEncodeRejectsUnrepresentable(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	for _, bad := range []complex128{1e30, complex(0, -1e30), complex(math.NaN(), 0), complex(math.Inf(1), 0), complex(0, math.Inf(-1))} {
		v := make([]complex128, tc.params.Slots())
		v[3] = bad
		if _, err := tc.enc.Encode(v, tc.params.MaxLevel(), tc.params.DefaultScale()); !errors.Is(err, ErrEncodeRange) {
			t.Errorf("Encode(%v): error %v, want ErrEncodeRange", bad, err)
		}
		if _, err := tc.encr.EncodeEncryptNew(tc.enc, v, tc.params.MaxLevel(), tc.params.DefaultScale(), tc.sk); !errors.Is(err, ErrEncodeRange) {
			t.Errorf("EncodeEncryptNew(%v): error %v, want ErrEncodeRange", bad, err)
		}
	}
	// A linear transform's diagonals round through the same check.
	diag := make([]complex128, tc.params.Slots())
	diag[0] = 1e30
	ct := tc.encryptVec(t, diag[1:])
	if _, err := tc.eval.EvaluateLinearTransform(ct, NewLinearTransform(tc.params.Slots(), map[int][]complex128{0: diag}), tc.enc); !errors.Is(err, ErrEncodeRange) {
		t.Errorf("linear transform with a 1e30 diagonal: error %v, want ErrEncodeRange", err)
	}
	// The largest magnitudes that do fit still encode.
	v := []complex128{complex(1<<17, -(1 << 17))}
	if _, err := tc.enc.Encode(v, 0, tc.params.DefaultScale()); err != nil {
		t.Errorf("Encode(2^17 at scale 2^45): %v", err)
	}
}

// streamSeed returns the 32-byte seed made of the next four words s hands
// out.
func streamSeed(s *ring.Stream) (seed [32]byte) {
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], s.Uint64())
	}
	return seed
}

// encryptNew encrypts the NTT-domain plaintext pt under the secret key,
// (C0, C1) = (−a·s + NTT(e) + pt, a), drawing a's seed and then e from the
// encryptor's stream: the long-hand encrypt, e transformed apart from the
// message, that EncodeEncryptNew is pinned against.
func encryptNew(e *Encryptor, pt *Plaintext, sk *SecretKey) *Ciphertext {
	rq := e.params.RingQ()
	lvl := pt.Level()
	a := ring.NewStream(streamSeed(e.stream)).UniformPoly(rq, lvl, true)
	c0 := rq.NewPoly(lvl)
	rq.EmbedCentered(c0, e.stream.GaussianVector(rq.N, e.params.Sigma()), lvl)
	rq.NTT(c0, lvl)
	rq.Add(c0, c0, pt.Value, lvl)
	as := rq.NewPoly(lvl)
	rq.MulCoeffs(as, a, sk.Q.Truncated(lvl), lvl)
	rq.Sub(c0, c0, as, lvl)
	return &Ciphertext{C0: c0, C1: a, Scale: pt.Scale}
}

// decryptNew returns the plaintext C0 + C1·s on every limb of ct.
func decryptNew(d *Decryptor, ct *Ciphertext) *Plaintext {
	m := d.params.RingQ().NewPoly(ct.Level())
	d.decryptRows(m, ct)
	return &Plaintext{Value: m, Scale: ct.Scale}
}

// TestEncodeEncryptMatchesEncodeThenEncrypt: the one-transform encrypt is,
// byte for byte, encryptNew of the NTT-domain Encode under the same sampler
// state, and the fused decrypt is Decode of decryptNew.
func TestEncodeEncryptMatchesEncodeThenEncrypt(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	v := randomComplex(rand.New(rand.NewSource(22)), tc.params.Slots(), 1)
	level, scale := tc.params.MaxLevel(), tc.params.DefaultScale()

	pt, err := tc.enc.Encode(v, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	long := encryptNew(NewEncryptor(tc.params, 9), &Plaintext{Value: pt, Scale: scale}, tc.sk)
	short, err := NewEncryptor(tc.params, 9).EncodeEncryptNew(tc.enc, v, level, scale, tc.sk)
	if err != nil {
		t.Fatal(err)
	}
	if !long.C0.Equal(short.C0) || !long.C1.Equal(short.C1) || long.Scale != short.Scale {
		t.Fatal("EncodeEncryptNew differs from encryptNew(Encode)")
	}

	got := tc.decr.DecryptDecodeNew(short, tc.enc)
	ptDec := decryptNew(tc.decr, short)
	want := tc.enc.Decode(ptDec.Value, ptDec.Scale)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("slot %d: fused decrypt %v, decryptNew+Decode %v", j, got[j], want[j])
		}
	}
	if e := maxErr(got, v); e > 1e-7 {
		t.Fatalf("round trip error %g", e)
	}
}

// TestFreshMaskIsSeeded: a fresh ciphertext's C1 is the NTT-domain uniform
// expansion of the seed made of the first four words its encryptor's stream
// hands out, so those 32 bytes determine C1 at every level. The next
// encryption draws another seed.
func TestFreshMaskIsSeeded(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	rq := tc.params.RingQ()
	v := randomComplex(rand.New(rand.NewSource(24)), tc.params.Slots(), 1)
	for _, level := range []int{0, tc.params.MaxLevel()} {
		encr := NewEncryptor(tc.params, 11)
		seed := streamSeed(NewEncryptor(tc.params, 11).stream)
		ct, err := encr.EncodeEncryptNew(tc.enc, v, level, tc.params.DefaultScale(), tc.sk)
		if err != nil {
			t.Fatal(err)
		}
		if !ct.C1.Equal(ring.NewStream(seed).UniformPoly(rq, level, true)) {
			t.Fatalf("level %d: C1 is not the expansion of the stream's first 32 bytes", level)
		}
		next, err := encr.EncodeEncryptNew(tc.enc, v, level, tc.params.DefaultScale(), tc.sk)
		if err != nil {
			t.Fatal(err)
		}
		if next.C1.Equal(ct.C1) {
			t.Fatalf("level %d: two encryptions share a mask", level)
		}
	}
}

// TestClientObs: encrypt and decrypt report through opObs, and
// ckks_decode_limbs records the prefix a decode read.
func TestClientObs(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	v := randomComplex(rand.New(rand.NewSource(23)), tc.params.Slots(), 1)
	before := obs.Default.Snapshot()
	ct, err := tc.encr.EncodeEncryptNew(tc.enc, v, tc.params.MaxLevel(), tc.params.DefaultScale(), tc.sk)
	if err != nil {
		t.Fatal(err)
	}
	tc.decr.DecryptDecodeNew(ct, tc.enc)
	after := obs.Default.Snapshot()
	for _, name := range []string{`ckks_ops_total{op="encrypt"}`, `ckks_ops_total{op="decrypt"}`} {
		if d := after.Counters[name] - before.Counters[name]; d != 1 {
			t.Errorf("%s moved by %v, want 1", name, d)
		}
	}
	hb, ha := before.Histograms["ckks_decode_limbs"], after.Histograms["ckks_decode_limbs"]
	if ha.Count-hb.Count != 1 || ha.Sum-hb.Sum != 2 {
		t.Errorf("ckks_decode_limbs: count +%d sum +%v, want one observation of k=2", ha.Count-hb.Count, ha.Sum-hb.Sum)
	}
}
