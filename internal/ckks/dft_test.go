package ckks

import (
	"math/bits"
	"math/rand"
	"testing"
)

// applyGroups applies grouped LTs in order on a plaintext vector.
func applyGroups(groups []*LinearTransform, v []complex128) []complex128 {
	out := append([]complex128(nil), v...)
	for _, g := range groups {
		out = g.Apply(out)
	}
	return out
}

func bitrevVec(v []complex128) []complex128 {
	n := len(v)
	logN := bits.Len(uint(n)) - 1
	out := make([]complex128, n)
	for i := range v {
		out[int(bits.Reverse64(uint64(i))>>uint(64-logN))] = v[i]
	}
	return out
}

func TestC2SMatricesMatchSpecialIFFT(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	n := tc.params.Slots()
	r := rand.New(rand.NewSource(50))
	u := randomComplex(r, n, 1)
	// Reference: C2S(u) = bitrev(specialIFFT(u)) (z in bit-reversed order).
	z := append([]complex128(nil), u...)
	tc.enc.specialIFFT(z)
	want := bitrevVec(z)
	for _, fftIter := range []int{1, 2, 3, len(want)} {
		groups := tc.enc.CoeffToSlotMatrices(fftIter)
		got := applyGroups(groups, u)
		if e := maxErr(got, want); e > 1e-9 {
			t.Fatalf("fftIter=%d: C2S matrices error %g", fftIter, e)
		}
	}
}

func TestS2CInvertsC2S(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	n := tc.params.Slots()
	r := rand.New(rand.NewSource(51))
	u := randomComplex(r, n, 1)
	for _, fftIter := range []int{1, 3} {
		c2s := tc.enc.CoeffToSlotMatrices(fftIter)
		s2c := tc.enc.SlotToCoeffMatrices(fftIter)
		round := applyGroups(s2c, applyGroups(c2s, u))
		if e := maxErr(round, u); e > 1e-9 {
			t.Fatalf("fftIter=%d: S2C∘C2S error %g", fftIter, e)
		}
	}
}

func TestGroupedMatricesDiagonalCounts(t *testing.T) {
	// Composing g radix-2 stages (offsets 0, ±2^k) yields at most 2^{g+1}-1
	// diagonals; fewer groups should have more diagonals per group. This is
	// the fftIter trade-off of §IV-C.
	tc := newTestContext(t, TestParameters())
	logn := tc.params.LogN() - 1
	for _, fftIter := range []int{1, 2, 3} {
		groups := tc.enc.CoeffToSlotMatrices(fftIter)
		if len(groups) != fftIter {
			t.Fatalf("expected %d groups, got %d", fftIter, len(groups))
		}
		for _, g := range groups {
			gStages := (logn + fftIter - 1) / fftIter
			bound := 1<<(uint(gStages)+1) - 1
			if len(g.Diags) > bound {
				t.Fatalf("fftIter=%d: group has %d diagonals, bound %d", fftIter, len(g.Diags), bound)
			}
		}
	}
}

func TestHomomorphicC2SThenS2C(t *testing.T) {
	// Full homomorphic round trip of the two transforms (no EvalMod):
	// slots -> (coeff packing in slots, bit-reversed) -> slots.
	tc := newTestContext(t, TestParameters())
	fftIter := 2
	c2s := tc.enc.CoeffToSlotMatrices(fftIter)
	s2c := tc.enc.SlotToCoeffMatrices(fftIter)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, append(c2s, s2c...)...))

	r := rand.New(rand.NewSource(52))
	u := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, u)
	for _, g := range c2s {
		var err error
		ct, err = tc.eval.EvaluateLinearTransform(ct, g, tc.enc)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range s2c {
		var err error
		ct, err = tc.eval.EvaluateLinearTransform(ct, g, tc.enc)
		if err != nil {
			t.Fatal(err)
		}
	}
	if e := maxErr(tc.decryptVec(ct), u); e > 1e-3 {
		t.Fatalf("homomorphic S2C∘C2S error %g", e)
	}
}
