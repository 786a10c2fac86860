package ckks

import (
	"math/rand"
	"testing"
)

// randomSparseLT builds a random linear transform with the given diagonal
// offsets.
func randomSparseLT(r *rand.Rand, slots int, offsets []int) *LinearTransform {
	diags := make(map[int][]complex128)
	for _, off := range offsets {
		d := make([]complex128, slots)
		for j := range d {
			d[j] = complex(2*r.Float64()-1, 2*r.Float64()-1)
		}
		diags[off] = d
	}
	return NewLinearTransform(slots, diags)
}

func TestLinearTransformHoisted(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	r := rand.New(rand.NewSource(30))
	offsets := []int{0, 1, 2, 3, 5, 8}
	lt := randomSparseLT(r, tc.params.Slots(), offsets)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, lt))

	u := randomComplex(r, tc.params.Slots(), 1)
	ct := tc.encryptVec(t, u)
	out, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc)
	if err != nil {
		t.Fatal(err)
	}

	want := lt.Apply(u)
	if e := maxErr(tc.decryptVec(out), want); e > 1e-4 {
		t.Fatalf("hoisted LT error %g", e)
	}
	// Hoisting with pt scale = dropped prime must restore the scale.
	if rel := out.Scale/ct.Scale - 1; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("scale not restored: %g vs %g", out.Scale, ct.Scale)
	}
}

// TestLinearTransformHoistedPostRescale runs the hoisted transform at every
// level a rescale can reach, not just the freshly-encrypted top: deeper in a
// circuit the ciphertext has fewer limbs and its key switches cut fewer
// digits, both of which the hoisted shared-digit path must survive.
func TestLinearTransformHoistedPostRescale(t *testing.T) {
	tc := newTestContext(t, alpha4Params())
	r := rand.New(rand.NewSource(34))
	offsets := []int{0, 1, 2}
	lt := randomSparseLT(r, tc.params.Slots(), offsets)
	tc.kgen.GenRotationKeys(tc.sk, tc.keys, GaloisKeysForLinearTransform(tc.params, lt))

	u := randomComplex(r, tc.params.Slots(), 1)
	want := lt.Apply(u)
	ctTop := tc.encryptVec(t, u)
	for lvl := 1; lvl <= tc.params.MaxLevel(); lvl++ {
		ct := dropTo(tc.eval, ctTop, lvl)
		out, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc)
		if err != nil {
			t.Fatalf("lvl %d: %v", lvl, err)
		}
		if out.Level() != lvl-1 {
			t.Fatalf("lvl %d: output at level %d", lvl, out.Level())
		}
		if e := maxErr(tc.decryptVec(out), want); e > 1e-3 {
			t.Fatalf("lvl %d: hoisted LT error %g", lvl, e)
		}
	}
}

func TestLinearTransformIdentity(t *testing.T) {
	tc := newTestContext(t, TestParameters())
	slots := tc.params.Slots()
	ones := make([]complex128, slots)
	for i := range ones {
		ones[i] = 1
	}
	lt := NewLinearTransform(slots, map[int][]complex128{0: ones})
	r := rand.New(rand.NewSource(33))
	u := randomComplex(r, slots, 1)
	ct := tc.encryptVec(t, u)
	out, err := tc.eval.EvaluateLinearTransform(ct, lt, tc.enc)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(tc.decryptVec(out), u); e > 1e-5 {
		t.Fatalf("identity LT error %g", e)
	}
}

func TestLinearTransformApplyReference(t *testing.T) {
	// Rotation-only transform must equal a plain rotation.
	slots := 8
	ones := make([]complex128, slots)
	for i := range ones {
		ones[i] = 1
	}
	lt := NewLinearTransform(slots, map[int][]complex128{3: ones})
	u := []complex128{0, 1, 2, 3, 4, 5, 6, 7}
	got := lt.Apply(u)
	for j := 0; j < slots; j++ {
		if got[j] != u[(j+3)%slots] {
			t.Fatalf("Apply rotation mismatch at %d", j)
		}
	}
}
