package ring

import (
	"testing"
)

// The fused kernels are exact mod q: every test demands bit-identical
// agreement with the composition of unfused kernels they replace.

func TestMulCoeffsAddLazyMatchesUnfused(t *testing.T) {
	r := newTestRing(t, 6, 10) // above the parallel-limb threshold
	s := testStream(11)
	level := r.MaxLevel()

	acc := s.UniformPoly(r, level, true)
	want := acc.CopyNew()

	fused := acc.CopyNew()
	tmp := r.NewPoly(level)
	for k := 0; k < 7; k++ {
		a := s.UniformPoly(r, level, true)
		b := s.UniformPoly(r, level, true)
		r.MulCoeffsAddLazy(fused, a, b, level)
		r.MulCoeffs(tmp, a, b, level)
		r.Add(want, want, tmp, level)
	}
	r.ReduceLazy(fused, level)
	if !fused.Equal(want) {
		t.Fatal("lazy MAC chain != MulCoeffs+Add composition")
	}
}

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
