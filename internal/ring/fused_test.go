package ring

import (
	"testing"
)

// The fused kernels are exact mod q: every test demands bit-identical
// agreement with the composition of unfused kernels they replace.

func TestMulCoeffsAddLazyMatchesUnfused(t *testing.T) {
	r := newTestRing(t, 6, 10) // above the parallel-limb threshold
	s := NewSampler(11)
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
	s := NewSampler(17)
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

func TestAddManyMatchesAddChain(t *testing.T) {
	r := newTestRing(t, 5, 9)
	s := NewSampler(19)
	level := r.MaxLevel()

	var ins []*Poly
	for k := 0; k < 6; k++ {
		ins = append(ins, s.UniformPoly(r, level, true))
	}

	want := ins[0].CopyNew()
	for _, in := range ins[1:] {
		r.Add(want, want, in, level)
	}

	out := r.NewPoly(level)
	r.AddMany(out, ins, level)
	if !out.Equal(want) {
		t.Fatal("AddMany != chained Add")
	}
	if out.IsNTT != ins[0].IsNTT {
		t.Fatal("AddMany dropped domain flag")
	}

	// Aliasing out with ins[0] is allowed.
	alias := ins[0].CopyNew()
	insAlias := append([]*Poly{alias}, ins[1:]...)
	r.AddMany(alias, insAlias, level)
	if !alias.Equal(want) {
		t.Fatal("AddMany aliased with ins[0] diverged")
	}
}
