package ring

import (
	"encoding/binary"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// testStream is the stream of a small integer seed, for tests that want
// reproducible random operands.
func testStream(seed int64) *Stream {
	var k [32]byte
	binary.LittleEndian.PutUint64(k[:], uint64(seed))
	return NewStream(k)
}

// keyRows expands the uniform rows of digit d, half h of key over limbs
// 0..level into a fresh NTT-flagged polynomial.
func keyRows(r *Ring, key *modarith.StreamKey, d, h, level int) *Poly {
	p := r.NewPoly(level)
	for i := 0; i <= level; i++ {
		r.Moduli[i].ExpandUniform(p.Coeffs[i], key, KeyRowTag(d, h, i), 0)
	}
	p.IsNTT = true
	return p
}

func TestStreamIsAFunctionOfItsSeed(t *testing.T) {
	r := newTestRing(t, 6, 3)
	draw := func(seed int64) (*Poly, []int64, []int64) {
		s := testStream(seed)
		return s.UniformPoly(r, 2, true), s.TernaryVector(r.N, 16), s.GaussianVector(r.N, 3.2)
	}
	u0, t0, g0 := draw(1)
	u1, t1, g1 := draw(1)
	if !u0.Equal(u1) || !equalInts(t0, t1) || !equalInts(g0, g1) {
		t.Fatal("one seed gave two streams")
	}
	u2, t2, g2 := draw(2)
	if u0.Equal(u2) || equalInts(t0, t2) || equalInts(g0, g2) {
		t.Fatal("two seeds gave one stream")
	}
	weight := 0
	for _, x := range t0 {
		if x != 0 {
			weight++
		}
	}
	if weight != 16 {
		t.Fatalf("ternary weight %d, want 16", weight)
	}
	for i, row := range u0.Coeffs {
		for _, v := range row {
			if v >= r.Moduli[i].Q {
				t.Fatalf("limb %d: uniform value %d not below q", i, v)
			}
		}
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSubUniformProduct: the key generator's row-at-a-time b = e − a ⊙ s is
// the whole-polynomial composition over the same expanded rows.
func TestSubUniformProduct(t *testing.T) {
	r := newTestRing(t, 9, 4)
	s := testStream(59)
	key := modarith.NewStreamKey([32]byte{9})
	level := r.MaxLevel()
	e, sec := s.UniformPoly(r, level, true), s.UniformPoly(r, level, true)
	a := keyRows(r, key, 2, 1, level)
	want := r.NewPoly(level)
	r.MulCoeffs(want, a, sec, level)
	r.Sub(want, e, want, level)
	got := r.NewPoly(level)
	r.SubUniformProduct(got, e, sec, key, 2, 1, level)
	if !got.Equal(want) || !got.IsNTT {
		t.Fatal("SubUniformProduct differs from e − a⊙s")
	}
}
