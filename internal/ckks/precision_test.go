package ckks

import (
	"math"
	"testing"
)

func TestComputePrecision(t *testing.T) {
	got := []complex128{1.001, 2.0}
	want := []complex128{1.0, 2.0}
	st := ComputePrecision(got, want)
	if st.MaxErr < 0.0009 || st.MaxErr > 0.0011 {
		t.Fatalf("max err %g", st.MaxErr)
	}
	if st.MinBits < 9.9 || st.MinBits > 10.1 {
		t.Fatalf("min bits %g, want ~9.97", st.MinBits)
	}
	if st.String() == "" {
		t.Fatal("empty render")
	}
	if z := ComputePrecision(nil, nil); z.MaxErr != 0 {
		t.Fatal("empty input should be zero stats")
	}
	exact := ComputePrecision(want, want)
	if !math.IsInf(exact.MinBits, 1) {
		t.Fatal("exact match should report infinite bits")
	}
}
