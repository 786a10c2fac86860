package ring

import (
	"fmt"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
)

// ringOpCase is one exported Ring limb op: how to call it, the per-limb
// reference it must equal, the row streams it charges and the transforms it
// counts per limb.
type ringOpCase struct {
	name      string
	inNTT     bool // domain of the inputs
	lazyOut   bool // out starts lazy, in [0, 2q)
	rows      int
	ntt, intt int
	run       func(r *Ring, out, a, b *Poly, s []uint64, level int)
	ref       func(m modarith.Modulus, tbl *ntt.Tables, out, a, b []uint64, s uint64)
}

func ringOpCases(g uint64, idx []uint32) []ringOpCase {
	return []ringOpCase{
		{name: "Add", rows: 3,
			run: func(r *Ring, out, a, b *Poly, _ []uint64, l int) { r.Add(out, a, b, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, b []uint64, _ uint64) { m.VecAdd(out, a, b) }},
		{name: "Sub", inNTT: true, rows: 3,
			run: func(r *Ring, out, a, b *Poly, _ []uint64, l int) { r.Sub(out, a, b, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, b []uint64, _ uint64) { m.VecSub(out, a, b) }},
		{name: "Neg", rows: 2,
			run: func(r *Ring, out, a, _ *Poly, _ []uint64, l int) { r.Neg(out, a, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, _ uint64) {
				for j := range out {
					out[j] = m.Neg(a[j])
				}
			}},
		{name: "MulCoeffs", inNTT: true, rows: 3,
			run: func(r *Ring, out, a, b *Poly, _ []uint64, l int) { r.MulCoeffs(out, a, b, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, b []uint64, _ uint64) { m.VecMulBarrett(out, a, b) }},
		{name: "MulCoeffsAdd", inNTT: true, rows: 4,
			run: func(r *Ring, out, a, b *Poly, _ []uint64, l int) { r.MulCoeffsAdd(out, a, b, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, b []uint64, _ uint64) { m.VecMulAddBarrett(out, a, b) }},
		{name: "MulByLimbScalars", rows: 2,
			run: func(r *Ring, out, a, _ *Poly, s []uint64, l int) { r.MulByLimbScalars(out, a, s, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, s uint64) {
				m.VecMulShoup(out, a, s, m.ShoupPrecomp(s))
			}},
		{name: "MulByLimbScalarsAddLazy", inNTT: true, rows: 3,
			run: func(r *Ring, out, a, _ *Poly, s []uint64, l int) { r.MulByLimbScalarsAddLazy(out, a, s, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, s uint64) {
				m.VecMulShoupAddLazy(out, a, s, m.ShoupPrecomp(s))
			}},
		{name: "AddLimbScalars/ntt", inNTT: true, rows: 2,
			run: func(r *Ring, out, a, _ *Poly, s []uint64, l int) { r.AddLimbScalars(out, a, s, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, s uint64) { m.VecAddScalar(out, a, s) }},
		{name: "AddLimbScalars/coeff", rows: 2,
			run: func(r *Ring, out, a, _ *Poly, s []uint64, l int) { r.AddLimbScalars(out, a, s, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, s uint64) {
				copy(out, a)
				out[0] = m.Add(a[0], s)
			}},
		{name: "ReduceLazy", lazyOut: true, rows: 2,
			run: func(r *Ring, out, _, _ *Poly, _ []uint64, l int) { r.ReduceLazy(out, l) },
			ref: func(m modarith.Modulus, _ *ntt.Tables, out, _, _ []uint64, _ uint64) { m.VecReduceTwoQ(out) }},
		{name: "NTT", rows: 2, ntt: 1,
			run: func(r *Ring, out, a, _ *Poly, _ []uint64, l int) { out.Copy(a); r.NTT(out, l) },
			ref: func(_ modarith.Modulus, tbl *ntt.Tables, out, a, _ []uint64, _ uint64) {
				copy(out, a)
				tbl.Forward(out)
			}},
		{name: "INTT", inNTT: true, rows: 2, intt: 1,
			run: func(r *Ring, out, a, _ *Poly, _ []uint64, l int) { out.Copy(a); r.INTT(out, l) },
			ref: func(_ modarith.Modulus, tbl *ntt.Tables, out, a, _ []uint64, _ uint64) {
				copy(out, a)
				tbl.Inverse(out)
			}},
		{name: "AutomorphismNTT", inNTT: true, rows: 2,
			run: func(r *Ring, out, a, _ *Poly, _ []uint64, l int) { r.AutomorphismNTT(out, a, g, l) },
			ref: func(_ modarith.Modulus, _ *ntt.Tables, out, a, _ []uint64, _ uint64) {
				for j, k := range idx {
					out[j] = a[k]
				}
			}},
	}
}

// TestRingOpsOnePipeline holds every exported Ring limb op — a one-stage
// chain on the limb pipeline — at limb counts on both sides of the parallel
// threshold, pool widths 1, 2 and 4 and every kernel table to four things:
// its bytes equal a per-limb loop over the modarith row kernels;
// ring_bytes_moved_total grows by the rows the op streams (3 for Add, Sub and
// MulCoeffs, 4 for MulCoeffsAdd, 3 for the lazy scalar MAC, 2 for the rest —
// what the op charged as a whole-polynomial sweep of its own);
// ring_bytes_saved_total does not move; and the transform counters grow by
// the limb count per transform. Under -race it also watches the parallel
// Run branch's limb chunks.
func TestRingOpsOnePipeline(t *testing.T) {
	for _, k := range modarith.KernelTables() {
		for _, limbs := range []int{1, 2, 7, 8, 16} {
			for _, workers := range []int{1, 2, 4} {
				r := newTestRingAt(t, 6, limbs, k, workers)
				ringOpsOnePipeline(t, fmt.Sprintf("%s/limbs=%d/workers=%d", k, limbs, workers), r)
			}
		}
	}
}

func ringOpsOnePipeline(t *testing.T, label string, r *Ring) {
	level := r.MaxLevel()
	limbs := level + 1
	s := testStream(int64(7*limbs + 1))
	scalars := make([]uint64, limbs)
	for i := range scalars {
		scalars[i] = uint64(11*i+3) % r.Moduli[i].Q
	}
	g := r.GaloisElement(5)
	rowBytes := float64(limbs * r.N * 8)
	for _, c := range ringOpCases(g, nttAutoIndex(r.LogN, g)) {
		a, b := s.UniformPoly(r, level, c.inNTT), s.UniformPoly(r, level, c.inNTT)
		out := s.UniformPoly(r, level, c.inNTT)
		if c.lazyOut {
			for i, row := range out.Coeffs {
				for j := 0; j < len(row); j += 2 {
					row[j] += r.Moduli[i].Q
				}
			}
		}
		want := out.CopyNew()
		for i := 0; i < limbs; i++ {
			c.ref(r.Moduli[i], r.Tables[i], want.Coeffs[i], a.Coeffs[i], b.Coeffs[i], scalars[i])
		}
		want.IsNTT = c.inNTT && c.intt == 0 || c.ntt > 0

		ntt0, intt0 := r.Counters()
		moved0, saved0 := bytesMoved.Value(), bytesSaved.Value()
		c.run(r, out, a, b, scalars, level)
		ntt1, intt1 := r.Counters()
		moved, saved := bytesMoved.Value()-moved0, bytesSaved.Value()-saved0

		if !out.Equal(want) {
			t.Fatalf("%s %s: result != per-limb row-kernel loop", label, c.name)
		}
		if moved != float64(c.rows)*rowBytes {
			t.Fatalf("%s %s: moved %v rows, want %d", label, c.name, moved/rowBytes, c.rows)
		}
		if saved != 0 {
			t.Fatalf("%s %s: saved %v rows, want 0", label, c.name, saved/rowBytes)
		}
		if ntt1-ntt0 != int64(c.ntt*limbs) || intt1-intt0 != int64(c.intt*limbs) {
			t.Fatalf("%s %s: transforms (%d, %d), want (%d, %d)", label, c.name,
				ntt1-ntt0, intt1-intt0, c.ntt*limbs, c.intt*limbs)
		}
	}
}
