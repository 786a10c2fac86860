package rns

import (
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// Reference implementations of the basis-conversion and rescale kernels: the
// straightforward per-coefficient loops (exact reduction after every term,
// division-based Modulus.Mul/Add), an independently-derived oracle for the
// differential tests and the fuzz target.

// ConvertRef is the scalar reference for Convert: identical outputs (exact
// residues in [0, p_j)), one modmul + one modadd per inner-product term.
func (bc *BasisConverter) ConvertRef(out, in [][]uint64) {
	n := bc.checkShape(out, in)
	k := len(bc.From)
	// tmp_i = [x · qHatInv_i]_{q_i}
	tmp := make([][]uint64, k)
	for i := 0; i < k; i++ {
		qi := bc.From[i]
		row := make([]uint64, n)
		src := in[i]
		w := bc.qHatInv[i]
		ws := qi.ShoupPrecomp(w)
		for c := 0; c < n; c++ {
			row[c] = qi.MulShoup(src[c], w, ws)
		}
		tmp[i] = row
	}
	for j := range bc.To {
		pj := bc.To[j]
		dst := out[j]
		hat := bc.qHatModTo[j]
		for c := 0; c < n; c++ {
			acc := uint64(0)
			for i := 0; i < k; i++ {
				acc = pj.Add(acc, pj.Mul(tmp[i][c]%pj.Q, hat[i]))
			}
			dst[c] = acc
		}
	}
}

// DivRoundByLastModulusRef is the scalar reference for the rescale: per-call
// inversion, per-coefficient Modulus.Add/Sub/MulShoup. Identical outputs to
// Rescaler.DivRoundByLastModulus.
func DivRoundByLastModulusRef(moduli []modarith.Modulus, rows [][]uint64) {
	l := len(rows) - 1
	if l < 1 {
		panic("rns: cannot rescale a single-limb value")
	}
	qL := moduli[l]
	half := qL.QHalf
	n := len(rows[0])
	for _, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("rns: DivRoundByLastModulusRef row length %d, want %d", len(row), n))
		}
	}
	// t = [x + q_L/2]_{q_L}
	t := make([]uint64, n)
	for c := 0; c < n; c++ {
		t[c] = qL.Add(rows[l][c], half)
	}
	for i := 0; i < l; i++ {
		qi := moduli[i]
		inv := qi.MustInv(qL.Q % qi.Q)
		invS := qi.ShoupPrecomp(inv)
		halfModQi := half % qi.Q
		row := rows[i]
		for c := 0; c < n; c++ {
			// (x + half) mod q_i  −  t mod q_i, then exact division.
			v := qi.Sub(qi.Add(row[c], halfModQi), t[c]%qi.Q)
			row[c] = qi.MulShoup(v, inv, invS)
		}
	}
}
