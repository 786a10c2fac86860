// Package rns provides residue-number-system utilities on top of the prime
// chains used by RNS-CKKS: the fast (approximate) basis conversion BConv of
// §II-B, rounding division by the last modulus (rescaling), and the constant
// vectors (P mod q_i, P^{-1} mod q_i) used by ModUp/ModDown key switching.
package rns

import (
	"fmt"
	"sync"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// RowTile is the length of the accumulator scratch ConvertRow takes
// (modarith.ConvertTile): the kernel tables without IFMA keep one tile's
// high words there; the IFMA kernel holds its sums in registers.
const RowTile = modarith.ConvertTile

// BasisConverter performs the fast base conversion of a value represented in
// basis "from" (moduli q_0..q_{k-1}, product Q) into basis "to": for each
// target prime p_j it computes
//
//	out_j = Σ_i [x·(Q/q_i)^{-1}]_{q_i} · (Q/q_i)  mod p_j ,
//
// which equals x + e·Q for some 0 ≤ e < k (the standard approximate BConv;
// the small multiple of Q is absorbed by the noise in CKKS). Computing BConv
// is "mostly equivalent to a matrix-matrix mult between a predefined α×L
// BConv matrix and the L×N input" (§II-B).
//
// The conversion runs in two halves. The premultiply, x_i·(Q/q_i)^{-1} mod
// q_i, is per source row and is done once, in place, by whoever owns the rows
// (QHatInv gives the factors). ConvertRow then forms one target row, and
// ConvertRows a group of them, with modarith's row-conversion kernels: they
// sum the k products pre_i·(Q/q_i) of each coefficient exactly in 128 bits
// and reduce ONCE per output coefficient with the 128-bit Barrett reciprocal
// — no per-term reduction and no hardware division anywhere (see
// modarith/wide.go for the domain contracts; the scalar oracle the tests
// compare against is in ref_test.go). The group kernel reads each source word
// once for up to modarith.ConvertGroup targets, the matrix–matrix form of
// §II-B, where a row at a time streams the k sources once per target. A
// target row depends only on the premultiplied rows, so a caller converting
// limb by limb (the key switch's pipelined ModUp and ModDown) forms a group of
// limbs' rows at the group's first limb, and each row lives until its own
// limb's chain has consumed it.
type BasisConverter struct {
	From []modarith.Modulus
	To   []modarith.Modulus

	qHatInv   []uint64           // [ (Q/q_i)^{-1} ]_{q_i}
	qHatModTo [][]uint64         // qHatModTo[j][i] = (Q/q_i) mod p_j
	rows      []modarith.ConvRow // qHatModTo[j] as the kernel's row j

	// foldEvery bounds the number of b1×b2-bit products a 128-bit
	// accumulator absorbs before the kernel must fold it to [0, 2p_j):
	// 2^(128-b1-b2) products of b1-bit by b2-bit factors always fit. At the
	// 61-bit modulus ceiling that is 64 terms; for the 45–55-bit primes of
	// real parameter sets it is ≥ 2^33, so the fold never fires in practice.
	foldEvery int
}

// NewBasisConverter precomputes the conversion constants.
func NewBasisConverter(from, to []modarith.Modulus) (*BasisConverter, error) {
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("rns: empty basis")
	}
	k := len(from)
	bc := &BasisConverter{
		From:      from,
		To:        to,
		qHatInv:   make([]uint64, k),
		qHatModTo: make([][]uint64, len(to)),
	}
	for i, qi := range from {
		// Q/q_i mod q_i = prod of the other primes mod q_i.
		prod := uint64(1)
		for l, ql := range from {
			if l != i {
				prod = qi.Mul(prod, ql.Q%qi.Q)
			}
		}
		inv, err := qi.Inv(prod)
		if err != nil {
			return nil, fmt.Errorf("rns: duplicate primes in basis (q_%d)", i)
		}
		bc.qHatInv[i] = inv
	}
	for j, pj := range to {
		row := make([]uint64, k)
		for i := range from {
			prod := uint64(1)
			for l, ql := range from {
				if l != i {
					prod = pj.Mul(prod, ql.Q%pj.Q)
				}
			}
			row[i] = prod
		}
		bc.qHatModTo[j] = row
	}
	bc.rows = convRows(from, bc.qHatModTo)
	maxBits := func(ms []modarith.Modulus) int {
		b := 0
		for _, m := range ms {
			if m.Bits > b {
				b = m.Bits
			}
		}
		return b
	}
	if shift := 128 - maxBits(from) - maxBits(to); shift >= 31 {
		bc.foldEvery = 1 << 31 // effectively unbounded: k ≤ limb count ≪ 2^31
	} else {
		bc.foldEvery = 1 << shift
	}
	return bc, nil
}

// Scaled returns a converter over the same bases whose output row j comes out
// multiplied by s[j] (reduced mod p_j): the factor is folded into the
// (Q/q_i) mod p_j constants, so the conversion costs what Convert costs and
// its residues are exactly those of Convert followed by a per-row scalar
// multiply. The premultiply factors are the plain converter's.
func (bc *BasisConverter) Scaled(s []uint64) *BasisConverter {
	out := &BasisConverter{
		From:      bc.From,
		To:        bc.To,
		qHatInv:   bc.qHatInv,
		qHatModTo: make([][]uint64, len(bc.To)),
		foldEvery: bc.foldEvery,
	}
	for j, pj := range bc.To {
		row := make([]uint64, len(bc.From))
		for i, h := range bc.qHatModTo[j] {
			row[i] = pj.Mul(h, s[j])
		}
		out.qHatModTo[j] = row
	}
	out.rows = convRows(bc.From, out.qHatModTo)
	return out
}

// convRows classifies the terms of every target row once, for the kernel.
func convRows(from []modarith.Modulus, hat [][]uint64) []modarith.ConvRow {
	rows := make([]modarith.ConvRow, len(hat))
	for j, w := range hat {
		rows[j] = modarith.NewConvRow(from, w)
	}
	return rows
}

// QHatInv returns the premultiply factors [(Q/q_i)^{-1}]_{q_i}, one per
// source row: ConvertRow expects source row i multiplied by the i-th
// (Modulus.VecMulShoup, or ring's MulByLimbScalars). Callers must not modify
// the slice.
func (bc *BasisConverter) QHatInv() []uint64 { return bc.qHatInv }

// checkShape validates in/out against the converter bases: all rows of in
// (len(From) of them) and out (len(To)) must have equal length, or it
// panics.
func (bc *BasisConverter) checkShape(out, in [][]uint64) int {
	if len(in) != len(bc.From) || len(out) != len(bc.To) {
		panic(fmt.Sprintf("rns: Convert shape mismatch: in %d/%d, out %d/%d",
			len(in), len(bc.From), len(out), len(bc.To)))
	}
	n := len(in[0])
	for i, row := range in {
		if len(row) != n {
			panic(fmt.Sprintf("rns: Convert input row %d has length %d, want %d", i, len(row), n))
		}
	}
	for j, row := range out {
		if len(row) != n {
			panic(fmt.Sprintf("rns: Convert output row %d has length %d, want %d", j, len(row), n))
		}
	}
	return n
}

// Convert converts coefficient-domain residue rows in (len(From) rows of
// equal length) into out (len(To) rows), producing exact residues in
// [0, p_j). It walks RowTile-wide column tiles: it premultiplies a tile of
// every source row into scratch, then converts that tile onto every target
// (ConvertRows). out must not alias in.
func (bc *BasisConverter) Convert(out, in [][]uint64) {
	n := bc.checkShape(out, in)
	k := len(in)
	scratch := make([]uint64, (k+1)*RowTile)
	pre, hi := make([][]uint64, k), scratch[k*RowTile:]
	tile, js := make([][]uint64, len(out)), make([]int, len(out))
	for j := range js {
		js[j] = j
	}
	for c0 := 0; c0 < n; c0 += RowTile {
		c1 := min(c0+RowTile, n)
		for i, qi := range bc.From {
			pre[i] = scratch[i*RowTile:][:c1-c0]
			w := bc.qHatInv[i]
			qi.VecMulShoup(pre[i], in[i][c0:c1], w, qi.ShoupPrecomp(w))
		}
		for j := range tile {
			tile[j] = out[j][c0:c1]
		}
		bc.ConvertRows(tile, pre, js, false, hi)
	}
}

// ConvertRow sets out to target row j of the conversion of pre, the source
// rows already multiplied by their QHatInv factors: exact residues in
// [0, p_j), or with lazy in [0, 2p_j) (one conditional subtraction fewer per
// coefficient, which a lazy forward NTT accepts directly). hi is accumulator
// scratch of at least min(len(out), RowTile) words. Every pre row must be at
// least len(out) long; out must alias neither them nor hi. Only pre and the
// constants are read, so concurrent calls for different rows may share pre.
func (bc *BasisConverter) ConvertRow(out []uint64, pre [][]uint64, j int, lazy bool, hi []uint64) {
	if len(pre) != len(bc.From) {
		panic(fmt.Sprintf("rns: ConvertRow has %d source rows, want %d", len(pre), len(bc.From)))
	}
	bc.To[j].VecConvertRow(out, pre, &bc.rows[j], bc.foldEvery, lazy, hi)
}

// ConvertRows sets outs[t] to target row js[t] of the conversion of pre, for
// every t: the words ConvertRow sets, formed with one pass over pre per
// modarith.ConvertGroup targets (modarith.VecConvertRows). js may list any
// targets in any order — a ModUp skips a digit's own limbs — and the outs,
// of one length, alias neither pre, hi nor each other.
func (bc *BasisConverter) ConvertRows(outs, pre [][]uint64, js []int, lazy bool, hi []uint64) {
	if len(pre) != len(bc.From) {
		panic(fmt.Sprintf("rns: ConvertRows has %d source rows, want %d", len(pre), len(bc.From)))
	}
	modarith.VecConvertRows(outs, bc.To, bc.rows, js, pre, bc.foldEvery, lazy, hi)
}

// Rescaler precomputes the per-limb constants of DivRoundByLastModulus for a
// fixed modulus chain, so the hot rescale path runs the vectorized row
// kernel with no per-call inversions or allocations. It is bound to the
// chain moduli[0..L] and drops moduli[L].
type Rescaler struct {
	moduli  []modarith.Modulus
	half    uint64   // q_L / 2
	inv     []uint64 // q_L^{-1} mod q_i, i < L
	invS    []uint64 // Shoup companions
	halfMod []uint64 // (q_L/2) mod q_i

	tPool sync.Pool // *[]uint64 scratch for the [x + q_L/2]_{q_L} row
}

// NewRescaler precomputes rescale constants for dropping the last modulus of
// the chain. The chain needs at least two limbs and distinct primes.
func NewRescaler(moduli []modarith.Modulus) *Rescaler {
	l := len(moduli) - 1
	if l < 1 {
		panic("rns: cannot rescale a single-limb value")
	}
	qL := moduli[l]
	rs := &Rescaler{
		moduli:  moduli,
		half:    qL.QHalf,
		inv:     make([]uint64, l),
		invS:    make([]uint64, l),
		halfMod: make([]uint64, l),
	}
	for i := 0; i < l; i++ {
		qi := moduli[i]
		rs.inv[i] = qi.MustInv(qL.Q % qi.Q)
		rs.invS[i] = qi.ShoupPrecomp(rs.inv[i])
		rs.halfMod[i] = rs.half % qi.Q
	}
	return rs
}

// DivRoundByLastModulus computes the rounding division of a coefficient-
// domain RNS value by its last modulus q_L and drops that limb:
//
//	out_i = [ (x + q_L/2 − [x + q_L/2]_{q_L}) / q_L ]_{q_i} ,  i < L,
//
// i.e. out = round(x / q_L) exactly, limb-wise. rows carries the same number
// of limbs as the Rescaler's chain, all of equal length; the first L rows
// are updated in place and the last row becomes dead.
func (rs *Rescaler) DivRoundByLastModulus(rows [][]uint64) {
	l := len(rows) - 1
	if l != len(rs.moduli)-1 {
		panic(fmt.Sprintf("rns: DivRoundByLastModulus limb mismatch: rows %d, chain %d",
			len(rows), len(rs.moduli)))
	}
	n := len(rows[l])
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("rns: DivRoundByLastModulus row %d has length %d, want %d", i, len(row), n))
		}
	}
	var t []uint64
	if v := rs.tPool.Get(); v != nil {
		t = (*(v.(*[]uint64)))[:0]
	}
	if cap(t) < n {
		t = make([]uint64, n)
	}
	t = t[:n]
	// t = [x + q_L/2]_{q_L}
	rs.moduli[l].VecAddScalar(t, rows[l], rs.half)
	for i := 0; i < l; i++ {
		rs.moduli[i].VecRescaleStep(rows[i], t, rs.halfMod[i], rs.inv[i], rs.invS[i])
	}
	rs.tPool.Put(&t)
}

// NTT-domain rescaling, for callers whose value is in NTT form and should
// stay there (ckks.Rescale and the merged key-switch tail). Only the last row
// has to leave the NTT domain:
// with t = [x_L + q_L/2]_{q_L} the update above reads
//
//	out_i = (x_i − w_i) · q_L^{-1} ,  w_i = [t − q_L/2]_{q_i} ,
//
// and the NTT is linear, so NTT(out_i) = (NTT(x_i) − NTT(w_i)) · q_L^{-1}
// mod q_i — the same residues, hence the same bytes, as transforming out_i.

// LastRowPlusHalf fills t with [x + q_L/2]_{q_L} from the chain's last row
// (coefficient domain).
func (rs *Rescaler) LastRowPlusHalf(t, last []uint64) {
	rs.moduli[len(rs.moduli)-1].VecAddScalar(t, last, rs.half)
}

// CorrectionRow sets row ← s·(w_i − row), w_i = [t − q_L/2]_{q_i}, i < L,
// for a scalar 0 < s < q_i: the rescale step kernel run with the scalar −s.
// row must be exact on entry. A zeroed row and s = 1 give w_i itself
// (Rescale); a row holding −y·s⁻¹ gives y + s·w_i, which is how the merged
// ModDown-and-rescale tail folds its converted row in.
func (rs *Rescaler) CorrectionRow(i int, row, t []uint64, s uint64) {
	m := rs.moduli[i]
	w := m.Q - s
	m.VecRescaleStep(row, t, rs.halfMod[i], w, m.ShoupPrecomp(w))
}

// LastModulusInv returns q_L^{-1} mod q_i for i < L. Callers must not modify
// it.
func (rs *Rescaler) LastModulusInv() []uint64 { return rs.inv }

// ProductMod returns (∏ primes) mod each modulus of target.
func ProductMod(primes []modarith.Modulus, target []modarith.Modulus) []uint64 {
	out := make([]uint64, len(target))
	for j, tj := range target {
		prod := uint64(1)
		for _, p := range primes {
			prod = tj.Mul(prod, p.Q%tj.Q)
		}
		out[j] = prod
	}
	return out
}

// ProductInvMod returns (∏ primes)^{-1} mod each modulus of target. The
// product must be invertible (distinct primes).
func ProductInvMod(primes []modarith.Modulus, target []modarith.Modulus) []uint64 {
	out := ProductMod(primes, target)
	for j, tj := range target {
		out[j] = tj.MustInv(out[j])
	}
	return out
}
