package modarith

import "math/bits"

// Pure-Go wide-accumulation row kernels: oracle + fallback for the assembly
// tiers, same contract as vec_go.go (bit-identical outputs required).

func vecMulWideGo(accHi, accLo, row []uint64, w uint64) {
	_ = accHi[len(row)-1]
	_ = accLo[len(row)-1]
	for j, a := range row {
		accHi[j], accLo[j] = bits.Mul64(a, w)
	}
}

func vecMulAccWideGo(accHi, accLo, row []uint64, w uint64) {
	_ = accHi[len(row)-1]
	_ = accLo[len(row)-1]
	for j, a := range row {
		phi, plo := bits.Mul64(a, w)
		lo, carry := bits.Add64(accLo[j], plo, 0)
		accLo[j] = lo
		accHi[j] += phi + carry
	}
}

func vecFoldWide128LazyGo(m Modulus, accHi, accLo []uint64) {
	_ = accHi[len(accLo)-1]
	for j := range accLo {
		accLo[j] = m.ReduceWide128Lazy(accHi[j], accLo[j])
		accHi[j] = 0
	}
}

func vecReduceWide128Go(m Modulus, dst, accHi, accLo []uint64) {
	q, twoQ, u0, u1 := m.Q, m.TwoQ, m.BRedHi, m.BRedLo
	_ = accHi[len(dst)-1]
	_ = accLo[len(dst)-1]
	for j := range dst {
		hi, lo := accHi[j], accLo[j]
		t := hi * u0
		hhi, _ := bits.Mul64(lo, u0)
		t += hhi
		hhi, _ = bits.Mul64(hi, u1)
		t += hhi
		r := lo - t*q
		if r >= twoQ {
			r -= twoQ
		}
		if r >= q {
			r -= q
		}
		dst[j] = r
	}
}

func vecReduceWide128LazyGo(m Modulus, dst, accHi, accLo []uint64) {
	q, twoQ, u0, u1 := m.Q, m.TwoQ, m.BRedHi, m.BRedLo
	_ = accHi[len(dst)-1]
	_ = accLo[len(dst)-1]
	for j := range dst {
		hi, lo := accHi[j], accLo[j]
		t := hi * u0
		hhi, _ := bits.Mul64(lo, u0)
		t += hhi
		hhi, _ = bits.Mul64(hi, u1)
		t += hhi
		r := lo - t*q
		if r >= twoQ {
			r -= twoQ
		}
		dst[j] = r
	}
}

// vecDotLazyGo sums the products a block of coefficients at a time, so each
// operand row is read in contiguous runs and the (hi, lo) pairs stay in L1.
func vecDotLazyGo(m Modulus, out []uint64, a, b [][]uint64, accumulate bool) {
	const block = 64
	var hi, lo [block]uint64
	b = b[:len(a)]
	for j0 := 0; j0 < len(out); j0 += block {
		o := out[j0:min(j0+block, len(out))]
		h, l := hi[:len(o)], lo[:len(o)]
		clear(h)
		if accumulate {
			copy(l, o)
		} else {
			clear(l)
		}
		for k, ak := range a {
			ak, bk := ak[j0:][:len(o)], b[k][j0:][:len(o)]
			for j, x := range ak {
				phi, plo := bits.Mul64(x, bk[j])
				s, carry := bits.Add64(l[j], plo, 0)
				l[j] = s
				h[j] += phi + carry
			}
		}
		for j := range o {
			o[j] = m.ReduceWide128Lazy(h[j], l[j])
		}
	}
}

// vecDotKeyLazyGo is the two dots of VecDotKeyLazy, one after the other.
func vecDotKeyLazyGo(m Modulus, outB, outA []uint64, a, b, u [][]uint64, accB, accA bool) {
	vecDotLazyGo(m, outB, a, b, accB)
	vecDotLazyGo(m, outA[:len(outB)], a, u, accA)
}

// convertRowTiles is the row conversion on t's 128-bit accumulator kernels,
// ConvertTile coefficients at a time: out = rows[·][off:off+len(out)]
// converted through c. It is the Go table's entry, the oracle every other is
// held to, and the AVX-512 table's without IFMA, on the MUL128x8 kernels.
func convertRowTiles(t *kernelTable, m Modulus, out []uint64, rows [][]uint64, off int, c *ConvRow, fold int, lazy bool, hi []uint64) {
	for c0 := 0; c0 < len(out); c0 += ConvertTile {
		c1 := min(c0+ConvertTile, len(out))
		h, lo := hi[:c1-c0], out[c0:c1]
		t.mulWide(h, lo, rows[0][off+c0:off+c1], c.terms[0].w)
		terms := 1
		for k := 1; k < len(rows); k++ {
			if terms == fold {
				t.foldWide128Lazy(m, h, lo)
				terms = 1 // folded residue < 2q re-enters as one term
			}
			t.mulAccWide(h, lo, rows[k][off+c0:off+c1], c.terms[k].w)
			terms++
		}
		if lazy {
			t.reduceWide128Lazy(m, lo, h, lo)
		} else {
			t.reduceWide128(m, lo, h, lo)
		}
	}
}

// convertRowTiled is the tiled conversion as a table entry, from the row's
// first coefficient.
func convertRowTiled(t *kernelTable, m Modulus, out []uint64, rows [][]uint64, c *ConvRow, fold int, lazy bool, hi []uint64) {
	convertRowTiles(t, m, out, rows, 0, c, fold, lazy, hi)
}

// convertRowsLoop is the group conversion as the table's row entry run once
// per target: the Go table's group entry, the oracle, and the AVX-512 table's
// without IFMA.
func convertRowsLoop(t *kernelTable, outs [][]uint64, ms []Modulus, cs []ConvRow, js []int, rows [][]uint64, fold int, lazy bool, hi []uint64) {
	for k, j := range js {
		t.convertRow(t, ms[j], outs[k], rows, &cs[j], fold, lazy, hi)
	}
}
