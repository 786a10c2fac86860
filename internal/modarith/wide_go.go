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

func vecMulAccWideIdxGo(accHi, accLo, a, b []uint64, idx []uint32) {
	_ = accHi[len(idx)-1]
	_ = accLo[len(idx)-1]
	_ = b[len(idx)-1]
	for j, k := range idx {
		phi, plo := bits.Mul64(a[k], b[j])
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
