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
