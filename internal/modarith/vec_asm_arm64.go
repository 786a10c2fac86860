//go:build arm64 && !noasm

package modarith

// arm64 assembly tier. Scalar kernels need no lane alignment, so the
// wrappers only guard the empty case; there is no tail split. Advanced SIMD
// is architecturally mandatory on AArch64 — the tier is always available and
// needs no feature detection. The Barrett-quotient family, mulAccWideIdx,
// rescaleStep and invFinal stay on the per-kernel Go fallback (vec_arm64.s
// explains why).

//go:noescape
func vecMulShoupNEON(out, a []uint64, w, wShoup, q uint64)

//go:noescape
func vecSubMulShoupLazyNEON(out, a, b []uint64, w, wShoup, q, twoQ uint64)

//go:noescape
func vecMulWideNEON(accHi, accLo, row []uint64, w uint64)

//go:noescape
func vecMulAccWideNEON(accHi, accLo, row []uint64, w uint64)

//go:noescape
func vecReduceTwoQNEON(p []uint64, q uint64)

//go:noescape
func vecFwdButterflyNEON(x, y []uint64, w, wShoup, q, twoQ uint64)

//go:noescape
func vecInvButterflyNEON(x, y []uint64, w, wShoup, q, twoQ uint64)

func asmKernelTables() map[KernelTier]kernelTable {
	return map[KernelTier]kernelTable{
		TierNEON: {
			tier: TierNEON,
			mulShoup: func(m Modulus, out, a []uint64, w, wShoup uint64) {
				if len(a) > 0 {
					vecMulShoupNEON(out[:len(a)], a, w, wShoup, m.Q)
				}
			},
			subMulShoupLazy: func(m Modulus, out, a, b []uint64, w, wShoup uint64) {
				if len(a) > 0 {
					vecSubMulShoupLazyNEON(out[:len(a)], a, b[:len(a)], w, wShoup, m.Q, m.TwoQ)
				}
			},
			mulWide: func(accHi, accLo, row []uint64, w uint64) {
				if len(row) > 0 {
					vecMulWideNEON(accHi[:len(row)], accLo[:len(row)], row, w)
				}
			},
			mulAccWide: func(accHi, accLo, row []uint64, w uint64) {
				if len(row) > 0 {
					vecMulAccWideNEON(accHi[:len(row)], accLo[:len(row)], row, w)
				}
			},
			reduceTwoQ: func(m Modulus, p []uint64) {
				if len(p) > 0 {
					vecReduceTwoQNEON(p, m.Q)
				}
			},
			// The stage kernels loop the per-block assembly; blocks shorter
			// than 4 butterflies (and the forward exit-reducing span 1)
			// would pay a call per one or two butterflies, so they stay on
			// the Go kernel.
			fwdStage: func(m Modulus, a, psi, psiShoup []uint64, span, cnt int, lazy bool) {
				if span < 4 {
					vecFwdStageGo(m, a, psi, psiShoup, span, cnt, lazy)
					return
				}
				for i, w := range psi {
					j := 2 * i * span
					vecFwdButterflyNEON(a[j:j+cnt], a[j+span:j+span+cnt], w, psiShoup[i], m.Q, m.TwoQ)
				}
			},
			invStage: func(m Modulus, a, psi, psiShoup []uint64, span, cnt int) {
				if span < 4 {
					vecInvStageGo(m, a, psi, psiShoup, span, cnt)
					return
				}
				for i, w := range psi {
					j := 2 * i * span
					vecInvButterflyNEON(a[j:j+cnt], a[j+span:j+span+cnt], w, psiShoup[i], m.Q, m.TwoQ)
				}
			},
		},
	}
}
