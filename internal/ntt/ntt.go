// Package ntt implements the negacyclic number-theoretic transform over
// Z_q[X]/(X^N+1) for power-of-two N and NTT-friendly primes q ≡ 1 (mod 2N).
//
// The forward transform maps a coefficient vector (natural order) to its
// evaluations at the primitive 2N-th roots of unity ψ^(2·brv(i)+1), i.e. the
// output is in "bit-reversed evaluation order", the conventional layout that
// makes both butterflies access contiguous memory (Longa–Naehrig). The
// inverse transform undoes it exactly, including the 1/N scaling, which is
// premultiplied into the last inverse stage's twiddles instead of running as
// a separate pass.
//
// # Lazy reduction (Harvey butterflies)
//
// The butterflies keep coefficients in the lazy domain rather than reducing
// to [0, q) at every step (Harvey, "Faster arithmetic for number-theoretic
// transforms"; the same trick Cheddar uses on GPU and Lattigo in Go):
//
//   - forward (CT): inputs < 4q; x is conditionally reduced to [0, 2q), the
//     twiddle product w·y lands in [0, 2q) via MulShoupLazy for any y, and
//     x±w·y re-enter the [0, 4q) invariant. One conditional subtraction per
//     butterfly instead of three exact reductions.
//   - inverse (GS): values stay in [0, 2q): x+y is conditionally reduced,
//     and (x-y+2q)·w lands back in [0, 2q) via MulShoupLazy.
//
// Both require only q < 2^62; modarith guarantees q < 2^61. Exact reduction
// happens once, folded into the final stage. ForwardLazy skips even that,
// producing [0, 2q) outputs for the chains that tolerate lazy operands (the
// key switch's ModUp digits and ModDown conversions).
//
// Domains: Forward/Inverse accept [0, 2q) and produce [0, q); ForwardLazy
// accepts [0, 2q) and produces [0, 2q).
package ntt

import (
	"fmt"
	"math/bits"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// Tables holds per-(q, N) precomputed twiddle factors.
type Tables struct {
	N    int
	LogN int
	Mod  modarith.Modulus

	Psi uint64 // primitive 2N-th root of unity mod q

	// psiRev[i] = ψ^brv(i), bit-reversed over logN bits; Shoup companions
	// alongside. They are the only twiddle rows, 2N words: the inverse
	// stages read them too. On stage block [m, 2m), brv(j) + brv(3m−1−j) = N,
	// so ψ^(−brv(j)) = −ψ^brv(3m−1−j) — the inverse twiddle is the forward
	// block mirrored and negated, q − psiRev[3m−1−j], and its companion the
	// complement ^psiRevShoup[3m−1−j] (modarith.VecInvStage).
	psiRev      []uint64
	psiRevShoup []uint64

	nInv      uint64 // N^{-1} mod q
	nInvShoup uint64

	// Last-inverse-stage twiddle with the 1/N scaling premultiplied:
	// ψ^(−N/2)·N^{-1} = (q − psiRev[1])·N^{-1}. Together with nInv it folds
	// the scaling pass into the final Gentleman–Sande stage.
	wLastNInv      uint64
	wLastNInvShoup uint64
}

// NewTables builds twiddle tables for N = 2^logN and modulus q.
func NewTables(mod modarith.Modulus, logN int) (*Tables, error) {
	if logN < 1 || logN > 17 {
		return nil, fmt.Errorf("ntt: logN=%d out of range [1,17]", logN)
	}
	n := 1 << uint(logN)
	psi, err := mod.PrimitiveNthRoot(uint64(2 * n))
	if err != nil {
		return nil, fmt.Errorf("ntt: modulus %d: %w", mod.Q, err)
	}
	t := &Tables{
		N:           n,
		LogN:        logN,
		Mod:         mod,
		Psi:         psi,
		psiRev:      make([]uint64, n),
		psiRevShoup: make([]uint64, n),
	}
	w := uint64(1)
	for i := 0; i < n; i++ {
		r := reverseBits(uint64(i), logN)
		t.psiRev[r] = w
		t.psiRevShoup[r] = mod.ShoupPrecomp(w)
		w = mod.Mul(w, psi)
	}
	t.nInv = mod.MustInv(uint64(n))
	t.nInvShoup = mod.ShoupPrecomp(t.nInv)
	t.wLastNInv = mod.Mul(mod.Q-t.psiRev[1], t.nInv)
	t.wLastNInvShoup = mod.ShoupPrecomp(t.wLastNInv)
	return t, nil
}

func reverseBits(x uint64, n int) uint64 {
	return bits.Reverse64(x) >> uint(64-n)
}

func (t *Tables) checkLen(a []uint64, op string) {
	if len(a) != t.N {
		panic(fmt.Sprintf("ntt: %s on slice of length %d, want %d", op, len(a), t.N))
	}
}

// Forward transforms a (length N, coefficients < 2q, natural order) in place
// into bit-reversed NTT form with exact [0, q) outputs.
func (t *Tables) Forward(a []uint64) {
	t.checkLen(a, "Forward")
	t.forward(a, false)
}

// ForwardLazy is Forward with lazy outputs in [0, 2q); the exit reduction is
// skipped so fused MAC chains can consume the result directly.
func (t *Tables) ForwardLazy(a []uint64) {
	t.checkLen(a, "ForwardLazy")
	t.forward(a, true)
}

// Inverse transforms a (bit-reversed NTT form, coefficients < 2q) in place
// back to natural-order coefficients in [0, q), including the 1/N scaling
// (fused into the last stage).
func (t *Tables) Inverse(a []uint64) {
	t.checkLen(a, "Inverse")
	t.inverse(a, false)
}

func (t *Tables) forward(a []uint64, lazy bool) {
	for m := 1; m < t.N; m <<= 1 {
		t.fwdStage(a, m, lazy)
	}
}

func (t *Tables) inverse(a []uint64, lazy bool) {
	for m := t.N >> 1; m > 1; m >>= 1 {
		t.invStage(a, m)
	}
	t.invStageFinal(a, lazy)
}

// fwdStage applies forward stage m (m twiddle blocks of span N/(2m)) as one
// call of the dispatched stage kernel (modarith.VecFwdStage: pure Go or
// AVX-512 depending on the table t.Mod carries, at every span). The span=1 final
// stage folds the exit reduction in, emitting [0, q) (exact) or [0, 2q)
// (lazy); all other stages keep the [0, 4q) butterfly invariant.
func (t *Tables) fwdStage(a []uint64, m int, lazy bool) {
	span := t.N / (2 * m)
	t.Mod.VecFwdStage(a, t.psiRev[m:2*m], t.psiRevShoup[m:2*m], span, lazy)
}

// invStage applies inverse stage m (span N/(2m), m ≥ 2) as one call of
// modarith.VecInvStage on forward block m, which the kernel reads mirrored
// and negated, maintaining the [0, 2q) invariant.
func (t *Tables) invStage(a []uint64, m int) {
	span := t.N / (2 * m)
	t.Mod.VecInvStage(a, t.psiRev[m:2*m], t.psiRevShoup[m:2*m], span)
}

// invStageFinal runs the last inverse stage (m = 1, span = N/2) with the 1/N
// scaling fused into both butterfly outputs (modarith.VecInvFinal).
func (t *Tables) invStageFinal(a []uint64, lazy bool) {
	span := t.N >> 1
	t.Mod.VecInvFinal(a[:span], a[span:], t.nInv, t.nInvShoup, t.wLastNInv, t.wLastNInvShoup, lazy)
}
