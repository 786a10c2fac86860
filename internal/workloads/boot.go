// Package workloads generates the kernel traces of the paper's six
// evaluation workloads (§VII-A): full-slot bootstrapping, HELR logistic
// regression, two-way sorting, RNN inference, ResNet20, and ResNet18-AESPA.
// Each generator composes the CKKS op sequences of internal/trace with the
// workload's published structure (op mix, L schedule, L_eff).
package workloads

import (
	"math"
	"math/bits"

	"github.com/anaheim-sim/anaheim/internal/trace"
)

// BootConfig selects bootstrapping hyper-parameters.
type BootConfig struct {
	FFTIterC2S int // grouped CoeffToSlot matrices
	FFTIterS2C int // grouped SlotToCoeff matrices
	ChebDegree int // EvalMod Chebyshev degree
	DoubleAng  int // double-angle steps
	SlotsLog   int // log2 of packed slots (15 = full-slot)
}

// DefaultBoot is the paper's default: an fftIter mix of three and four
// (§IV-C), full slots.
func DefaultBoot() BootConfig {
	return BootConfig{FFTIterC2S: 4, FFTIterS2C: 3, ChebDegree: 31, DoubleAng: 2, SlotsLog: 15}
}

// limbsPerMult is the double-prime scaling consumption: one multiplicative
// level drops two ~24-bit primes (Δ = 2^48, §VI-A, [1][45]).
const limbsPerMult = 2

// BootLevels returns the multiplicative depth one bootstrap consumes.
func (c BootConfig) BootLevels() int {
	// C2S + conj-split + EvalMod (chebyshev depth + double angles) + S2C;
	// the affine normalization is folded into the last C2S matrix and the
	// scale fix rides the last S2C matrix. Default: 4+1+(5+2)+3 = 15 levels,
	// i.e. 30 limbs under double-prime scaling: L goes 54 -> 24 (§VII-A).
	cheb := int(math.Ceil(math.Log2(float64(c.ChebDegree + 1))))
	return c.FFTIterC2S + 1 + (cheb + c.DoubleAng) + c.FFTIterS2C
}

// LEff returns the usable multiplicative levels after bootstrapping: the
// ciphertext returns to L limbs, bootstrapping itself consumed
// BootLevels()·2 limbs, and 2 limbs remain as the base (the paper's
// L schedule 2 -> 54 -> 24 with L_eff = 11 for the default configuration).
func LEff(p trace.Params, c BootConfig) int {
	after := p.L - limbsPerMult*c.BootLevels()
	eff := (after - 2) / limbsPerMult
	if eff < 1 {
		eff = 0
	}
	return eff
}

// BootFootprintGB estimates the DRAM residency of bootstrapping: all
// distinct evaluation keys, plaintext matrices, and working ciphertexts
// (§VIII-B: capacity becomes a limiting factor; the RTX 4090's 24GB fails
// for large configurations).
func BootFootprintGB(p trace.Params, c BootConfig) float64 {
	b := trace.NewBuilder(p, trace.Options{Hoist: true}, "footprint")
	evks := 4 // encapsulation pair, relinearization, conjugation
	ptBytes := 0.0
	for _, iters := range []int{c.FFTIterC2S, c.FFTIterS2C} {
		for i := 0; i < iters; i++ {
			k := DiagCount(c.SlotsLog, iters, i)
			evks += b.EvkCount(k)
			ptBytes += b.PlaintextBytes(p.L-1, k)
		}
	}
	working := 8 * p.CtBytes(p.L-1) // live ciphertexts and decomposition digits
	return (float64(evks)*p.EvkBytes(p.L-1) + ptBytes + working) / 1e9
}

// DiagCount returns the diagonals of one grouped DFT factor matrix when
// logSlots butterfly stages are split into iters groups (each group of g
// radix-2 stages composes into a 2^{g+1}-1-diagonal matrix; see
// internal/ckks/dft.go).
func DiagCount(logSlots, iters, group int) int {
	per := logSlots / iters
	extra := logSlots % iters
	g := per
	if group < extra {
		g++
	}
	k := 1<<(uint(g)+1) - 1
	if k > 1<<uint(logSlots) {
		k = 1 << uint(logSlots)
	}
	return k
}

// Bootstrap emits the full-slot bootstrapping trace: sparse-secret
// encapsulation, ModRaise, CoeffToSlot, two EvalMods, SlotToCoeff (§II-C).
func Bootstrap(p trace.Params, opt trace.Options, cfg BootConfig) *trace.Trace {
	b := trace.NewBuilder(p, opt, "Boot")
	top := p.L - 1 // level after ModRaise

	// Sparse-secret encapsulation: key switch at the bottom, ModRaise,
	// key switch back at the top [9].
	bottom := 1 // L=2 at the bottom of the schedule
	b.ModUp(bottom)
	b.KeyMult("Encaps.down.KeyMult", bottom)
	b.ModDown(bottom, 2)
	b.MemOp("ModRaise", 2*(top+1))
	b.ModUp(top)
	b.KeyMult("Encaps.up.KeyMult", top)
	b.ModDown(top, 2)

	lvl := top
	// CoeffToSlot: fftIterC2S grouped transforms, one level each.
	for i := 0; i < cfg.FFTIterC2S; i++ {
		k := DiagCount(cfg.SlotsLog, cfg.FFTIterC2S, i)
		b.LinearTransform(lvl, k)
		lvl -= limbsPerMult
	}
	// Conjugate split into real/imaginary parts: one rotation (the
	// conjugation) plus element-wise combinations, one level.
	b.HROT(lvl)
	b.EW2("Split.Combine", lvl)
	lvl -= limbsPerMult

	// EvalMod runs on both parts at the same levels.
	after := emitEvalMod(b, lvl, cfg)
	_ = emitEvalMod(b, lvl, cfg)
	lvl = after
	// Recombine.
	b.HADD(lvl)

	// SlotToCoeff.
	for i := 0; i < cfg.FFTIterS2C; i++ {
		k := DiagCount(cfg.SlotsLog, cfg.FFTIterS2C, i)
		b.LinearTransform(lvl, k)
		lvl -= limbsPerMult
	}

	t := b.T
	t.LEff = LEff(p, cfg)
	return t
}

// emitEvalMod emits one EvalMod as the library runs it on its even cosine
// (ckks evalModCt): y = T₂(x) = 2x² − 1, the degree-⌊ChebDegree/2⌋ series in
// y by BSGS (babies T_2 … T_{baby−1}, giants T_baby, T_2baby, …, one
// CAccum⟨baby⟩ per leaf and one product per split), then the double angles.
// Returns the level after consumption. The second EvalMod of a bootstrap
// runs at the same entry level, so only the returned cursor of the last call
// advances the caller.
func emitEvalMod(b *trace.Builder, lvl int, cfg BootConfig) int {
	deg := cfg.ChebDegree / 2
	baby := max(2, 1<<((bits.Len(uint(deg))+1)/2))
	leaves := (deg + baby) / baby

	b.HSQUARE(lvl)
	b.EW2("EvalMod.T2", lvl)
	// Power basis of y at a descending level cursor approximating the BSGS
	// schedule depth: T_k = 2·T_i·T_j − T_{j−i} with i = ⌊k/2⌋, a square
	// where k is even, and the giants by squaring.
	for k := 2; k < baby; k++ {
		if k%2 == 0 {
			b.HSQUARE(lvl - limbsPerMult)
		} else {
			b.HMULT(lvl - limbsPerMult)
		}
	}
	for g := baby; g <= deg; g <<= 1 {
		b.HSQUARE(lvl - 2*limbsPerMult)
	}
	for j := 0; j < leaves; j++ {
		b.CAccum("EvalMod.Leaf", lvl-3*limbsPerMult, baby)
	}
	for j := 1; j < leaves; j++ {
		b.HMULT(lvl - 3*limbsPerMult)
	}
	lvl -= limbsPerMult * int(math.Ceil(math.Log2(float64(cfg.ChebDegree+1))))

	// Double angles: squaring plus constant ops per step.
	for r := 0; r < cfg.DoubleAng; r++ {
		b.HSQUARE(lvl)
		b.EW2("EvalMod.DoubleAngle", lvl)
		lvl -= limbsPerMult
	}
	return lvl
}
