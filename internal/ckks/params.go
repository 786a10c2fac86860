// Package ckks implements the RNS-CKKS approximate homomorphic encryption
// scheme (Cheon–Kim–Kim–Song) with the structure assumed by the Anaheim
// paper: residue-number-system polynomial arithmetic, hybrid key switching
// with decomposition number D = ceil(L/α) and special modulus P (Table I),
// double-hoisted baby-step/giant-step linear transforms (§III-B, §V-B), and full
// bootstrapping with sparse-secret encapsulation, grouped-DFT CoeffToSlot /
// SlotToCoeff (the fftIter knob of §IV-C) and Chebyshev EvalMod.
//
// The functional implementation targets research-scale parameters. The
// performance simulator (internal/trace, internal/gpu, internal/pim) models
// the paper-scale N = 2^16 configuration from its own description,
// trace.PaperParams, not from the parameters defined here.
package ckks

import (
	"fmt"
	"math"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// ParametersLiteral is the user-facing description of a CKKS parameter set.
type ParametersLiteral struct {
	LogN     int   // ring degree N = 2^LogN
	LogQ     []int // bit sizes of the Q primes; LogQ[0] is the base prime q0
	LogP     []int // bit sizes of the special-modulus primes (α = len(LogP))
	LogScale int   // log2 of the default scaling factor Δ
	HDense   int   // Hamming weight of the dense secret (Table IV H_d)
	HSparse  int   // Hamming weight of the sparse secret (Table IV H_s)
	Sigma    float64
}

// Parameters is a compiled, immutable CKKS parameter set.
type Parameters struct {
	logN  int
	n     int
	slots int

	ringQ *ring.Ring
	ringP *ring.Ring

	scale   float64
	hDense  int
	hSparse int
	sigma   float64
}

// GadgetPlan describes the hybrid key-switch decomposition of a ciphertext at
// one level. Every switching key has one gadget shape — the full special
// modulus P (α primes) and digits α Q limbs wide — so the plan is a function
// of the level alone: Digits = ⌈(Level+1)/α⌉, the last digit ragged.
type GadgetPlan struct {
	Level  int // ciphertext level the plan applies to
	Alpha  int // special primes α: the extension basis is Q_Level ∪ P
	Digits int // decomposition number at this level
}

// PlanAt returns the gadget plan for a key switch at the given level.
func (p *Parameters) PlanAt(level int) GadgetPlan {
	return GadgetPlan{Level: level, Alpha: p.Alpha(), Digits: p.Digits(level)}
}

// NewParameters compiles a literal into a usable parameter set, generating
// the NTT-friendly prime chains.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 3 || lit.LogN > 16 {
		return nil, fmt.Errorf("ckks: LogN=%d out of supported range [3,16]", lit.LogN)
	}
	if len(lit.LogQ) < 1 || len(lit.LogP) < 1 {
		return nil, fmt.Errorf("ckks: need at least one Q prime and one P prime")
	}
	if lit.Sigma == 0 {
		lit.Sigma = 3.2
	}
	if lit.HDense == 0 {
		lit.HDense = 1 << 8
	}
	if lit.HSparse == 0 {
		lit.HSparse = 32
	}
	all := append(append([]int{}, lit.LogQ...), lit.LogP...)
	chain, err := modarith.GeneratePrimeChain(all, lit.LogN)
	if err != nil {
		return nil, err
	}
	qPrimes := chain[:len(lit.LogQ)]
	pPrimes := chain[len(lit.LogQ):]
	rq, err := ring.NewRing(lit.LogN, qPrimes)
	if err != nil {
		return nil, err
	}
	rp, err := ring.NewRing(lit.LogN, pPrimes)
	if err != nil {
		return nil, err
	}
	n := 1 << uint(lit.LogN)
	return &Parameters{
		logN:    lit.LogN,
		n:       n,
		slots:   n / 2,
		ringQ:   rq,
		ringP:   rp,
		scale:   math.Exp2(float64(lit.LogScale)),
		hDense:  lit.HDense,
		hSparse: lit.HSparse,
		sigma:   lit.Sigma,
	}, nil
}

// N returns the ring degree.
func (p *Parameters) N() int { return p.n }

// LogN returns log2 of the ring degree.
func (p *Parameters) LogN() int { return p.logN }

// Slots returns the number of complex slots (N/2).
func (p *Parameters) Slots() int { return p.slots }

// MaxLevel returns the highest usable ciphertext level L-1 (L = #Q primes).
func (p *Parameters) MaxLevel() int { return p.ringQ.MaxLevel() }

// Alpha returns the number of special-modulus primes α.
func (p *Parameters) Alpha() int { return len(p.ringP.Moduli) }

// Digits returns the decomposition number D = ceil(#limbs/α) for a
// key-switching operation at the given level.
func (p *Parameters) Digits(level int) int { return digitCount(level+1, p.Alpha()) }

// digitCount is ⌈limbs/α⌉, the digit count of a gadget decomposition.
func digitCount(limbs, alpha int) int { return (limbs + alpha - 1) / alpha }

// RingQ returns the ciphertext-modulus ring.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// RingP returns the special-modulus ring.
func (p *Parameters) RingP() *ring.Ring { return p.ringP }

// DefaultScale returns the default scaling factor Δ.
func (p *Parameters) DefaultScale() float64 { return p.scale }

// Sigma returns the error standard deviation.
func (p *Parameters) Sigma() float64 { return p.sigma }

// HDense and HSparse return the dense/sparse secret Hamming weights.
func (p *Parameters) HDense() int  { return p.hDense }
func (p *Parameters) HSparse() int { return p.hSparse }

// LogQP returns the total bit size of the full modulus PQ, the quantity
// constrained by the 128-bit security tables (log PQ < 1623 for N = 2^16,
// §IV-B).
func (p *Parameters) LogQP() float64 {
	total := 0.0
	for _, m := range p.ringQ.Moduli {
		total += math.Log2(float64(m.Q))
	}
	for _, m := range p.ringP.Moduli {
		total += math.Log2(float64(m.Q))
	}
	return total
}

func repeatInts(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestParameters returns a small, fast, insecure parameter set for unit
// tests: N=2^10, 6 scaling levels.
func TestParameters() ParametersLiteral {
	return ParametersLiteral{
		LogN:     10,
		LogQ:     append([]int{55}, repeatInts(45, 6)...),
		LogP:     []int{58, 58},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	}
}

// BootTestParameters returns an insecure but functionally complete
// bootstrapping parameter set (N=2^11) with enough modulus budget for
// CoeffToSlot, EvalMod and SlotToCoeff. A bootstrap under
// DefaultBootstrapConfig spends 15 levels from the top level 23 down (its
// depths): C2S 3, then EvalMod 9 — the T₂ product and the degree-15 series
// in y, 6 at scale ≈ q0, and 3 double angles — and S2C 3 on 60-bit primes,
// leaving 8 levels. The conjugate split, EvalMod's affine map and the scale
// fix ride the DFT matrices and hold no prime. The last C2S matrix carries
// the split's 1/2 and the map's 1/(K+5/4) in its diagonals, whose encoding
// precision its prime bounds, so that prime is 60-bit where the other two C2S primes are 50-bit.
// Chain bottom-to-top: q0 (60b) | levels 1–7 (50b) | level 8 (60b) | S2C:
// levels 9–11, EvalMod: levels 12–20, last C2S: level 21 (60b) | first two
// C2S: levels 22–23 (50b). Six 60-bit special primes (α = 6) make the gadget
// Table IV's D = 4 at the top, 3–4 digits in EvalMod and 2 in SlotToCoeff:
// the smallest α within noise of the fastest in the functional Fig 2b sweep
// (EXPERIMENTS.md), where α = 3 (D = 8) bootstraps ≈ 16 % slower on keys of
// 1.8× the bytes. log PQ = 1 350 + 360 = 1 710 bits: insecure at this N by
// construction, and over §IV-B's 1 623 even at N = 2^16.
func BootTestParameters() ParametersLiteral {
	logQ := []int{60}
	logQ = append(logQ, repeatInts(50, 7)...)  // levels 1–7: left after a bootstrap
	logQ = append(logQ, repeatInts(60, 14)...) // level 8 left, 9–11 S2C, 12–20 EvalMod, 21 last C2S
	logQ = append(logQ, repeatInts(50, 2)...)  // 22–23 CoeffToSlot
	return ParametersLiteral{
		LogN:     11,
		LogQ:     logQ,
		LogP:     repeatInts(60, 6),
		LogScale: 50,
		HDense:   64,
		HSparse:  16,
	}
}

// PaperParameters returns the Table IV configuration used by the Anaheim
// evaluation as a *structural* description: N = 2^16, L = 54, α = 14, D = 4,
// primes < 2^28 with double-prime scaling (Δ = 2^48 spans two 24-bit primes
// [1,45]), log PQ = 1618 < 1623 for standard 128-bit security (§IV-B). The
// performance simulator does not read it (it models Table IV from
// trace.PaperParams); instantiating it functionally is possible but slow.
func PaperParameters() ParametersLiteral {
	return ParametersLiteral{
		LogN:     16,
		LogQ:     repeatInts(24, 54),
		LogP:     repeatInts(23, 14),
		LogScale: 48,
		HDense:   1 << 8,
		HSparse:  1 << 5,
	}
}
