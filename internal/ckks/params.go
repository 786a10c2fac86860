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

const bootLogQ0, bootLogScale = 60, 50 // q0's and Δ's sizes in bits on a bootstrapping chain (bootChain)

// BootTestParameters returns an insecure but functionally complete
// bootstrapping parameter set (N=2^11, Δ = 2^50): the chain a bootstrap
// under DefaultBootstrapConfig leaves 8 levels on (bootChain), 24 Q primes,
// log Q 1 340. Six 60-bit special primes (α = 6) make the gadget Table IV's
// D = 4 at the top, 3–4 digits in EvalMod and 2 in SlotToCoeff: the smallest
// α within noise of the fastest in the functional Fig 2b sweep
// (EXPERIMENTS.md), where α = 3 (D = 8) bootstraps ≈ 16 % slower on keys of
// 1.8× the bytes. log PQ = 1 700 bits: insecure at this N by construction,
// and over §IV-B's 1 623 even at N = 2^16.
func BootTestParameters() ParametersLiteral {
	return ParametersLiteral{
		LogN:     11,
		LogQ:     DefaultBootstrapConfig().bootChain(8),
		LogP:     repeatInts(60, 6),
		LogScale: bootLogScale,
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
