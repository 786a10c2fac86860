// Package pim models the Anaheim PIM unit (§VI): the modular-arithmetic
// instruction set of Table II, the column-partitioning data layout with
// PolyGroups (§VI-B, Fig 7), and the Alg-1 execution method whose ACT/PRE
// amortization is governed by the data buffer size B.
package pim

import "fmt"

// Opcode enumerates the Anaheim PIM ISA (Table II).
type Opcode int

const (
	Move Opcode = iota
	Neg
	Add
	Sub
	Mult
	MAC
	PMult
	PMAC
	CAdd
	CSub
	CMult
	CMAC
	Tensor
	TensorSq
	ModDownEp
	PAccum // PAccum⟨K⟩
	CAccum // CAccum⟨K⟩
	numOpcodes
)

var opcodeNames = [...]string{
	"Move", "Neg", "Add", "Sub", "Mult", "MAC", "PMult", "PMAC",
	"CAdd", "CSub", "CMult", "CMAC", "Tensor", "TensorSq", "ModDownEp",
	"PAccum", "CAccum",
}

func (o Opcode) String() string {
	if o < 0 || int(o) >= len(opcodeNames) {
		return fmt.Sprintf("pim.Opcode(%d)", int(o))
	}
	return opcodeNames[o]
}

// AllOpcodes returns every ISA entry (for the Fig 9 microbenchmark sweep).
func AllOpcodes() []Opcode {
	out := make([]Opcode, numOpcodes)
	for i := range out {
		out[i] = Opcode(i)
	}
	return out
}

// Phase describes one Alg-1 phase: a visit to one PolyGroup reading or
// writing `PolysTouched` polynomials, G chunks each, behind a shared row
// activation (column partitioning co-locates the group's polynomials in the
// same rows).
type Phase struct {
	PolysTouched int
	GroupPolys   int // how many polynomials share the PolyGroup (for row math)
}

// InstrSpec captures the execution shape of one instruction.
type InstrSpec struct {
	Op Opcode
	// BufferSlots is the number of G-chunk buffer regions needed; the chunk
	// granularity is G = floor(B / BufferSlots). Instructions with
	// BufferSlots > B are unsupported at that buffer size (§VII-C: "some
	// compound PIM instructions are not supported when using a small B").
	BufferSlots int
	Phases      []Phase // read-only: Spec shares one slice per fixed-shape opcode
	// OutPolys is the number of output polynomials (normalizes iteration
	// count: one iteration produces G chunks of each output).
	OutPolys int
	// GPUAccesses is the per-G-chunk access count of the *unfused GPU
	// baseline* computing the same result: compound instructions expand to
	// K separate GPU kernels re-reading their accumulators, which is
	// exactly why PAccum/CAccum benefit most from PIM (§VII-C).
	GPUAccesses int
	// ModMuls per element (for MMAC energy/compute accounting).
	ModMuls int
}

// The phases of the fixed-shape opcodes, shared by every Spec of them:
// InstrSpec.Phases is read-only to its callers.
var (
	phasesOneIn     = []Phase{{1, 1}, {1, 1}}
	phasesTwoIn     = []Phase{{2, 2}, {1, 1}}
	phasesMAC       = []Phase{{2, 2}, {2, 2}}
	phasesPMult     = []Phase{{1, 1}, {2, 2}, {2, 2}}
	phasesPMAC      = []Phase{{1, 1}, {2, 2}, {4, 4}}
	phasesTensor    = []Phase{{2, 2}, {2, 2}, {3, 3}}
	phasesTensorSq  = []Phase{{2, 2}, {3, 3}}
	phasesModDownEp = []Phase{{1, 1}, {2, 2}}
)

// Spec returns the execution shape for op with fan-in k (only used by
// PAccum/CAccum; pass 0 otherwise). Its Phases must not be written.
func Spec(op Opcode, k int) InstrSpec {
	switch op {
	case Move, Neg:
		return InstrSpec{op, 2, phasesOneIn, 1, 2, 0}
	case Add, Sub:
		return InstrSpec{op, 3, phasesTwoIn, 1, 3, 0}
	case Mult:
		return InstrSpec{op, 3, phasesTwoIn, 1, 3, 1}
	case MAC:
		// c is co-located with the destination PolyGroup.
		return InstrSpec{op, 4, phasesMAC, 1, 4, 1}
	case PMult:
		return InstrSpec{op, 5, phasesPMult, 2, 5, 2}
	case PMAC:
		return InstrSpec{op, 7, phasesPMAC, 2, 7, 2}
	case CAdd, CSub:
		return InstrSpec{op, 2, phasesOneIn, 1, 2, 0}
	case CMult:
		return InstrSpec{op, 2, phasesOneIn, 1, 2, 1}
	case CMAC:
		return InstrSpec{op, 3, phasesTwoIn, 1, 3, 1}
	case Tensor:
		return InstrSpec{op, 7, phasesTensor, 3, 7, 4}
	case TensorSq:
		return InstrSpec{op, 5, phasesTensorSq, 3, 5, 3}
	case ModDownEp:
		// b (the BConv write-back) is co-located with the destination x.
		return InstrSpec{op, 3, phasesModDownEp, 1, 3, 1}
	case PAccum:
		if k < 1 {
			k = 4
		}
		// Alg 1: load K plaintext chunks (one PolyGroup), stream 2K input
		// chunks (one PolyGroup), write the two accumulators.
		return InstrSpec{op, k + 2, []Phase{{k, k}, {2 * k, 2 * k}, {2, 2}},
			2, 7 * k, 2 * k}
	case CAccum:
		if k < 1 {
			k = 8
		}
		// Constants are broadcast in the instruction; stream 2K inputs,
		// write two accumulators.
		return InstrSpec{op, 3, []Phase{{2 * k, 2 * k}, {2, 2}}, 2, 3*k + 2, 2 * k}
	default:
		panic(fmt.Sprintf("pim: unknown opcode %v", op))
	}
}

// PIMAccesses returns the per-G chunk accesses the PIM unit performs.
func (s InstrSpec) PIMAccesses() int {
	n := 0
	for _, p := range s.Phases {
		n += p.PolysTouched
	}
	return n
}

// Supported reports whether the instruction can run with buffer size B.
func (s InstrSpec) Supported(b int) bool { return b >= s.BufferSlots }

// ChunkGranularity returns G = floor(B / slots) (Alg 1 line 1).
func (s InstrSpec) ChunkGranularity(b int) int {
	g := b / s.BufferSlots
	if g < 1 {
		g = 0
	}
	return g
}
