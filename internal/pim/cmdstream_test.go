package pim

import (
	"fmt"
	"math"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/dram"
)

// simulateInstr runs the stream CommandStream generates for one instruction
// through the command-level engine, the ground truth the closed-form
// InstrCost is checked against, and returns its per-bank makespan.
func simulateInstr(u UnitConfig, op Opcode, k, limbs, n, bufferSize int, columnPartitioned bool) (dram.Stats, error) {
	spec := Spec(op, k)
	g := spec.ChunkGranularity(bufferSize)
	if g == 0 {
		return dram.Stats{}, fmt.Errorf("pim: %v unsupported at buffer size %d", op, bufferSize)
	}
	elemsPerChunk := u.DRAM.ChunkBits / (wordBytes * 8)
	chunksPerBankPerLimb := (n + u.BanksPerGroup()*elemsPerChunk - 1) / (u.BanksPerGroup() * elemsPerChunk)
	limbsPerGroup := (limbs + u.DieGroups - 1) / u.DieGroups
	c := limbsPerGroup * chunksPerBankPerLimb
	cmds := CommandStream(spec, g, c, u.DRAM.ChunksPerRow(), columnPartitioned)
	return dram.Execute(cmds, dram.TimingFor(u.DRAM, u.ClockMHz))
}

func TestCommandStreamStructure(t *testing.T) {
	// PAccum⟨4⟩ at B=16 (G=2) over 16 chunks: 8 iterations × 3 phases, CP
	// layout -> one row visit per phase: 24 ACTs, 24 PREs, and
	// (3K+2)·c = 14·16 = 224 column accesses.
	spec := Spec(PAccum, 4)
	cmds := CommandStream(spec, 2, 16, 32, true)
	var acts, pres, cols int
	for _, c := range cmds {
		switch c.Kind {
		case dram.ACT:
			acts++
		case dram.PRE:
			pres++
		default:
			cols++
		}
	}
	if acts != 24 || pres != 24 {
		t.Fatalf("ACT/PRE = %d/%d, want 24/24", acts, pres)
	}
	if cols != 224 {
		t.Fatalf("column accesses = %d, want 224", cols)
	}
	// The final phase must write.
	sawWR := false
	for _, c := range cmds {
		if c.Kind == dram.WR {
			sawWR = true
		}
	}
	if !sawWR {
		t.Fatal("stream has no writes")
	}
}

func TestCommandStreamNaiveHasMoreACTs(t *testing.T) {
	spec := Spec(PAccum, 4)
	cp := CommandStream(spec, 2, 16, 32, true)
	naive := CommandStream(spec, 2, 16, 32, false)
	count := func(cmds []dram.Command) int {
		n := 0
		for _, c := range cmds {
			if c.Kind == dram.ACT {
				n++
			}
		}
		return n
	}
	// §VI-C: naive needs 4x/8x/2x the activations across the three phases:
	// (4+8+2)/(1+1+1) = 14/3 per iteration.
	if r := float64(count(naive)) / float64(count(cp)); r < 4 || r > 5 {
		t.Fatalf("naive/CP ACT ratio = %.2f, want ~4.7", r)
	}
}

func TestEngineValidatesAnalyticalModel(t *testing.T) {
	// The closed-form InstrCost and the command-level engine must agree on
	// Alg-1 streams (the engine adds tRAS effects the closed form folds
	// into the row-switch constant).
	u := A100NearBank()
	for _, tc := range []struct {
		op Opcode
		k  int
	}{
		{Move, 0}, {Add, 0}, {Mult, 0}, {PMult, 0},
		{Tensor, 0}, {PAccum, 4}, {CAccum, 8},
	} {
		analytic, err := u.InstrCost(tc.op, tc.k, 68, 1<<16, u.BufferSize, true)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := simulateInstr(u, tc.op, tc.k, 68, 1<<16, u.BufferSize, true)
		if err != nil {
			t.Fatal(err)
		}
		ratio := sim.TotalNs / analytic.TimeNs
		if math.Abs(ratio-1) > 0.35 {
			t.Errorf("%v: engine %.0fns vs analytic %.0fns (ratio %.2f) — models diverged",
				tc.op, sim.TotalNs, analytic.TimeNs, ratio)
		}
	}
}

func TestSimulateInstrUnsupported(t *testing.T) {
	u := A100NearBank()
	if _, err := simulateInstr(u, Tensor, 0, 68, 1<<16, 4, true); err == nil {
		t.Fatal("Tensor at B=4 must be unsupported")
	}
}

func TestEngineNaiveSlowerThanCP(t *testing.T) {
	u := A100NearBank()
	cp, err := simulateInstr(u, PAccum, 4, 68, 1<<16, u.BufferSize, true)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := simulateInstr(u, PAccum, 4, 68, 1<<16, u.BufferSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if naive.TotalNs <= cp.TotalNs {
		t.Fatal("naive layout must be slower in the command-level engine too")
	}
	if naive.ACTs <= cp.ACTs {
		t.Fatal("naive layout must activate more rows")
	}
}
