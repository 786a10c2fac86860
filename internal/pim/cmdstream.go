package pim

import (
	"sort"

	"github.com/anaheim-sim/anaheim/internal/dram"
)

// CommandStream generates the per-bank DRAM command stream of Alg 1 for one
// instruction over c chunks per polynomial with chunk granularity g: per
// iteration, each phase activates its PolyGroup's row(s), streams the
// phase's chunk accesses, and precharges before the next phase. The last
// phase writes (the instruction's outputs); earlier phases read.
//
// The stream feeds the command-level engine in internal/dram, which serves
// as ground truth for the closed-form timing in InstrCost.
func CommandStream(spec InstrSpec, g, c, rowChunks int, columnPartitioned bool) []dram.Command {
	var cmds []dram.Command
	// Distinct base rows per phase so PolyGroups never share rows.
	phaseBase := make([]int, len(spec.Phases))
	for i := 1; i < len(spec.Phases); i++ {
		prev := PolyGroupLayout{Polys: spec.Phases[i-1].GroupPolys, ChunksPerBank: c, RowChunks: rowChunks}
		rows := prev.Rows()
		if !columnPartitioned {
			rows = spec.Phases[i-1].GroupPolys * ((c + rowChunks - 1) / rowChunks)
		}
		phaseBase[i] = phaseBase[i-1] + rows
	}

	for c0 := 0; c0 < c; c0 += g {
		for pi, ph := range spec.Phases {
			l := PolyGroupLayout{
				Polys: ph.GroupPolys, ChunksPerBank: c,
				RowChunks: rowChunks, BaseRow: phaseBase[pi],
			}
			counts := l.RowAccessCounts(c0, g, columnPartitioned)
			rows := make([]int, 0, len(counts))
			for r := range counts {
				rows = append(rows, r)
			}
			sort.Ints(rows)
			kind := dram.RD
			if pi == len(spec.Phases)-1 {
				kind = dram.WR // the final phase stores the outputs
			}
			for _, r := range rows {
				cmds = append(cmds, dram.Command{Kind: dram.ACT, Row: r})
				// The phase touches PolysTouched of the group's polynomials;
				// scale the row's access count accordingly (a phase may
				// visit a PolyGroup that hosts more polynomials than it
				// touches, e.g. MAC's accumulator row).
				n := counts[r] * ph.PolysTouched / ph.GroupPolys
				if n < 1 {
					n = 1
				}
				for k := 0; k < n; k++ {
					cmds = append(cmds, dram.Command{Kind: kind, Row: r})
				}
				cmds = append(cmds, dram.Command{Kind: dram.PRE, Row: r})
			}
		}
	}
	return cmds
}
