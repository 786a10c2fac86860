package trace

import (
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/pim"
)

// The Anaheim op-sequence rewrites (§V) are the only fusion in the
// simulator: the builder emits every compound in its naive form — per-term
// kernels tagged with a fuse group and a role — and these passes rewrite
// tagged kernels into the fused sequences the Anaheim configuration
// executes: SwapAutPMult (§V-B plaintext pre-rotation), AutAccum (Fig 6),
// and PAccum/CAccum (Table II compound instructions). The builder runs the
// passes its options select over each op it emits; the ext-fusion
// experiment runs them one at a time over a whole trace.

// Stats summarizes one pass application on one trace.
type Stats struct {
	Pass string
	// Fused counts kernels eliminated by merging into a compound.
	Fused int
	// Swaps counts automorphism↔PMULT reorders (no direct byte savings;
	// they unlock AutAccum).
	Swaps int
	// BytesSaved is the DRAM traffic removed from the trace by this pass.
	BytesSaved float64
}

// TracePass rewrites a kernel trace in place.
type TracePass interface {
	Name() string
	Apply(t *Trace) Stats
}

// AllPasses returns every pass in its canonical order: the reorder first
// (it unlocks AutAccum), then the merges.
func AllPasses() []TracePass {
	return []TracePass{SwapAutPMult(), AutAccum(), PAccum(), CAccum()}
}

// Apply runs the passes in order over a whole trace, mutating t, and
// records per-pass savings as obs counters (fusion_kernels_eliminated_total,
// fusion_bytes_saved_total, fusion_swaps_total). The builder's per-op runs
// record nothing.
func Apply(t *Trace, passes ...TracePass) []Stats {
	stats := make([]Stats, 0, len(passes))
	for _, p := range passes {
		s := p.Apply(t)
		if s.Fused > 0 {
			obs.Default.Counter(`fusion_kernels_eliminated_total{pass="` + s.Pass + `"}`).Add(float64(s.Fused))
		}
		if s.BytesSaved > 0 {
			obs.Default.Counter(`fusion_bytes_saved_total{pass="` + s.Pass + `"}`).Add(s.BytesSaved)
		}
		if s.Swaps > 0 {
			obs.Default.Counter("fusion_swaps_total").Add(float64(s.Swaps))
		}
		stats = append(stats, s)
	}
	return stats
}

// --- SwapAutPMult (§V-B) ----------------------------------------------------

type swapAutPMult struct{}

// SwapAutPMult returns the automorphism↔PMULT reorder pass: a diagonal
// plaintext multiply that consumes an automorphism's output commutes with it
// once the plaintext is pre-rotated offline (σ(a)·p = σ(a·σ⁻¹(p))), so the
// pass moves tagged diagonal multiplies in front of the automorphism. The
// trace's cost is unchanged — the payoff is that the automorphism lands
// adjacent to its accumulation, where AutAccum can fuse them (Fig 6).
func SwapAutPMult() TracePass { return swapAutPMult{} }

func (swapAutPMult) Name() string { return "swap-aut-pmult" }

func (swapAutPMult) Apply(t *Trace) Stats {
	ks := t.Kernels
	st := Stats{Pass: "swap-aut-pmult"}
	for i := 0; i < len(ks); i++ {
		if ks[i].Class != ClassAut || ks[i].FuseRole != RoleAut {
			continue
		}
		// Bubble the automorphism past every immediately-following
		// swappable multiply (equivalently: move those multiplies before
		// the automorphism, preserving their relative order).
		j := i
		for j+1 < len(ks) && ks[j+1].Class == ClassEW && ks[j+1].FuseRole == RoleSwapPMult {
			ks[j], ks[j+1] = ks[j+1], ks[j]
			j++
			st.Swaps++
		}
		i = j
	}
	return st
}

// --- AutAccum (Fig 6) -------------------------------------------------------

type autAccum struct{}

// AutAccum returns the automorphism-accumulation fusion pass: an adjacent
// [bare automorphism (2 accesses), separate accumulation (3 accesses)] pair
// of one fuse group merges into a single fused automorphism kernel at 3
// accesses — the permutation is applied on the fly while accumulating,
// eliminating the rotated temporary's DRAM round trip (5 → 3 accesses).
func AutAccum() TracePass { return autAccum{} }

func (autAccum) Name() string { return "autaccum" }

func (autAccum) Apply(t *Trace) Stats {
	in := t.Kernels
	st := Stats{Pass: "autaccum"}
	out := in[:0] // compacts in place: out never passes the read position
	for i := 0; i < len(in); i++ {
		k := in[i]
		if k.Class == ClassAut && k.FuseRole == RoleAut &&
			i+1 < len(in) && in[i+1].FuseRole == RoleAccum && in[i+1].FuseGroup == k.FuseGroup {
			acc := in[i+1]
			merged := k
			merged.Bytes = acc.Bytes // fused: read src + read acc + write acc
			merged.WeightedOps += acc.WeightedOps
			merged.WriteBack += acc.WriteBack
			merged.FuseGroup, merged.FuseRole = FuseGroup{}, ""
			out = append(out, merged)
			st.Fused++
			st.BytesSaved += k.Bytes + acc.Bytes - merged.Bytes
			i++
			continue
		}
		out = append(out, k)
	}
	t.Kernels = out
	return st
}

// --- PAccum / CAccum (Table II) --------------------------------------------

type accumMerge struct {
	pass    string
	member  pim.Opcode // the naive per-term instruction
	fused   pim.Opcode // the compound instruction
	perTerm int        // members per compound fan-in unit (1 for PAccum, 2 for CAccum)
}

// PAccum returns the plaintext-accumulation merge pass: K tagged PMAC
// kernels of one fuse group (7 accesses each, re-touching their
// accumulators) merge into a single PAccum⟨K⟩ compound at 3K+2 accesses.
func PAccum() TracePass {
	return accumMerge{pass: "paccum", member: pim.PMAC, fused: pim.PAccum, perTerm: 1}
}

// CAccum returns the constant-accumulation merge pass: 2K tagged CMAC
// kernels of one fuse group (3 accesses each) merge into a single CAccum⟨K⟩
// compound at 2K+2 accesses.
func CAccum() TracePass {
	return accumMerge{pass: "caccum", member: pim.CMAC, fused: pim.CAccum, perTerm: 2}
}

func (m accumMerge) Name() string { return m.pass }

func (m accumMerge) Apply(t *Trace) Stats {
	in := t.Kernels
	st := Stats{Pass: m.pass}

	// Gather group members by group ID. Members need not be adjacent: all
	// of a group's kernels feed the same pair of accumulators, so the merged
	// compound is placed at the last member's position, where every
	// contribution is available.
	members := map[int][]int{}
	for i, k := range in {
		if k.Class == ClassEW && k.Op == m.member && k.FuseGroup.ID != 0 && k.FuseRole != RoleAccum {
			members[k.FuseGroup.ID] = append(members[k.FuseGroup.ID], i)
		}
	}
	if len(members) == 0 {
		return st
	}

	drop := make([]bool, len(in))
	for _, idxs := range members {
		n := len(idxs)
		// Singleton groups still convert: PAccum⟨1⟩ touches its accumulator
		// pair once (5 accesses) where a bare PMAC re-reads it (7).
		if n < m.perTerm || n%m.perTerm != 0 {
			continue
		}
		first := in[idxs[0]]
		ok := true
		var ops, bytes, oneTime, writeBack float64
		for _, i := range idxs {
			k := in[i]
			if k.Limbs != first.Limbs || k.Instances != first.Instances || k.Offload != first.Offload {
				ok = false
				break
			}
			ops += k.WeightedOps
			bytes += k.Bytes
			oneTime += k.OneTime
			writeBack += k.WriteBack
		}
		if !ok {
			continue
		}
		fanIn := n / m.perTerm
		spec := pim.Spec(m.fused, fanIn)
		merged := Kernel{
			Name: first.FuseGroup.Name, Class: ClassEW,
			WeightedOps: ops,
			Bytes:       float64(spec.PIMAccesses()) * t.P.PolyBytes(first.Limbs) * float64(first.Instances),
			OneTime:     oneTime,
			Op:          m.fused, OpK: fanIn, Limbs: first.Limbs, Instances: first.Instances,
			Offload: first.Offload, WriteBack: writeBack,
		}
		in[idxs[n-1]] = merged
		for _, i := range idxs[:n-1] {
			drop[i] = true
		}
		st.Fused += n - 1
		st.BytesSaved += bytes - merged.Bytes
	}

	out := in[:0]
	for i, k := range in {
		if !drop[i] {
			out = append(out, k)
		}
	}
	t.Kernels = out
	return st
}
