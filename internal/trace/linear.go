package trace

import (
	"fmt"
	"strconv"

	"github.com/anaheim-sim/anaheim/internal/pim"
)

// LinearTransform emits a homomorphic linear transform with K nonzero
// diagonals at the given level, using the algorithm selected by the builder
// options (§III-B, Fig 1, Fig 5):
//
//   - Base: K independent HROT evaluations plus K PMULTs and accumulation.
//   - MinKS: iterated rotation with two keys (baby step 1, giant step bs);
//     same computation as Base but only 2 evks are streamed repeatedly.
//   - Hoist: baby-step/giant-step with a single hoisted ModUp for the baby
//     rotations, PMULT and accumulation in the extended modulus PQ, and one
//     hoisted ModDown per giant (Fig 5). Plaintexts are extended (larger)
//     but ModSwitch counts drop sharply.
//
// The fusion passes the options select then rewrite the transform's
// kernels: the swap reorders each automorphism past the PMULTs that consume
// it (plaintext preprocessing), AutAccum fuses it with its accumulation and
// PAccum merges each giant sum (§V-B).
func (b *Builder) LinearTransform(level, k int) {
	from := len(b.T.Kernels)
	switch {
	case b.Opt.Hoist:
		b.linearHoisted(level, k)
	case b.Opt.MinKS:
		b.linearMinKS(level, k)
	default:
		b.linearBase(level, k)
	}
	b.Rescale(level)
	b.fuse(from)
}

// linearHoisted emits the hoisted transform in the naive order (§V-B
// "before"): the diagonal plaintext multiplies come *after* each baby
// automorphism — they consume the rotated value, so the automorphism cannot
// reach its accumulation until the swap pass pre-rotates the plaintexts and
// reorders them.
func (b *Builder) linearHoisted(level, k int) {
	p := b.P
	bs := ceilSqrt(k)
	gs := (k + bs - 1) / bs
	ext := level + 1 + p.Alpha

	// One hoisted ModUp feeds every baby rotation.
	b.ModUp(level)
	// Giant inner sums: PMULT+accumulation in the extended modulus with
	// one-time extended plaintexts. One fuse group per giant sum; its
	// members (one diagonal PMAC per baby step) are scattered across the
	// baby blocks below.
	giant := make([]FuseGroup, gs)
	for j := range giant {
		giant[j] = b.T.newFuseGroup(fmt.Sprintf("LT.giant[%d].PAccum", j))
	}
	// The unrotated (r=0) contribution to every giant sum.
	for j := range giant {
		b.diagMAC(giant[j], j, 0, ext, RoleMAC)
	}
	for r := 1; r < bs; r++ {
		b.KeyMult(fmt.Sprintf("LT.baby[%d].KeyMult", r), level)
		name := fmt.Sprintf("LT.baby[%d].Aut", r)
		g := b.T.newFuseGroup(name)
		b.autSplit(name, g, 2*ext)
		for j := range giant {
			b.diagMAC(giant[j], j, r, ext, RoleSwapPMult)
		}
		b.autSplitAccum(name, g, 2*ext)
	}
	// Giant rotations with double hoisting [8]: the partial sums stay in the
	// extended basis; each giant needs a re-decomposition (BConv+NTT, no
	// INTT) and a key multiplication, with a single ModDown at the very end.
	for j := 1; j < gs; j++ {
		b.ModUpNoINTT(level)
		b.KeyMult(fmt.Sprintf("LT.giantRot[%d].KeyMult", j), level)
		name := fmt.Sprintf("LT.giantRot[%d].Aut", j)
		g := b.T.newFuseGroup(name)
		b.autSplit(name, g, 2*ext)
		b.autSplitAccum(name, g, 2*ext)
	}
	b.ew("LT.accum", pim.Add, 2*ext, gs-1, 0)
	b.ModDown(level, 2)
}

// diagMAC emits one naive diagonal multiply-accumulate of giant sum j: a
// PMAC streaming its (extended) plaintext as one-time data, tagged as a
// member of that giant's PAccum group.
func (b *Builder) diagMAC(g FuseGroup, j, r, ext int, role string) {
	name := "LT.giant[" + strconv.Itoa(j) + "].diag[" + strconv.Itoa(r) + "]"
	b.ew(name, pim.PMAC, ext, 1, b.P.PolyBytes(ext))
	b.tag(g, role)
}

func (b *Builder) linearMinKS(level, k int) {
	// Iterated rotations: bs-1 baby steps with evk_1 and gs-1 giant steps
	// with evk_bs. Only two evaluation keys exist, but each HROT streams its
	// key from DRAM again (no cache can hold a 136MB evk, §III-C).
	bs := ceilSqrt(k)
	gs := (k + bs - 1) / bs
	for r := 1; r < bs; r++ {
		b.HROT(level)
	}
	for j := 1; j < gs; j++ {
		b.HROT(level)
	}
	// K PMULTs in the base modulus and accumulation.
	b.ew("LT.PMult", pim.PMult, level+1, k, float64(k)*b.P.PolyBytes(level+1))
	b.ew("LT.accum", pim.Add, 2*(level+1), k-1, 0)
}

func (b *Builder) linearBase(level, k int) {
	// Independent HROTs at the BSGS rotation set, each with its own evk:
	// the same computation as MinKS (Fig 1's table gives them equal (I)NTT
	// counts) but bs+gs-2 distinct keys instead of two.
	bs := ceilSqrt(k)
	gs := (k + bs - 1) / bs
	for r := 1; r < bs+gs-1; r++ {
		b.HROT(level)
	}
	b.ew("LT.PMult", pim.PMult, level+1, k, float64(k)*b.P.PolyBytes(level+1))
	b.ew("LT.accum", pim.Add, 2*(level+1), k-1, 0)
}

// EvkCount returns how many distinct evaluation keys the transform needs
// (the Fig 1 table's "amount of evks" comparison).
func (b *Builder) EvkCount(k int) int {
	bs := ceilSqrt(k)
	gs := (k + bs - 1) / bs
	switch {
	case b.Opt.MinKS:
		return 2 // rotation-by-1 and rotation-by-bs
	default:
		return bs - 1 + gs - 1 // one per distinct baby and giant rotation
	}
}

// PlaintextBytes returns the total plaintext bytes the transform streams:
// hoisting needs extended-modulus (larger) plaintexts (§III-B).
func (b *Builder) PlaintextBytes(level, k int) float64 {
	if b.Opt.Hoist {
		return float64(k) * b.P.PolyBytes(level+1+b.P.Alpha)
	}
	return float64(k) * b.P.PolyBytes(level+1)
}
