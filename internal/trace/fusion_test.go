package trace

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/pim"
)

// buildMixed emits a representative op mix: ciphertext multiply, rotation,
// hoisted linear transform, Chebyshev leaf accumulation, affine map.
func buildMixed(opt Options) *Trace { return buildMixedAt(opt, 20) }

func buildMixedAt(opt Options, level int) *Trace {
	b := NewBuilder(PaperParams(), opt, "mixed")
	b.HMULT(level)
	b.HROT(level)
	b.LinearTransform(level, 16)
	b.CAccum("cheb.leaf", level/2, 8)
	b.EW2("evalmod.affine", level/2)
	return b.T
}

// naiveOptions runs no pass: every compound stays in its naive form.
func naiveOptions() Options { return Options{Hoist: true, PIM: true} }

// TestPassesAreToggleable verifies each pass only rewrites its own pattern.
func TestPassesAreToggleable(t *testing.T) {
	// Only grouped members count: a standalone CMAC (EvalMod's affine map)
	// is not a compound and must survive every pass.
	countOp := func(tr *Trace, op pim.Opcode) int {
		n := 0
		for _, k := range tr.Kernels {
			if k.Class == ClassEW && k.Op == op && k.FuseGroup.ID != 0 {
				n++
			}
		}
		return n
	}
	countRole := func(tr *Trace, role string) int {
		n := 0
		for _, k := range tr.Kernels {
			if k.FuseRole == role {
				n++
			}
		}
		return n
	}

	t.Run("paccum-only", func(t *testing.T) {
		tr := buildMixed(naiveOptions())
		pmacs := countOp(tr, pim.PMAC)
		Apply(tr, PAccum())
		if got := countOp(tr, pim.PMAC); got != 0 {
			t.Fatalf("PAccum pass left %d of %d PMACs unmerged", got, pmacs)
		}
		if countOp(tr, pim.CMAC) == 0 {
			t.Fatal("PAccum pass must not touch CMAC chains")
		}
		if countRole(tr, RoleAut) == 0 {
			t.Fatal("PAccum pass must not touch split automorphisms")
		}
	})

	t.Run("caccum-only", func(t *testing.T) {
		tr := buildMixed(naiveOptions())
		Apply(tr, CAccum())
		if got := countOp(tr, pim.CMAC); got != 0 {
			t.Fatalf("CAccum pass left %d CMACs unmerged", got)
		}
		if countOp(tr, pim.PMAC) == 0 {
			t.Fatal("CAccum pass must not touch PMAC chains")
		}
	})

	t.Run("autaccum-needs-swap", func(t *testing.T) {
		// Without the reorder, baby automorphisms stay separated from their
		// accumulations by the diagonal multiplies; only the adjacent
		// giant-rotation pairs fuse.
		tr := buildMixed(naiveOptions())
		before := countRole(tr, RoleAut)
		st := Apply(tr, AutAccum())
		if after := countRole(tr, RoleAut); after == 0 {
			t.Fatal("expected some automorphisms to stay unfused without the swap pass")
		} else if st[0].Fused == 0 {
			t.Fatal("adjacent aut/accum pairs should fuse even without the swap pass")
		} else if after >= before {
			t.Fatalf("no automorphism fused: %d -> %d", before, after)
		}

		// With the swap first, every pair fuses.
		tr2 := buildMixed(naiveOptions())
		Apply(tr2, SwapAutPMult(), AutAccum())
		if got := countRole(tr2, RoleAut); got != 0 {
			t.Fatalf("%d automorphisms left unfused after swap+autaccum", got)
		}
	})
}

// TestSwapPreservesCost: the reorder moves kernels but must not change any
// aggregate cost of the trace.
func TestSwapPreservesCost(t *testing.T) {
	tr := buildMixed(naiveOptions())
	wantBytes, wantOps, wantN := tr.TotalBytes(), totalOps(tr), len(tr.Kernels)
	st := Apply(tr, SwapAutPMult())
	if st[0].Swaps == 0 {
		t.Fatal("swap pass found nothing to reorder in the naive hoisted transform")
	}
	if tr.TotalBytes() != wantBytes || totalOps(tr) != wantOps || len(tr.Kernels) != wantN {
		t.Fatal("swap pass changed trace cost")
	}
}

func totalOps(tr *Trace) float64 {
	s := 0.0
	for _, k := range tr.Kernels {
		s += k.WeightedOps
	}
	return s
}

// TestPassesIdempotent: re-applying the full pipeline to an already fused
// trace changes nothing.
func TestPassesIdempotent(t *testing.T) {
	tr := buildMixed(naiveOptions())
	Apply(tr, AllPasses()...)
	n, bytes := len(tr.Kernels), tr.TotalBytes()
	stats := Apply(tr, AllPasses()...)
	for _, s := range stats {
		if s.Fused != 0 || s.Swaps != 0 || s.BytesSaved != 0 {
			t.Fatalf("second application of %s still rewrote: %+v", s.Pass, s)
		}
	}
	if len(tr.Kernels) != n || tr.TotalBytes() != bytes {
		t.Fatal("second application changed the trace")
	}
}

// TestAccumMergeRespectsShape: members with mismatched limb counts must not
// merge (they belong to different polynomials).
func TestAccumMergeRespectsShape(t *testing.T) {
	p := PaperParams()
	tr := &Trace{Name: "bad", P: p}
	mk := func(limbs int) Kernel {
		return Kernel{
			Name: "x", Class: ClassEW, Op: pim.PMAC,
			Bytes: 7 * p.PolyBytes(limbs), Limbs: limbs, Instances: 1,
			FuseGroup: FuseGroup{Name: "g", ID: 1}, FuseRole: RoleMAC,
		}
	}
	tr.Append(mk(10), mk(11))
	st := Apply(tr, PAccum())
	if st[0].Fused != 0 || len(tr.Kernels) != 2 {
		t.Fatal("merged PMACs with mismatched limb counts")
	}
}

func approxEq(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// TestAggregateParity: per-class aggregate costs of the rewritten naive
// trace match the fused builder (the number the experiments report).
func TestAggregateParity(t *testing.T) {
	fused := buildMixed(AnaheimDefault())
	naive := buildMixed(naiveOptions())
	Apply(naive, AllPasses()...)
	for _, c := range []Class{ClassNTT, ClassINTT, ClassBConv, ClassEW, ClassAut} {
		fb := fused.CountClass(c, func(k Kernel) float64 { return k.Bytes })
		nb := naive.CountClass(c, func(k Kernel) float64 { return k.Bytes })
		if !approxEq(fb, nb, 1e-9) {
			t.Errorf("class %s bytes: fused %.1f, rewritten %.1f", c, fb, nb)
		}
	}
	if !approxEq(fused.OneTimeBytes(), naive.OneTimeBytes(), 1e-9) {
		t.Errorf("one-time bytes: fused %.1f, rewritten %.1f", fused.OneTimeBytes(), naive.OneTimeBytes())
	}
}

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// formatTrace renders the kernel sequence in a stable, human-reviewable
// form: one kernel per line with class, opcode, name and fuse tags.
func formatTrace(tr *Trace) string {
	var b strings.Builder
	for _, k := range tr.Kernels {
		fmt.Fprintf(&b, "%-5s %-9s %s", k.Class, opName(k), k.Name)
		if k.FuseGroup.ID != 0 {
			fmt.Fprintf(&b, "  [%s#%d:%s]", k.FuseGroup.Name, k.FuseGroup.ID, k.FuseRole)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func opName(k Kernel) string {
	if k.Class != ClassEW {
		return "-"
	}
	if k.OpK > 0 {
		return fmt.Sprintf("%s<%d>", k.Op, k.OpK)
	}
	return k.Op.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with go test ./internal/trace -run TestGolden -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("sequence differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenLinearTransformPasses pins the exact before/after kernel
// sequences of a small hoisted linear transform (k=4: two baby steps, two
// giant sums) through each fusion pass.
func TestGoldenLinearTransformPasses(t *testing.T) {
	build := func() *Trace {
		b := NewBuilder(PaperParams(), naiveOptions(), "lt4")
		b.LinearTransform(10, 4)
		return b.T
	}

	tr := build()
	checkGolden(t, "lt4_naive.golden", formatTrace(tr))

	Apply(tr, SwapAutPMult())
	checkGolden(t, "lt4_after_swap.golden", formatTrace(tr))

	Apply(tr, AutAccum())
	checkGolden(t, "lt4_after_autaccum.golden", formatTrace(tr))

	Apply(tr, PAccum())
	checkGolden(t, "lt4_after_paccum.golden", formatTrace(tr))

	// The builder under AnaheimDefault runs the same passes over the same
	// transform and emits the same sequence.
	fb := NewBuilder(PaperParams(), AnaheimDefault(), "lt4")
	fb.LinearTransform(10, 4)
	checkGolden(t, "lt4_after_paccum.golden", formatTrace(fb.T))
}

// TestConcatKeepsCompoundsApart: two Concat copies of one compound stay two
// compounds, and the merged compounds keep their name.
func TestConcatKeepsCompoundsApart(t *testing.T) {
	p := PaperParams()
	op := NewBuilder(p, naiveOptions(), "op")
	op.KeyMult("km", p.L-1)
	op.CAccum("leaf", 10, 4)
	tr := &Trace{P: p}
	tr.Concat(op.T, 2)
	tr.Concat(op.T, 1)

	Apply(tr, AllPasses()...)
	var names []string
	for _, k := range tr.Kernels {
		names = append(names, fmt.Sprintf("%s %s<%d>", k.Name, k.Op, k.OpK))
	}
	want := "km PAccum<4> leaf CAccum<4> km PAccum<4> leaf CAccum<4> km PAccum<4> leaf CAccum<4>"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("after the passes:\n  got  %s\n  want %s", got, want)
	}
}
