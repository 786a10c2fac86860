package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ntt"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// tierGrid is the kernel-tier benchmark cell: the n14 configurations the
// SIMD-dispatch acceptance numbers are quoted on (README perf table). One
// cell per op, repeated per host-available tier — the grid is the tier list,
// not the shape. A package variable so the JSON shape test can shrink it.
var tierGrid = struct {
	logN, nttLimbs, bconvLimbs int
}{logN: 14, nttLimbs: 1, bconvLimbs: 16}

// withKernelTier pins the modarith kernel tier around one benchmark body and
// restores the previous tier afterwards, so the per-tier rows cannot leak
// their tier into the rest of the (alphabetically interleaved) suite.
func withKernelTier(tier modarith.KernelTier, body func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		prev := modarith.ActiveTier()
		if err := modarith.SetKernelTier(tier); err != nil {
			b.Fatal(err)
		}
		defer modarith.SetKernelTier(prev)
		body(b)
	}
}

// addKernelTierBenches registers the per-tier rows: the same hot ops the
// dispatch rewrite targets (forward/inverse NTT, wide-accumulation BConv,
// vectorized rescale), once per kernel tier available on this host. Row names
// append the tier (ntt_fwd-n14-l1-avx512), so -tiertable can pivot them into
// a go-vs-asm speedup table and -compare treats them as independent ops.
func addKernelTierBenches(benches map[string]func(b *testing.B)) {
	logN, nttLimbs, bconvLimbs := tierGrid.logN, tierGrid.nttLimbs, tierGrid.bconvLimbs
	for _, tier := range modarith.AvailableTiers() {
		tier := tier
		nttCell := fmt.Sprintf("n%d-l%d-%s", logN, nttLimbs, tier)
		benches["ntt_fwd-"+nttCell] = withKernelTier(tier, func(b *testing.B) {
			tables, rows, _, err := nttBenchSetup(logN, nttLimbs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ntt.ForwardMany(tables, rows)
			}
		})
		benches["ntt_inv-"+nttCell] = withKernelTier(tier, func(b *testing.B) {
			tables, rows, _, err := nttBenchSetup(logN, nttLimbs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ntt.InverseMany(tables, rows)
			}
		})
		bconvCell := fmt.Sprintf("n%d-l%d-%s", logN, bconvLimbs, tier)
		benches["bconv-"+bconvCell] = withKernelTier(tier, func(b *testing.B) {
			bc, in, out, err := bconvBenchSetup(logN, bconvLimbs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.Convert(out, in)
			}
		})
		benches["rescale-"+bconvCell] = withKernelTier(tier, func(b *testing.B) {
			ms, rows, err := rescaleBenchSetup(logN, bconvLimbs)
			if err != nil {
				b.Fatal(err)
			}
			rs := rns.NewRescaler(ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs.DivRoundByLastModulus(rows)
			}
		})
	}
}

// tierSuffixes are the recognized per-tier row suffixes, in display order.
var tierSuffixes = []string{"go", "neon", "avx512"}

// runTierTable pivots the per-tier rows of a -micro JSON report into a
// GitHub-flavored markdown table (one row per op, one ns/op column per tier,
// plus the best-tier speedup over pure Go). CI appends it to the job step
// summary so the per-leg kernel numbers are readable without downloading the
// artifact.
func runTierTable(out io.Writer, path string) error {
	rep, err := readReport(path)
	if err != nil {
		return err
	}

	// op base -> tier -> ns/op
	byBase := map[string]map[string]float64{}
	present := map[string]bool{}
	for _, r := range rep.Results {
		for _, tier := range tierSuffixes {
			suffix := "-" + tier
			if strings.HasSuffix(r.Op, suffix) {
				base := strings.TrimSuffix(r.Op, suffix)
				if byBase[base] == nil {
					byBase[base] = map[string]float64{}
				}
				byBase[base][tier] = r.NsPerOp
				present[tier] = true
				break
			}
		}
	}
	if len(byBase) == 0 {
		return fmt.Errorf("anaheim-bench: %s has no per-tier benchmark rows (op names ending in -go/-neon/-avx512)", path)
	}

	var tiers []string
	for _, tier := range tierSuffixes {
		if present[tier] {
			tiers = append(tiers, tier)
		}
	}
	bases := make([]string, 0, len(byBase))
	for base := range byBase {
		bases = append(bases, base)
	}
	sort.Strings(bases)

	fmt.Fprintf(out, "### Kernel-tier microbenchmarks (%s/%s, %d CPUs)\n\n", rep.GOOS, rep.GOARCH, rep.NumCPU)
	fmt.Fprint(out, "| op |")
	for _, tier := range tiers {
		fmt.Fprintf(out, " %s ns/op |", tier)
	}
	fmt.Fprint(out, " best vs go |\n|---|")
	for range tiers {
		fmt.Fprint(out, "---:|")
	}
	fmt.Fprint(out, "---:|\n")
	for _, base := range bases {
		cells := byBase[base]
		fmt.Fprintf(out, "| %s |", base)
		best := 0.0
		for _, tier := range tiers {
			ns, ok := cells[tier]
			if !ok {
				fmt.Fprint(out, " - |")
				continue
			}
			fmt.Fprintf(out, " %.0f |", ns)
			if tier != "go" && (best == 0 || ns < best) {
				best = ns
			}
		}
		goNs, hasGo := cells["go"]
		if hasGo && best > 0 {
			fmt.Fprintf(out, " %.2fx |\n", goNs/best)
		} else {
			fmt.Fprint(out, " - |\n")
		}
	}
	return nil
}
