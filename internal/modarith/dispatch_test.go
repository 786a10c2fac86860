package modarith

import (
	"math/rand"
	"reflect"
	"testing"
)

// Dispatch-matrix tests: run every kernel table the host has through the
// PUBLIC kernel API (the dispatched methods, not the raw table entries), on
// moduli carrying that table, and check each against the pure-Go oracle.

// on returns m with its row kernels on table k.
func on(m Modulus, k Kernels) Modulus {
	m.k = k.t
	return m
}

// forEachTable runs fn as one sub-benchmark per kernel table, named after it.
func forEachTable(b *testing.B, fn func(b *testing.B, k Kernels)) {
	for _, k := range KernelTables() {
		b.Run(k.String(), func(b *testing.B) { fn(b, k) })
	}
}

func TestKernelTierStrings(t *testing.T) {
	for tier, want := range map[KernelTier]string{TierGo: "go", TierAVX512: "avx512", KernelTier(42): "tier(42)"} {
		if s := tier.String(); s != want {
			t.Errorf("KernelTier(%d).String() = %q, want %q", uint8(tier), s, want)
		}
	}
	// Dashboards read the modarith_kernel_tier gauge by number.
	if TierGo != 0 || TierAVX512 != 3 {
		t.Errorf("tier numbering moved: go=%d avx512=%d, want 0 3", TierGo, TierAVX512)
	}
}

// TestKernelTables: the list holds each table once, the Go one first, and
// the host's table — the one NewModulus gives — is on it.
func TestKernelTables(t *testing.T) {
	ks := KernelTables()
	if ks[0].t != &goKernels {
		t.Fatalf("first table %s, want go", ks[0])
	}
	seen, hostListed := map[string]bool{}, false
	for _, k := range ks {
		if seen[k.String()] {
			t.Errorf("table %s listed twice", k)
		}
		seen[k.String()] = true
		m, err := k.NewModulus(97)
		if err != nil || m.k != k.t {
			t.Errorf("table %s: NewModulus gives a modulus on another table (%v)", k, err)
		}
		hostListed = hostListed || k.t == MustModulus(97).k
	}
	if !hostListed || ActiveTier() != MustModulus(97).k.tier {
		t.Errorf("the host's table (tier %v) is not listed", ActiveTier())
	}
}

// TestDispatchTierMatrix runs the full public kernel surface on every table
// the host can run — each available tier's, and the AVX-512 table without
// IFMA — on moduli carrying it, and compares against results computed with
// the Go table directly: the dispatch matrix.
func TestDispatchTierMatrix(t *testing.T) {
	t.Parallel()
	srcs := convSources(t)
	for _, tt := range KernelTables() {
		tier := tt.t.tier
		t.Run(tt.String(), func(t *testing.T) {
			t.Parallel()
			// Every table is total: an entry added to kernelTable without a
			// body in each table fails here, not as a nil call in production.
			tbl := reflect.ValueOf(tt.t).Elem()
			for i := 0; i < tbl.NumField(); i++ {
				if f := tbl.Field(i); f.Kind() == reflect.Func && f.IsNil() {
					t.Fatalf("table %s: kernel table entry %s is nil", tt, tbl.Type().Field(i).Name)
				}
			}
			var moduli []Modulus
			for _, m := range tierTestModuli(t) {
				moduli = append(moduli, on(m, tt))
			}
			rng := rand.New(rand.NewSource(0xd15b + int64(tier)))
			convHi := make([]uint64, ConvertTile)
			for _, m := range moduli {
				for _, n := range []int{1, 5, 8, 13, 64, 777} {
					a := randRow(rng, n, m.TwoQ)
					b := randRow(rng, n, m.TwoQ)
					w := randBelow(rng, m.Q)
					ws := m.ShoupPrecomp(w)

					out := randRow(rng, n, m.Q)
					want := cloneRow(out)
					m.VecMulAddBarrett(out, a, b)
					vecMulAddBarrettGo(m, want, a, b)
					rowsEqual(t, "VecMulAddBarrett", tier, m, out, want)

					aq := randRow(rng, n, m.Q)
					m.VecMulShoup(out, aq, w, ws)
					vecMulShoupGo(m, want, aq, w, ws)
					rowsEqual(t, "VecMulShoup", tier, m, out, want)

					m.VecSubMulShoupLazy(out, a, b, w, ws)
					vecSubMulShoupLazyGo(m, want, a, b, w, ws)
					rowsEqual(t, "VecSubMulShoupLazy", tier, m, out, want)

					hi, lo := make([]uint64, n), make([]uint64, n)
					whi, wlo := make([]uint64, n), make([]uint64, n)
					m.k.mulWide(hi, lo, a, w)
					vecMulWideGo(whi, wlo, a, w)
					rowsEqual(t, "vecMulWide.hi", tier, m, hi, whi)
					rowsEqual(t, "vecMulWide.lo", tier, m, lo, wlo)
					m.k.mulAccWide(hi, lo, b, w)
					vecMulAccWideGo(whi, wlo, b, w)
					rowsEqual(t, "vecMulAccWide.hi", tier, m, hi, whi)
					rowsEqual(t, "vecMulAccWide.lo", tier, m, lo, wlo)
					m.VecReduceWide128(out, hi, lo)
					vecReduceWide128Go(m, want, whi, wlo)
					rowsEqual(t, "VecReduceWide128", tier, m, out, want)

					p := randRow(rng, n, m.TwoQ)
					wp := cloneRow(p)
					m.VecReduceTwoQ(p)
					vecReduceTwoQGo(m, wp)
					rowsEqual(t, "VecReduceTwoQ", tier, m, p, wp)

					m.VecAdd(out, aq, wp)
					vecAddGo(m, want, aq, wp)
					rowsEqual(t, "VecAdd", tier, m, out, want)
					m.VecSub(out, aq, wp)
					vecSubGo(m, want, aq, wp)
					rowsEqual(t, "VecSub", tier, m, out, want)

					// One reduction's worth of terms is the Go kernel bit for
					// bit; beyond MaxDotTerms the method folds, and the sum
					// must still be the MAC chain's and big.Int's residue.
					for _, k := range []int{1, 9, MaxDotTerms, MaxDotTerms + 1, 2*MaxDotTerms + 5} {
						for _, accumulate := range []bool{false, true} {
							saturated := k > MaxDotTerms
							da := dotRows(rng, k, n, m.TwoQ, saturated)
							db := dotRows(rng, k, n, m.Q, saturated)
							in := dotRows(rng, 1, n, m.TwoQ, saturated)[0]
							got := cloneRow(in)
							m.VecDotLazy(got, da, db, accumulate)
							if k <= MaxDotTerms {
								want := cloneRow(in)
								vecDotLazyGo(m, want, da, db, accumulate)
								rowsEqual(t, "VecDotLazy", tier, m, got, want)
							}
							checkDot(t, "VecDotLazy tier "+tier.String(), m, got, in, da, db, accumulate)
						}
					}
				}
				// The row conversion, and the key switch's two-output dot,
				// against the Go table's entries.
				for _, n := range []int{5, 16, 777} {
					for _, k := range []int{1, 7} {
						rows, c, fold := convOperands(rng, srcs, m, k, n, false)
						for _, lazy := range []bool{false, true} {
							got, want := make([]uint64, n), make([]uint64, n)
							m.VecConvertRow(got, rows, &c, fold, lazy, convHi)
							convertRowTiled(&goKernels, m, want, rows, &c, fold, lazy, convHi)
							rowsEqual(t, "VecConvertRow", tier, m, got, want)
						}
						a := dotRows(rng, k, n, m.TwoQ, false)
						b, u := dotRows(rng, k, n, m.Q, false), dotRows(rng, k, n, m.Q, false)
						gotB, gotA := make([]uint64, n), make([]uint64, n)
						wantB, wantA := make([]uint64, n), make([]uint64, n)
						m.VecDotKeyLazy(gotB, gotA, a, b, u, false, false)
						vecDotKeyLazyGo(m, wantB, wantA, a, b, u, false, false)
						rowsEqual(t, "VecDotKeyLazy B", tier, m, gotB, wantB)
						rowsEqual(t, "VecDotKeyLazy A", tier, m, gotA, wantA)
					}
				}
				// The block permutations through the public functions.
				for _, n := range []int{4, 8, 777 &^ 7} {
					bp, _ := randBlockPerm(rng, n)
					a, b := randRow(rng, n, m.TwoQ), randRow(rng, n, m.Q)
					hi, lo := make([]uint64, n), randRow(rng, n, m.TwoQ)
					whi, wlo := make([]uint64, n), cloneRow(lo)
					m.VecMulAccWidePerm(hi, lo, a, b, bp)
					vecMulAccWidePermGo(whi, wlo, a, b, bp)
					rowsEqual(t, "VecMulAccWidePerm.hi", tier, m, hi, whi)
					rowsEqual(t, "VecMulAccWidePerm.lo", tier, m, lo, wlo)
					got, want := make([]uint64, n), make([]uint64, n)
					m.VecPermute(got, a, bp)
					vecPermuteGo(want, a, bp)
					rowsEqual(t, "VecPermute", tier, m, got, want)
					a = randRow(rng, n, m.Q)
					m.VecAddPermute(got, a, b, bp)
					vecAddPermuteGo(m, want, a, b, bp)
					rowsEqual(t, "VecAddPermute", tier, m, got, want)
				}
				// NTT stage kernels through the public methods.
				for _, span := range []int{1, 2, 4, 16} {
					const nb = 9
					psi, psiShoup := randTwiddles(rng, m, nb)
					a := randRow(rng, 2*span*nb, 4*m.Q)
					want := cloneRow(a)
					m.VecFwdStage(a, psi, psiShoup, span, span, false)
					vecFwdStageGo(m, want, psi, psiShoup, span, span, false)
					rowsEqual(t, "VecFwdStage", tier, m, a, want)

					a = randRow(rng, 2*span*nb, m.TwoQ)
					want = cloneRow(a)
					m.VecInvStage(a, psi, psiShoup, span, span)
					vecInvStageGo(m, want, psi, psiShoup, span, span)
					rowsEqual(t, "VecInvStage", tier, m, a, want)

					x, y := a[:span*nb], a[span*nb:]
					wx, wy := want[:span*nb], want[span*nb:]
					m.VecInvFinal(x, y, psi[0], psiShoup[0], psi[1], psiShoup[1], false)
					vecInvFinalGo(m, wx, wy, psi[0], psiShoup[0], psi[1], psiShoup[1], false)
					rowsEqual(t, "VecInvFinal", tier, m, a, want)
				}
			}
		})
	}
}
