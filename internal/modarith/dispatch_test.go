package modarith

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Dispatch-matrix tests: force every host-available tier through the PUBLIC
// kernel API (the dispatched methods, not the raw table entries) and check
// each against the pure-Go oracle, then hammer SetKernelTier concurrently
// with in-flight rows to prove the atomic table swap is race-clean
// (CI runs this under -race -count=2 -shuffle=on).

func restoreTier(t testing.TB) {
	t.Helper()
	orig := ActiveTier()
	t.Cleanup(func() {
		if err := SetKernelTier(orig); err != nil {
			t.Fatalf("restoring tier %v: %v", orig, err)
		}
	})
}

// forEachTier runs fn as one sub-benchmark per available tier, named after
// it, with that tier's table active.
func forEachTier(b *testing.B, fn func(b *testing.B)) {
	restoreTier(b)
	for _, tier := range AvailableTiers() {
		b.Run(tier.String(), func(b *testing.B) {
			if err := SetKernelTier(tier); err != nil {
				b.Fatal(err)
			}
			fn(b)
		})
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

func TestSetKernelTierUnavailable(t *testing.T) {
	avail := map[KernelTier]bool{}
	for _, tier := range AvailableTiers() {
		avail[tier] = true
	}
	if !avail[TierGo] {
		t.Fatal("TierGo must always be available")
	}
	for _, tier := range []KernelTier{KernelTier(1), KernelTier(2), TierAVX512, KernelTier(42)} {
		if !avail[tier] {
			if err := SetKernelTier(tier); err == nil {
				t.Errorf("SetKernelTier(%v) should fail on this host", tier)
			}
		}
	}
}

// TestDispatchTierMatrix runs the full public kernel surface on every
// available tier and compares against results computed with the Go table
// directly — the contract suite the ISSUE calls the dispatch matrix.
func TestDispatchTierMatrix(t *testing.T) {
	restoreTier(t)
	moduli := tierTestModuli(t)
	for _, tier := range AvailableTiers() {
		tier := tier
		t.Run(tier.String(), func(t *testing.T) {
			// Every table is total: an entry added to kernelTable without a
			// body in each table fails here, not as a nil call in production.
			tbl := reflect.ValueOf(tableFor(tier)).Elem()
			for i := 0; i < tbl.NumField(); i++ {
				if f := tbl.Field(i); f.Kind() == reflect.Func && f.IsNil() {
					t.Fatalf("tier %v: kernel table entry %s is nil", tier, tbl.Type().Field(i).Name)
				}
			}
			if err := SetKernelTier(tier); err != nil {
				t.Fatal(err)
			}
			if got := ActiveTier(); got != tier {
				t.Fatalf("ActiveTier() = %v after SetKernelTier(%v)", got, tier)
			}
			rng := rand.New(rand.NewSource(0xd15b + int64(tier)))
			for _, m := range moduli {
				for _, n := range []int{1, 5, 8, 13, 64, 777} {
					a := randRow(rng, n, m.TwoQ)
					b := randRow(rng, n, m.TwoQ)
					w := randBelow(rng, m.Q)
					ws := m.ShoupPrecomp(w)

					out := randRow(rng, n, m.TwoQ)
					want := cloneRow(out)
					m.VecMulAddLazy(out, a, b)
					vecMulAddLazyGo(m, want, a, b)
					rowsEqual(t, "VecMulAddLazy", tier, m, out, want)

					out = randRow(rng, n, m.Q)
					want = cloneRow(out)
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
					VecMulWide(hi, lo, a, w)
					vecMulWideGo(whi, wlo, a, w)
					rowsEqual(t, "VecMulWide.hi", tier, m, hi, whi)
					rowsEqual(t, "VecMulWide.lo", tier, m, lo, wlo)
					VecMulAccWide(hi, lo, b, w)
					vecMulAccWideGo(whi, wlo, b, w)
					rowsEqual(t, "VecMulAccWide.hi", tier, m, hi, whi)
					rowsEqual(t, "VecMulAccWide.lo", tier, m, lo, wlo)
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

// TestSetKernelTierRace flips tiers while worker goroutines run rows through
// the dispatched API. Any torn table read or missed synchronization shows up
// under -race; results are also checked (every tier is bit-identical, so the
// flips must be invisible in the outputs).
func TestSetKernelTierRace(t *testing.T) {
	restoreTier(t)
	m := tierTestModuli(t)[2] // the 60-bit modulus
	const n = 256
	rng := rand.New(rand.NewSource(7))
	a := randRow(rng, n, m.TwoQ)
	b := randRow(rng, n, m.TwoQ)
	want := make([]uint64, n)
	vecMulBarrettGo(m, want, a, b)

	tiers := AvailableTiers()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint64, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.VecMulBarrett(out, a, b)
				for j := range out {
					if out[j] != want[j] {
						t.Errorf("row diverged at %d during tier flips", j)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := SetKernelTier(tiers[i%len(tiers)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
