package modarith

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Runtime kernel dispatch. The row kernels in vec.go / wide.go and the NTT
// stage kernels are the innermost loops of every FHE operation; on amd64
// and arm64 they have hand-written assembly implementations selected once at
// init into a function-pointer table, so the per-row call sites never branch
// on CPU features. The pure-Go kernels (vec_go.go, wide_go.go) are always
// compiled and serve three roles: the only implementation under the `noasm`
// build tag or on other architectures, the per-kernel fallback for tiers
// that implement a subset of the table, and the differential oracle the
// tier-sweep tests compare every assembly implementation against
// (DESIGN.md §3.8.1).
//
// The active tier can be forced — for differential tests, benchmarking one
// tier against another, or sidestepping a suspect kernel in production —
// either programmatically via SetKernelTier or with the environment variable
// ANAHEIM_KERNEL_TIER=go|neon|avx512, read once at init.

// KernelTier identifies one implementation family of the row kernels.
// Higher values are preferred by the init-time selection when available.
type KernelTier uint8

const (
	// TierGo is the portable pure-Go implementation; always available.
	TierGo KernelTier = iota
	// TierNEON is the arm64 assembly tier. The 64x64->128 multiply ladders
	// are scalar MUL/UMULH (AArch64 SIMD has no 64-bit vector multiply);
	// ASIMD is architecturally mandatory on arm64, so the tier is always
	// available there.
	TierNEON
	// TierAVX512 is the amd64 AVX-512 assembly tier (8 lanes, VPMULLQ
	// low-halves, mask-register conditional folds). Requires AVX-512 F+DQ
	// and OS support for ZMM state. Its value stays 3: slot 2 belonged to a
	// retired AVX2 tier, and the modarith_kernel_tier gauge is read by number.
	TierAVX512 KernelTier = 3
)

// String returns the canonical lower-case tier name used by
// ANAHEIM_KERNEL_TIER, the bench row suffixes, and the obs gauge docs.
func (t KernelTier) String() string {
	switch t {
	case TierGo:
		return "go"
	case TierNEON:
		return "neon"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseKernelTier is the inverse of String.
func ParseKernelTier(s string) (KernelTier, error) {
	for _, t := range []KernelTier{TierGo, TierNEON, TierAVX512} {
		if s == t.String() {
			return t, nil
		}
	}
	return TierGo, fmt.Errorf("modarith: unknown kernel tier %q (want go, neon, or avx512)", s)
}

// kernelTable is the function-pointer table the public row-kernel methods
// call through. One table exists per available tier; entries a tier does not
// implement are filled with the pure-Go kernel at init, so every table is
// total and call sites never nil-check.
type kernelTable struct {
	tier KernelTier

	mulAddLazy    func(m Modulus, out, a, b []uint64)
	mulBarrett    func(m Modulus, out, a, b []uint64)
	mulAddBarrett func(m Modulus, out, a, b []uint64)

	mulShoup        func(m Modulus, out, a []uint64, w, wShoup uint64)
	subMulShoupLazy func(m Modulus, out, a, b []uint64, w, wShoup uint64)
	rescaleStep     func(m Modulus, row, t []uint64, halfModQ, w, wShoup uint64)

	mulWide           func(accHi, accLo, row []uint64, w uint64)
	mulAccWide        func(accHi, accLo, row []uint64, w uint64)
	mulAccWideIdx     func(accHi, accLo, a, b []uint64, idx []uint32)
	foldWide128Lazy   func(m Modulus, accHi, accLo []uint64)
	reduceWide128     func(m Modulus, dst, accHi, accLo []uint64)
	reduceWide128Lazy func(m Modulus, dst, accHi, accLo []uint64)
	reduceTwoQ        func(m Modulus, p []uint64)
	dotLazy           func(m Modulus, out []uint64, a, b [][]uint64, accumulate bool)
	dotKeyLazy        func(m Modulus, outB, outA []uint64, a, b, u [][]uint64, accB, accA bool)
	expandUniform     func(m Modulus, dst []uint64, k *StreamKey, tiles []TileRef, n int)

	add func(m Modulus, out, a, b []uint64)
	sub func(m Modulus, out, a, b []uint64)

	fwdStage func(m Modulus, a, psi, psiShoup []uint64, span, cnt int, lazy bool)
	invStage func(m Modulus, a, psi, psiShoup []uint64, span, cnt int)
	invFinal func(m Modulus, x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy bool)
}

// goKernels is the pure-Go table: the noasm fallback and the oracle.
var goKernels = kernelTable{
	tier:              TierGo,
	mulAddLazy:        vecMulAddLazyGo,
	mulBarrett:        vecMulBarrettGo,
	mulAddBarrett:     vecMulAddBarrettGo,
	mulShoup:          vecMulShoupGo,
	subMulShoupLazy:   vecSubMulShoupLazyGo,
	rescaleStep:       vecRescaleStepGo,
	mulWide:           vecMulWideGo,
	mulAccWide:        vecMulAccWideGo,
	mulAccWideIdx:     vecMulAccWideIdxGo,
	foldWide128Lazy:   vecFoldWide128LazyGo,
	reduceWide128:     vecReduceWide128Go,
	reduceWide128Lazy: vecReduceWide128LazyGo,
	reduceTwoQ:        vecReduceTwoQGo,
	dotLazy:           vecDotLazyGo,
	dotKeyLazy:        vecDotKeyLazyGo,
	expandUniform:     expandUniformGo,
	add:               vecAddGo,
	sub:               vecSubGo,
	fwdStage:          vecFwdStageGo,
	invStage:          vecInvStageGo,
	invFinal:          vecInvFinalGo,
}

var (
	tierMu sync.Mutex
	// tierTables holds one normalized (total) table per available tier.
	tierTables = map[KernelTier]*kernelTable{}
	// active is the table the public kernel methods dispatch through. An
	// atomic pointer so SetKernelTier is race-clean against in-flight rows:
	// a concurrent row sees either the old or the new table, both total.
	active atomic.Pointer[kernelTable]
)

// fillDefaults replaces every nil entry of t with the pure-Go kernel so the
// table is total. Tiers implement subsets; dispatch stays per-kernel.
func fillDefaults(t *kernelTable) {
	if t.mulAddLazy == nil {
		t.mulAddLazy = goKernels.mulAddLazy
	}
	if t.mulBarrett == nil {
		t.mulBarrett = goKernels.mulBarrett
	}
	if t.mulAddBarrett == nil {
		t.mulAddBarrett = goKernels.mulAddBarrett
	}
	if t.mulShoup == nil {
		t.mulShoup = goKernels.mulShoup
	}
	if t.subMulShoupLazy == nil {
		t.subMulShoupLazy = goKernels.subMulShoupLazy
	}
	if t.rescaleStep == nil {
		t.rescaleStep = goKernels.rescaleStep
	}
	if t.mulWide == nil {
		t.mulWide = goKernels.mulWide
	}
	if t.mulAccWide == nil {
		t.mulAccWide = goKernels.mulAccWide
	}
	if t.mulAccWideIdx == nil {
		t.mulAccWideIdx = goKernels.mulAccWideIdx
	}
	if t.foldWide128Lazy == nil {
		t.foldWide128Lazy = goKernels.foldWide128Lazy
	}
	if t.reduceWide128 == nil {
		t.reduceWide128 = goKernels.reduceWide128
	}
	if t.reduceWide128Lazy == nil {
		t.reduceWide128Lazy = goKernels.reduceWide128Lazy
	}
	if t.reduceTwoQ == nil {
		t.reduceTwoQ = goKernels.reduceTwoQ
	}
	if t.dotLazy == nil {
		t.dotLazy = goKernels.dotLazy
	}
	if t.dotKeyLazy == nil {
		t.dotKeyLazy = goKernels.dotKeyLazy
	}
	if t.expandUniform == nil {
		t.expandUniform = goKernels.expandUniform
	}
	if t.add == nil {
		t.add = goKernels.add
	}
	if t.sub == nil {
		t.sub = goKernels.sub
	}
	if t.fwdStage == nil {
		t.fwdStage = goKernels.fwdStage
	}
	if t.invStage == nil {
		t.invStage = goKernels.invStage
	}
	if t.invFinal == nil {
		t.invFinal = goKernels.invFinal
	}
}

func init() {
	tierTables[TierGo] = &goKernels
	for tier, tbl := range asmKernelTables() {
		t := tbl
		t.tier = tier
		fillDefaults(&t)
		tierTables[tier] = &t
	}
	best := pickDefaultTier(tierTables)
	if env := os.Getenv("ANAHEIM_KERNEL_TIER"); env != "" {
		if tier, err := ParseKernelTier(env); err != nil {
			fmt.Fprintf(os.Stderr, "modarith: ignoring ANAHEIM_KERNEL_TIER: %v\n", err)
		} else if _, ok := tierTables[tier]; !ok {
			fmt.Fprintf(os.Stderr, "modarith: ignoring ANAHEIM_KERNEL_TIER=%s: tier not available on this host (have %v)\n", env, AvailableTiers())
		} else {
			best = tier
		}
	}
	setTier(best)
}

// pickDefaultTier returns the tier selected automatically at init: the
// highest available one.
func pickDefaultTier(tables map[KernelTier]*kernelTable) KernelTier {
	best := TierGo
	for tier := range tables {
		if tier > best {
			best = tier
		}
	}
	return best
}

func setTier(t KernelTier) {
	active.Store(tierTables[t])
	// Numeric gauge (0=go 1=neon 3=avx512) for dashboards; the test
	// log line and /metrics docs carry the name mapping.
	obs.Default.Gauge("modarith_kernel_tier").Set(int64(t))
}

// ActiveTier returns the tier the row kernels currently dispatch to.
func ActiveTier() KernelTier { return active.Load().tier }

// AvailableTiers returns every tier usable on this host (always at least
// TierGo), in preference order (best last).
func AvailableTiers() []KernelTier {
	out := make([]KernelTier, 0, len(tierTables))
	for tier := range tierTables {
		out = append(out, tier)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetKernelTier forces all row kernels onto the given implementation tier.
// It is a test hook with no production caller (CI's lint job enforces that):
// it is exported only because the tier-sweep tests of ckks, ntt and rns live
// in other packages. The operator's switch is ANAHEIM_KERNEL_TIER, read once
// at init. The swap is atomic: rows already executing finish on the table
// they loaded; subsequent rows use the new tier.
func SetKernelTier(t KernelTier) error {
	tierMu.Lock()
	defer tierMu.Unlock()
	if _, ok := tierTables[t]; !ok {
		return fmt.Errorf("modarith: kernel tier %s not available on this host (have %v)", t, AvailableTiers())
	}
	setTier(t)
	return nil
}
