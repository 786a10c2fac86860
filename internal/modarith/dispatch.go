package modarith

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Runtime kernel dispatch. The row kernels in vec.go / wide.go / perm.go and
// the NTT stage kernels are the innermost loops of every FHE operation. They
// run through a function-pointer table selected once at init, so the per-row
// call sites never branch on CPU features. There are two tables: the pure-Go
// one (vec_go.go, wide_go.go, perm.go), compiled everywhere, and the AVX-512
// one, which exists only in an amd64 build without the `noasm` tag on a CPU
// that reports AVX-512. The active table is the AVX-512 one where it exists and the Go one
// otherwise — a function of the binary and CPUID, nothing else. The Go kernels
// are also the AVX-512 wrappers' remainder path and the differential oracle
// the tier-sweep tests compare every assembly kernel against (DESIGN.md
// §3.8.1).

// KernelTier identifies one kernel table.
type KernelTier uint8

const (
	// TierGo is the portable pure-Go implementation; always available.
	TierGo KernelTier = 0
	// TierAVX512 is the amd64 AVX-512 assembly tier (8 lanes, VPMULLQ
	// low-halves, mask-register conditional folds). Requires AVX-512 F+DQ
	// and OS support for ZMM state. Its value stays 3: slots 1 and 2 belonged
	// to retired NEON and AVX2 tiers, and the modarith_kernel_tier gauge is
	// read by number.
	TierAVX512 KernelTier = 3
)

// String returns the canonical lower-case tier name used by the bench row
// names and the obs gauge docs.
func (t KernelTier) String() string {
	switch t {
	case TierGo:
		return "go"
	case TierAVX512:
		return "avx512"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// kernelTable is the function-pointer table the public row-kernel methods
// call through. Every table is total: each entry is set, so call sites never
// nil-check.
type kernelTable struct {
	tier KernelTier

	mulBarrett    func(m Modulus, out, a, b []uint64)
	mulAddBarrett func(m Modulus, out, a, b []uint64)

	mulShoup        func(m Modulus, out, a []uint64, w, wShoup uint64)
	mulShoupAddLazy func(m Modulus, out, a []uint64, w, wShoup uint64)
	subMulShoupLazy func(m Modulus, out, a, b []uint64, w, wShoup uint64)
	rescaleStep     func(m Modulus, row, t []uint64, halfModQ, w, wShoup uint64)

	mulWide           func(accHi, accLo, row []uint64, w uint64)
	mulAccWide        func(accHi, accLo, row []uint64, w uint64)
	mulAccWidePerm    func(accHi, accLo, a, b []uint64, p *BlockPerm)
	foldWide128Lazy   func(m Modulus, accHi, accLo []uint64)
	reduceWide128     func(m Modulus, dst, accHi, accLo []uint64)
	reduceWide128Lazy func(m Modulus, dst, accHi, accLo []uint64)
	reduceTwoQ        func(m Modulus, p []uint64)
	dotLazy           func(m Modulus, out []uint64, a, b [][]uint64, accumulate bool)
	dotKeyLazy        func(m Modulus, outB, outA []uint64, a, b, u [][]uint64, accB, accA bool)
	// convertRow takes its own table: the tiled entries run on the table's
	// wide kernels, and the IFMA one hands them the row tail.
	convertRow func(t *kernelTable, m Modulus, out []uint64, rows [][]uint64, c *ConvRow, fold int, lazy bool, hi []uint64)
	// convertRows converts a group of targets (VecConvertRows); without the
	// IFMA kernel it is convertRow once per target.
	convertRows   func(t *kernelTable, outs [][]uint64, ms []Modulus, cs []ConvRow, js []int, rows [][]uint64, fold int, lazy bool, hi []uint64)
	expandUniform func(m Modulus, dst []uint64, k *StreamKey, tiles []TileRef, n int)

	add       func(m Modulus, out, a, b []uint64)
	sub       func(m Modulus, out, a, b []uint64)
	addScalar func(m Modulus, out, a []uint64, c uint64)

	permute    func(out, a []uint64, p *BlockPerm)
	addPermute func(m Modulus, out, a, b []uint64, p *BlockPerm)

	fwdStage func(m Modulus, a, psi, psiShoup []uint64, span, cnt int, lazy bool)
	invStage func(m Modulus, a, psi, psiShoup []uint64, span, cnt int)
	invFinal func(m Modulus, x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy bool)
}

// goKernels is the pure-Go table: the noasm fallback and the oracle.
var goKernels = kernelTable{
	tier:              TierGo,
	mulBarrett:        vecMulBarrettGo,
	mulAddBarrett:     vecMulAddBarrettGo,
	mulShoup:          vecMulShoupGo,
	mulShoupAddLazy:   vecMulShoupAddLazyGo,
	subMulShoupLazy:   vecSubMulShoupLazyGo,
	rescaleStep:       vecRescaleStepGo,
	mulWide:           vecMulWideGo,
	mulAccWide:        vecMulAccWideGo,
	mulAccWidePerm:    vecMulAccWidePermGo,
	foldWide128Lazy:   vecFoldWide128LazyGo,
	reduceWide128:     vecReduceWide128Go,
	reduceWide128Lazy: vecReduceWide128LazyGo,
	reduceTwoQ:        vecReduceTwoQGo,
	dotLazy:           vecDotLazyGo,
	dotKeyLazy:        vecDotKeyLazyGo,
	convertRow:        convertRowTiled,
	convertRows:       convertRowsLoop,
	expandUniform:     expandUniformGo,
	add:               vecAddGo,
	sub:               vecSubGo,
	addScalar:         vecAddScalarGo,
	permute:           vecPermuteGo,
	addPermute:        vecAddPermuteGo,
	fwdStage:          vecFwdStageGo,
	invStage:          vecInvStageGo,
	invFinal:          vecInvFinalGo,
}

var (
	// asmKernels is the AVX-512 table, or nil where the binary or the CPU
	// lacks it.
	asmKernels = asmKernelTable(hasIFMA)
	// noIFMAKernels is the AVX-512 table a host without IFMA runs, built for
	// SetKernelTierWithoutIFMA only.
	noIFMAKernels = sync.OnceValue(func() *kernelTable { return asmKernelTable(false) })
	tierMu        sync.Mutex
	// active is the table the public kernel methods dispatch through. An
	// atomic pointer so SetKernelTier is race-clean against in-flight rows:
	// a concurrent row sees either the old or the new table, both total.
	active atomic.Pointer[kernelTable]
)

func init() {
	if asmKernels != nil {
		setTier(asmKernels)
	} else {
		setTier(&goKernels)
	}
}

// tableFor returns the table of tier t, or nil if this host has none.
func tableFor(t KernelTier) *kernelTable {
	switch {
	case t == TierGo:
		return &goKernels
	case asmKernels != nil && t == asmKernels.tier:
		return asmKernels
	}
	return nil
}

func setTier(t *kernelTable) {
	active.Store(t)
	// Numeric gauge (0=go 3=avx512) for dashboards; the test log line and
	// /metrics docs carry the name mapping.
	obs.Default.Gauge("modarith_kernel_tier").Set(int64(t.tier))
}

// ActiveTier returns the tier the row kernels currently dispatch to.
func ActiveTier() KernelTier { return active.Load().tier }

// AvailableTiers returns every tier usable on this host (always at least
// TierGo), in preference order (best last).
func AvailableTiers() []KernelTier {
	if asmKernels == nil {
		return []KernelTier{TierGo}
	}
	return []KernelTier{TierGo, asmKernels.tier}
}

// SetKernelTier forces all row kernels onto the given implementation tier.
// It is a test hook with no production caller (CI's lint job enforces that):
// it is exported only because the tier-sweep tests and benchmarks of ckks, ntt
// and rns live in other packages. The swap is atomic: rows already executing
// finish on the table they loaded; subsequent rows use the new tier.
func SetKernelTier(t KernelTier) error {
	tbl := tableFor(t)
	if tbl == nil {
		return fmt.Errorf("modarith: kernel tier %s not available on this host (have %v)", t, AvailableTiers())
	}
	tierMu.Lock()
	defer tierMu.Unlock()
	setTier(tbl)
	return nil
}

// SetKernelTierWithoutIFMA forces the AVX-512 table a host without AVX-512
// IFMA runs — its key-switch dot as two one-output dots, its row conversion
// on the MUL128x8 kernels, its NTT butterflies on MULHI8 at every modulus —
// so tests and benchmarks on an IFMA host cover it too; SetKernelTier with
// TierAVX512 restores the host's own table. A test hook
// under SetKernelTier's rules, with no production caller.
func SetKernelTierWithoutIFMA() error {
	tbl := noIFMAKernels()
	if tbl == nil {
		return fmt.Errorf("modarith: kernel tier %s not available on this host (have %v)", TierAVX512, AvailableTiers())
	}
	tierMu.Lock()
	defer tierMu.Unlock()
	setTier(tbl)
	return nil
}
