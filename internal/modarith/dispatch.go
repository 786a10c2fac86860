package modarith

import (
	"fmt"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Runtime kernel dispatch. The row kernels in vec.go / wide.go / perm.go and
// the NTT stage kernels are the innermost loops of every FHE operation. They
// run through a function-pointer table that every Modulus carries, so the
// per-row call sites never branch on CPU features and read no global. There
// are two tables: the pure-Go one (vec_go.go, wide_go.go, perm.go), compiled
// everywhere, and the AVX-512 one, which exists only in an amd64 build
// without the `noasm` tag on a CPU that reports AVX-512. NewModulus gives a
// modulus the AVX-512 table where it exists and the Go one otherwise — a
// function of the binary and CPUID, nothing else. The Go kernels are also the
// AVX-512 wrappers' remainder path and the differential oracle the tier-sweep
// tests compare every assembly kernel against, on moduli from
// KernelTables (DESIGN.md §3.8.1).

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
	name string

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
	expand     func(out, c []uint64)

	fwdStage func(m Modulus, a, psi, psiShoup []uint64, span int, lazy bool)
	invStage func(m Modulus, a, psi, psiShoup []uint64, span int)
	invFinal func(m Modulus, x, y []uint64, nInv, nInvShoup, w, wShoup uint64, lazy bool)
}

// goKernels is the pure-Go table: the noasm fallback and the oracle.
var goKernels = kernelTable{
	tier:              TierGo,
	name:              "go",
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
	dotKeyLazy:        vecDotKeyLazyGo,
	convertRow:        convertRowTiled,
	convertRows:       convertRowsLoop,
	expandUniform:     expandUniformGo,
	add:               vecAddGo,
	sub:               vecSubGo,
	addScalar:         vecAddScalarGo,
	permute:           vecPermuteGo,
	addPermute:        vecAddPermuteGo,
	expand:            vecExpandGo,
	fwdStage:          vecFwdStageGo,
	invStage:          vecInvStageGo,
	invFinal:          vecInvFinalGo,
}

// The two narrow bounds, beside the table selection they steer: a modulus
// below one runs an IFMA table's 52-bit multiply-adds where a wider one runs
// the 64-bit MUL128x8 kernels. Both pick instructions, never values.
const (
	// narrowModulus is the largest modulus whose rows, exact or lazy (< 2q),
	// always fit the 52 bits a multiply-add reads: a base conversion's
	// source modulus (NewConvRow) and the key switch's dot modulus.
	narrowModulus = 1 << 51
	// nttNarrowModulus bounds the moduli whose NTT butterflies run on the
	// multiply-adds: below it every butterfly operand (< 4q) fits 52 bits,
	// and the Shoup product they form is exact.
	nttNarrowModulus = 1 << 50
)

var (
	// host is the table NewModulus gives every modulus: the AVX-512 one
	// where the binary and the CPU have it, the Go one otherwise.
	host = hostTable()
	// tables is KernelTables' list.
	tables = kernelTables()
)

func hostTable() *kernelTable {
	t := asmKernelTable(hasIFMA)
	if t == nil {
		t = &goKernels
	}
	// Numeric gauge (0=go 3=avx512) for dashboards; the test log line and
	// /metrics docs carry the name mapping.
	obs.Default.Gauge("modarith_kernel_tier").Set(int64(t.tier))
	return t
}

func kernelTables() []Kernels {
	ks := []Kernels{{&goKernels}}
	if host == &goKernels {
		return ks
	}
	ks = append(ks, Kernels{host})
	if hasIFMA {
		t := asmKernelTable(false)
		t.name = "avx512-noifma"
		ks = append(ks, Kernels{t})
	}
	return ks
}

// ActiveTier returns the tier of the host's table, the one NewModulus gives
// every modulus.
func ActiveTier() KernelTier { return host.tier }

// Kernels is one kernel table. A Modulus runs its row kernels on the table
// it carries. The zero Kernels is the host's table.
type Kernels struct{ t *kernelTable }

func (k Kernels) table() *kernelTable {
	if k.t == nil {
		return host
	}
	return k.t
}

// String returns the table's name: "go", "avx512" or "avx512-noifma".
func (k Kernels) String() string { return k.table().name }

// NewModulus is the package's NewModulus on table k.
func (k Kernels) NewModulus(q uint64) (Modulus, error) { return newModulus(q, k.table()) }

// KernelTables returns every kernel table this host runs, each once: "go";
// on an AVX-512 host "avx512"; and on an IFMA host "avx512-noifma", the
// AVX-512 table a host without IFMA runs — its key-switch dot as two
// one-output dots, its row conversion on the MUL128x8 kernels, its NTT
// butterflies on MULHI8 at every modulus. It is for tests and benchmarks,
// which sweep it; a production modulus carries the host's table, from
// NewModulus (CI's lint keeps it out of non-test code).
func KernelTables() []Kernels { return tables }
