//go:build linux

package modarith

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedRow returns an n-word row whose last byte is the last byte before a
// PROT_NONE page, so any read or write past the row faults.
func guardedRow(t *testing.T, n int) []uint64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[size-n*8])), n)
}

func guardedCopy(t *testing.T, src []uint64) []uint64 {
	t.Helper()
	dst := guardedRow(t, len(src))
	copy(dst, src)
	return dst
}

// TestStageKernelsStayInBounds runs every tier's stage kernels with the
// coefficient row and both twiddle rows flush against an unmapped page. The
// assembly does its own addressing, and the tail kernels consume fewer
// twiddles per 16-coefficient step than a vector holds (2 at span 4, 4 at
// span 2), so a full-width twiddle load — or any step past the last block —
// faults here instead of silently reading a neighbour's memory. The AVX-512
// loops run two steps (or two span-8 blocks, or two vectors of a wider block)
// per iteration, so the block counts give each tail loop 1, 2 and 3 steps —
// the pair loop with and without its one-step remainder — and 3 plus blocks
// too few for a step, and each wide loop 1 to 4 blocks: at span 8 the odd
// counts end the row in the one-vector last block.
func TestStageKernelsStayInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	m := tierTestModuli(t)[1]
	rng := rand.New(rand.NewSource(0x6a8d))
	for _, k := range KernelTables() {
		tbl, tier := k.t, k.t.tier
		run := func(name string, kernel func()) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("tier %v %s touched memory outside its operands: %v", tier, name, r)
				}
			}()
			kernel()
		}
		for _, span := range []int{1, 2, 4, 8, 16, 32} {
			step := max(8/span, 1) // blocks per step
			for _, nb := range []int{step, 2 * step, 3 * step, 3*step + 1} {
				psi, psiShoup := randTwiddles(rng, m, nb)
				gPsi, gPsiShoup := guardedCopy(t, psi), guardedCopy(t, psiShoup)
				in := randRow(rng, 2*span*nb, 4*m.Q)
				for _, lazy := range []bool{false, true} {
					a, want := guardedCopy(t, in), cloneRow(in)
					vecFwdStageGo(m, want, psi, psiShoup, span, lazy)
					run("fwdStage", func() { tbl.fwdStage(m, a, gPsi, gPsiShoup, span, lazy) })
					rowsEqual(t, "fwdStage", tier, m, a, want)
				}
				in = randRow(rng, 2*span*nb, m.TwoQ)
				a, want := guardedCopy(t, in), cloneRow(in)
				vecInvStageGo(m, want, psi, psiShoup, span)
				run("invStage", func() { tbl.invStage(m, a, gPsi, gPsiShoup, span) })
				rowsEqual(t, "invStage", tier, m, a, want)
			}
		}
		for _, n := range []int{8, 24, 27} {
			inX, inY := randRow(rng, n, m.TwoQ), randRow(rng, n, m.TwoQ)
			nInv, w := randBelow(rng, m.Q), randBelow(rng, m.Q)
			x, y := guardedCopy(t, inX), guardedCopy(t, inY)
			vecInvFinalGo(m, inX, inY, nInv, m.ShoupPrecomp(nInv), w, m.ShoupPrecomp(w), false)
			run("invFinal", func() { tbl.invFinal(m, x, y, nInv, m.ShoupPrecomp(nInv), w, m.ShoupPrecomp(w), false) })
			rowsEqual(t, "invFinal.x", tier, m, x, inX)
			rowsEqual(t, "invFinal.y", tier, m, y, inY)
		}
	}
}

// TestDotKernelStaysInBounds puts out and every a[k] / b[k] row of the dot
// kernels, and out and every source row of the row conversion and of the
// group conversion (2 to ConvertGroup targets, each output guarded), flush
// against an unmapped page: the assembly walks the row headers and addresses
// the rows itself, so a step past len(out) faults here, while the PREFETCHT0
// the group conversion and the key-switch dot issue a fixed distance past the
// word they load reaches the unmapped page harmlessly. Lengths are one, two
// and three vector steps, and a ragged one (the wrappers' Go path; the
// conversion's IFMA kernel takes 16 coefficients a step and leaves 8 or 11 of
// 24 and 27 to the tiled loop). add and sub ride along with their three rows
// guarded the same way, and so do the block permutations, on the reversal
// (the first output block reads the last source block).
func TestDotKernelStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	m := tierTestModuli(t)[3]
	srcs := convSources(t)
	groupMs := tierTestModuli(t)[:ConvertGroup]
	rng := rand.New(rand.NewSource(0xd07))
	for _, tt := range KernelTables() {
		tbl, tier := tt.t, tt.t.tier
		run := func(name string, kernel func()) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("table %s %s touched memory outside its operands: %v", tt, name, r)
				}
			}()
			kernel()
		}
		for _, n := range []int{8, 16, 24, 27} {
			for _, k := range []int{1, 9} {
				rows, c, fold := convOperands(rng, srcs, m, k, n, false)
				grows := make([][]uint64, k)
				for i, row := range rows {
					grows[i] = guardedCopy(t, row)
				}
				hi := make([]uint64, n)
				for _, lazy := range []bool{false, true} {
					out, want := guardedRow(t, n), make([]uint64, n)
					convertRowTiled(&goKernels, m, want, rows, &c, fold, lazy, hi)
					run("convertRow", func() { tbl.convertRow(tbl, m, out, grows, &c, fold, lazy, hi) })
					rowsEqual(t, "convertRow", tier, m, out, want)
				}
			}
			// The group conversion: 2 to ConvertGroup guarded targets over
			// guarded sources, one pass each.
			for _, k := range []int{1, 9} {
				rows, cs, fold := convGroupOperands(rng, srcs, groupMs, k, n, false)
				grows := make([][]uint64, k)
				for i, row := range rows {
					grows[i] = guardedCopy(t, row)
				}
				hi := make([]uint64, n)
				for g := 2; g <= ConvertGroup; g++ {
					js := make([]int, g)
					for i := range js {
						js[i] = i
					}
					for _, lazy := range []bool{false, true} {
						outs := make([][]uint64, g)
						for i := range outs {
							outs[i] = guardedRow(t, n)
						}
						run("convertRows", func() { tbl.convertRows(tbl, outs, groupMs, cs, js, grows, fold, lazy, hi) })
						for i, j := range js {
							want := make([]uint64, n)
							convertRowTiled(&goKernels, groupMs[j], want, rows, &cs[j], fold, lazy, hi)
							rowsEqual(t, "convertRows", tier, groupMs[j], outs[i], want)
						}
					}
				}
			}
			for _, k := range []int{1, 9, MaxDotTerms} {
				a, b := dotRows(rng, k, n, m.TwoQ, false), dotRows(rng, k, n, m.Q, false)
				ga, gb := make([][]uint64, k), make([][]uint64, k)
				for i := range a {
					ga[i], gb[i] = guardedCopy(t, a[i]), guardedCopy(t, b[i])
				}
				in := randRow(rng, n, m.TwoQ)
				for _, accumulate := range []bool{false, true} {
					out, want := guardedCopy(t, in), cloneRow(in)
					vecDotLazyGo(m, want, a, b, accumulate)
					run("dotLazy", func() { dotOf(tbl)(m, out, ga, gb, accumulate) })
					rowsEqual(t, "dotLazy", tier, m, out, want)

					outB, outA := guardedCopy(t, in), guardedCopy(t, in)
					run("dotKeyLazy", func() { tbl.dotKeyLazy(m, outB, outA, ga, gb, gb, accumulate, accumulate) })
					rowsEqual(t, "dotKeyLazy B", tier, m, outB, want)
					rowsEqual(t, "dotKeyLazy A", tier, m, outA, want)
				}
			}
			a, b := guardedCopy(t, randRow(rng, n, m.Q)), guardedCopy(t, randRow(rng, n, m.Q))
			out, want := guardedRow(t, n), make([]uint64, n)
			vecAddGo(m, want, a, b)
			run("add", func() { tbl.add(m, out, a, b) })
			rowsEqual(t, "add", tier, m, out, want)
			vecSubGo(m, want, a, b)
			run("sub", func() { tbl.sub(m, out, a, b) })
			rowsEqual(t, "sub", tier, m, out, want)
			if n%permLanes != 0 {
				continue
			}
			p := NewBlockPerm(n, func(i int) int { return n - 1 - i })
			vecPermuteGo(want, a, p)
			run("permute", func() { tbl.permute(out, a, p) })
			rowsEqual(t, "permute", tier, m, out, want)
			vecAddPermuteGo(m, want, a, b, p)
			run("addPermute", func() { tbl.addPermute(m, out, a, b, p) })
			rowsEqual(t, "addPermute", tier, m, out, want)
			hi, lo := guardedRow(t, n), guardedCopy(t, want)
			whi, wlo := make([]uint64, n), cloneRow(want)
			vecMulAccWidePermGo(whi, wlo, a, b, p)
			run("mulAccWidePerm", func() { tbl.mulAccWidePerm(hi, lo, a, b, p) })
			rowsEqual(t, "mulAccWidePerm.hi", tier, m, hi, whi)
			rowsEqual(t, "mulAccWidePerm.lo", tier, m, lo, wlo)
		}
	}
}
