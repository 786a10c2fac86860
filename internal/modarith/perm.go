package modarith

import (
	"fmt"
	"math/bits"
)

// Block permutations: the row permutations whose every aligned block of
// permLanes output words reads exactly one aligned block of the input, each
// through one of at most permLanes lane shuffles. The NTT-domain Galois
// automorphisms are of this form in bit-reversed order (internal/ring, and
// DESIGN.md §3.8.1), so their kernels below move a whole block per step —
// one load and one in-register shuffle on the AVX-512 table — instead of
// gathering word by word.

// permLanes is the block width of a BlockPerm: one 512-bit vector of words.
const permLanes = 8

// BlockPerm is a block permutation of n-word rows: output word
// permLanes·j + l reads input word lanes·(blocks[j]>>3) + shuf[blocks[j]&7][l].
// A row shorter than permLanes is one block of n lanes. It is immutable once
// built, so concurrent kernels may share it.
type BlockPerm struct {
	lanes  int                          // words per block: permLanes, or n below it
	blocks []uint32                     // per output block: source block << 3 | shuffle id
	shuf   [permLanes][permLanes]uint64 // lane tables, one qword per lane (VPERMQ's index vector)
}

// NewBlockPerm returns the block permutation of n-word rows whose output
// word i reads input word src(i). n must be a multiple of permLanes, or
// below it. It panics if an output block reads more than one input block or
// the blocks need more than permLanes distinct lane shuffles: callers build
// permutations that are block-closed by construction, so either is a bug.
func NewBlockPerm(n int, src func(i int) int) *BlockPerm {
	lanes := min(n, permLanes)
	if n <= 0 || n%lanes != 0 || n/lanes > 1<<29 {
		panic(fmt.Sprintf("modarith: NewBlockPerm of %d words", n))
	}
	p := &BlockPerm{lanes: lanes, blocks: make([]uint32, n/lanes)}
	shuffles := 0
	for j := range p.blocks {
		var lane [permLanes]uint64
		sb := -1
		for l := 0; l < lanes; l++ {
			s := src(j*lanes + l)
			if s < 0 || s >= n || (sb >= 0 && s/lanes != sb) {
				panic(fmt.Sprintf("modarith: NewBlockPerm: output block %d is not closed (word %d reads %d)", j, j*lanes+l, s))
			}
			sb, lane[l] = s/lanes, uint64(s%lanes)
		}
		id := 0
		for id < shuffles && p.shuf[id] != lane {
			id++
		}
		if id == shuffles {
			if shuffles == permLanes {
				panic(fmt.Sprintf("modarith: NewBlockPerm: more than %d lane shuffles", permLanes))
			}
			p.shuf[id] = lane
			shuffles++
		}
		p.blocks[j] = uint32(sb)<<3 | uint32(id)
	}
	return p
}

// Len returns the row length the permutation acts on.
func (p *BlockPerm) Len() int { return len(p.blocks) * p.lanes }

// VecMulAccWidePerm continues an accumulation chain with the permuted row:
// (accHi[j], accLo[j]) += a[π(j)]·b[j] — the NTT-domain automorphism fused
// into a multiply-accumulate (AutAccum) whose sum stays exact in 128 bits.
// No reduction, so m only picks the kernel table; the caller bounds the
// chain as for any 128-bit accumulation (with a < 2q, b < q and an addend
// below 2q, MaxDotTerms products always fit). Every row holds p.Len() words.
func (m Modulus) VecMulAccWidePerm(accHi, accLo, a, b []uint64, p *BlockPerm) {
	m.k.mulAccWidePerm(accHi, accLo, a, b, p)
}

// VecPermute sets out[j] = a[π(j)] for the p.Len() words of each row, on
// m's kernel table. out must not alias a.
func (m Modulus) VecPermute(out, a []uint64, p *BlockPerm) {
	m.k.permute(out, a, p)
}

// VecAddPermute sets out[j] = a[π(j)] + b[π(j)] mod q for a, b < q: VecAdd
// and VecPermute in one pass, bit-identical to them because the sum is
// element-wise. out must alias neither a nor b.
func (m Modulus) VecAddPermute(out, a, b []uint64, p *BlockPerm) {
	m.k.addPermute(m, out, a, b, p)
}

// The Go bodies: the oracle every table is held to, the AVX-512 table's
// kernels for rows below permLanes words, and the Go table's.

func vecMulAccWidePermGo(accHi, accLo, a, b []uint64, p *BlockPerm) {
	w := p.lanes
	for j, e := range p.blocks {
		src, sh := a[int(e>>3)*w:][:w], &p.shuf[e&7]
		hi, lo, bj := accHi[j*w:][:w], accLo[j*w:][:w], b[j*w:][:w]
		for l := range bj {
			phi, plo := bits.Mul64(src[sh[l]], bj[l])
			s, carry := bits.Add64(lo[l], plo, 0)
			lo[l] = s
			hi[l] += phi + carry
		}
	}
}

func vecPermuteGo(out, a []uint64, p *BlockPerm) {
	w := p.lanes
	for j, e := range p.blocks {
		src, sh, dst := a[int(e>>3)*w:][:w], &p.shuf[e&7], out[j*w:][:w]
		for l := range dst {
			dst[l] = src[sh[l]]
		}
	}
}

func vecAddPermuteGo(m Modulus, out, a, b []uint64, p *BlockPerm) {
	q, w := m.Q, p.lanes
	for j, e := range p.blocks {
		o := int(e>>3) * w
		sa, sb, sh, dst := a[o:][:w], b[o:][:w], &p.shuf[e&7], out[j*w:][:w]
		for l := range dst {
			s := sa[sh[l]] + sb[sh[l]]
			if s >= q {
				s -= q
			}
			dst[l] = s
		}
	}
}
