package ring

import (
	"sync"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/par"
	"github.com/anaheim-sim/anaheim/internal/rns"
)

// Limb-resident pipeline executor, the package's one limb executor. A
// Pipeline records a chain of per-limb stages (NTT/INTT, MAC row kernels,
// automorphism permutations, rescale epilogues) and executes the *entire
// chain for one limb* before moving to the next, inside a single par
// dispatch — one barrier per chain instead of one per kernel. Every Ring limb
// op (ops.go) is a one-stage chain on it, so parallel dispatch, the
// limb-transform counters and the traffic model live in Run and finish only.
//
// The point is cache residency, the software analog of Anaheim's
// move-the-kernel-to-the-data thesis: running each kernel as its own sweep
// streams every operand (limbs × N × 8 bytes, megabytes at bootstrap
// parameters) through DRAM once per kernel, while a chain touches one
// N×8-byte row per operand (128 KB at N=2^14) that stays L2-resident across
// all its stages. The stage set is a fixed op-code enum executed over the
// modarith row kernels, in the same per-limb order whatever the chain, so a
// chain is bit-identical to the same stages run one Ring op at a time on
// every tier — the differential tests in pipeline_test.go and the ckks
// evaluator hold this line.
//
// Usage:
//
//	pl := ring.GetPipeline()
//	ln := pl.Lane(rq, level)         // one lane per (ring, level) pair
//	digits := ln.Scratch(d)          // per-limb scratch rows, no polynomial
//	ln.ModUp(digits, in, pre, conv, 0) // record stages; no work yet
//	ln.DotKeyLazy(u0, u1, digits, keyB, key, 0, false, false)
//	ln.ReduceLazy(u0)
//	pl.Run()                         // one barrier for the whole chain
//	pl.Release()
//
// Contracts:
//   - Stages within a lane run strictly in recorded order for each limb;
//     limbs (and lanes) are mutually independent RNS residues. A chain must
//     therefore never make limb i read a row that another limb's stage
//     writes.
//     The one cross-limb read is a base conversion's (ModUp, BConv): the
//     first limb of a limb group forms the group's rows from every row of a
//     premultiplied source, which a previous Run wrote and which this Run
//     must leave alone; Run hands such a lane's limbs out by whole groups.
//   - A Scratch polynomial has no rows of its own: while a limb's chain runs,
//     its row is one of the executing goroutine's Run scratch rows, so it
//     holds a value only from the stage that writes it to the end of that
//     limb's chain. Stages read and write it like any polynomial; it never
//     reaches memory, and the traffic model charges nothing for it.
//   - Domain (IsNTT) checks happen at record time against the *pending*
//     domain (the flag the polynomial will have at that point of the chain);
//     flags are applied to the Poly headers when Run completes.
//   - Lazy-domain discipline: accumulators stay in [0, 2q) between MAC
//     stages and must pass through ReduceLazy before an exact kernel or the
//     end of the chain hands them to exact consumers.
//   - A 128-bit accumulator (AutMulAccWide) keeps its low words in its own
//     polynomial and its high words in a scratch row the Run owns, one per
//     accumulator and per concurrently executing limb — never a pooled
//     polynomial. It is opened by its first MAC of the limb's chain and must
//     be closed by ReduceWide later in the same chain: the scratch row does
//     not outlive the limb. DotKeyLazy's expanded key rows live in the
//     same per-goroutine scratch, one tile per term.
//   - All polynomials recorded into a lane must have at least level+1 limbs.
//     Run resets the pipeline for re-recording; Release returns it to a pool.
type Pipeline struct {
	lanes  []*Lane
	nLanes int
}

// Lane is the per-(ring, level) stage list of a Pipeline. All stages of a
// lane execute over limbs 0..level of its ring.
type Lane struct {
	r     *Ring
	level int

	stages  []stage
	effects []polyEffect

	// dotRows is the row-header scratch of the DotKeyLazy stages: limb i
	// gathers its operand rows into dotRows[3·dotTerms·i:][:3·dotTerms], and
	// names the key tiles it expands in tileRefs[dotTerms·i:][:dotTerms], so
	// concurrent limbs share nothing and executing a chain allocates nothing.
	dotRows  [][]uint64
	tileRefs []modarith.TileRef
	dotTerms int // most terms any recorded DotKeyLazy stage sums

	// wide lists the lane's 128-bit accumulators; an accumulator's index is
	// its high-word row in the Run's scratch.
	wide []wideAcc

	// group is the limbs the Run hands out together: modarith.ConvertGroup
	// once a base conversion is recorded, so a ModUp or BConv stage converts
	// its group's rows in one pass over the sources, else 1. convSets counts
	// the conversion outputs per limb (a ModUp's digits, a BConv's row); each
	// has a set of group rows in the Run's scratch.
	group    int
	convSets int

	// scratch holds the lane's Scratch polynomials, the first nScratch of
	// them handed out for the chain being recorded; scratch polynomial k's
	// row is the executing goroutine's scratch row k.
	scratch  []*Poly
	nScratch int

	nttRows    int // limb rows counting toward the forward limb-transform counter
	inttRows   int // ...and the inverse counter
	naiveWords int // words the stages would move, each run as its own sweep
}

type stageOp uint8

const (
	opFunc stageOp = iota
	opCopy
	opNTT
	opNTTLazy
	opINTT
	opMulCoeffs
	opMulCoeffsAdd
	opDotKeyLazy
	opModUp
	opBConv
	opAutMulAccWide
	opFoldWide
	opReduceWide
	opReduceLazy
	opAdd
	opSub
	opNeg
	opZero
	opMulScalars
	opMulScalarsAddLazy
	opAddScalars
	opSubMulScalarsLazy
	opAutNTT
	opAddAutNTT
	opExpand
)

// stage is one recorded per-limb operation. A struct of op code plus operand
// pointers — not a closure — so recording a chain allocates nothing in steady
// state (the slices are pooled with the Pipeline).
type stage struct {
	op   stageOp
	out  *Poly
	a, b *Poly
	// opDotKeyLazy: the caller's operand slices (not copied) and whether
	// out is accumulated onto. opAutMulAccWide: acc is false on the MAC that
	// opens the accumulator, which clears its high-word row first. opModUp:
	// as are the digit rows.
	as, bs []*Poly
	acc    bool
	// opModUp: one converter per digit, lane limb i being target row off+i
	// of each. opBConv: the converter, lane limb i being its target row i.
	conv []*rns.BasisConverter
	bc   *rns.BasisConverter
	off  int
	grp  int // opModUp/opBConv: the first of the stage's sets of group rows
	// opDotKeyLazy: the second accumulator, whether it is accumulated onto,
	// and the key whose uniform rows it dots with as, by their half (0 Q, 1 P).
	out2 *Poly
	acc2 bool
	key  *modarith.StreamKey
	half int
	wide int                 // opAutMulAccWide/opFoldWide/opReduceWide: high-word row
	s    []uint64            // per-limb scalars (opMulScalars*, opAddScalars*, opSubMulScalarsLazy)
	perm *modarith.BlockPerm // NTT-domain automorphism permutation (opAut*)
	fn   func(limb int)
}

// wideAcc is one 128-bit accumulator of a lane: the polynomial holding its
// low words, whether a MAC has opened it and no ReduceWide closed it yet, and
// the products added since it was opened or last folded.
type wideAcc struct {
	lo    *Poly
	open  bool
	terms int
}

// polyEffect tracks, per lane, what the chain does to one polynomial: the
// pending IsNTT domain for record-time checks, whether the flag must be
// applied after Run, and how many of its rows the chain reads/writes (the
// distinct-row traffic estimate: each distinct operand row is fetched at most
// once and written back at most once per chain; the widest stage touching the
// polynomial sets the count). A row is charged at its length: N words, or
// N/k for a row stored a word per block of k (Expand).
type polyEffect struct {
	p           *Poly
	isNTT       bool
	flagDirty   bool
	scratch     bool // a Scratch polynomial: no rows to charge
	readRows    int
	writtenRows int
}

// parallelLimbThreshold is the limb count of a Run below which its limbs run
// on the calling goroutine: under it the synchronization of a par dispatch
// costs more than the limbs it would spread.
const parallelLimbThreshold = 8

var pipelinePool = sync.Pool{New: func() any { return &Pipeline{} }}

// GetPipeline borrows a pipeline from the package pool.
func GetPipeline() *Pipeline { return pipelinePool.Get().(*Pipeline) }

// Release returns the pipeline (and its recorded-stage capacity) to the pool.
// The caller must not use the pipeline or its lanes afterwards.
func (pl *Pipeline) Release() {
	pl.reset()
	pipelinePool.Put(pl)
}

func (pl *Pipeline) reset() {
	for _, ln := range pl.lanes[:pl.nLanes] {
		for i := range ln.stages {
			ln.stages[i] = stage{}
		}
		for i := range ln.effects {
			ln.effects[i] = polyEffect{}
		}
		ln.stages = ln.stages[:0]
		ln.effects = ln.effects[:0]
		clear(ln.dotRows) // drop the row references, like the stages above
		ln.dotRows, ln.tileRefs, ln.dotTerms = ln.dotRows[:0], ln.tileRefs[:0], 0
		clear(ln.wide)
		ln.wide = ln.wide[:0]
		ln.group, ln.convSets = 1, 0
		for _, p := range ln.scratch[:ln.nScratch] {
			clear(p.Coeffs) // drop the goroutines' scratch rows
		}
		ln.nScratch = 0
		ln.nttRows, ln.inttRows, ln.naiveWords = 0, 0, 0
		ln.r = nil
	}
	pl.nLanes = 0
}

// Lane opens (or reuses) a recording lane over limbs 0..level of r. Lanes
// are independent; a chain that spans two rings (the Q and P halves of a
// key-switch) records one lane per ring in the same pipeline and still pays
// a single barrier.
func (pl *Pipeline) Lane(r *Ring, level int) *Lane {
	if pl.nLanes < len(pl.lanes) {
		ln := pl.lanes[pl.nLanes]
		ln.r, ln.level = r, level
		pl.nLanes++
		return ln
	}
	ln := &Lane{r: r, level: level, group: 1}
	pl.lanes = append(pl.lanes, ln)
	pl.nLanes++
	return ln
}

// use records a read and/or write of p, which must have a row for every limb
// of the lane.
func (ln *Lane) use(p *Poly, read, write bool) {
	if len(p.Coeffs) < ln.level+1 {
		panic("ring: pipeline operand has fewer limbs than the lane level")
	}
	e := ln.effect(p)
	if read {
		e.readRows = max(e.readRows, ln.level+1)
	}
	if write {
		e.writtenRows = ln.level + 1
	}
}

// effect returns p's effect entry, adding it on first use. Never hold the
// returned pointer across another use/effect call — the backing slice may
// grow.
func (ln *Lane) effect(p *Poly) *polyEffect {
	for i := range ln.effects {
		if ln.effects[i].p == p {
			return &ln.effects[i]
		}
	}
	ln.effects = append(ln.effects, polyEffect{p: p, isNTT: p.IsNTT})
	return &ln.effects[len(ln.effects)-1]
}

// domain returns p's pending IsNTT state at this point of the chain.
func (ln *Lane) domain(p *Poly) bool { return ln.effect(p).isNTT }

func (ln *Lane) setDomain(p *Poly, ntt bool) {
	e := ln.effect(p)
	e.isNTT = ntt
	e.flagDirty = true
}

func (ln *Lane) push(st stage, naiveRows int) {
	ln.stages = append(ln.stages, st)
	ln.naiveWords += naiveRows * (ln.level + 1) * ln.r.N
}

// Copy records out ← a (rows copied limb-wise; domain follows a).
func (ln *Lane) Copy(out, a *Poly) {
	ln.use(a, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opCopy, out: out, a: a}, 2)
}

// Scratch returns n polynomials whose rows are the Run's per-goroutine
// scratch (see the contract above): a value that lives within one limb's
// chain — a ModUp digit row, a converted ModDown row, a key-switched row the
// same limb permutes — costs a row per goroutine instead of a polynomial.
// Each starts the chain in the coefficient domain.
func (ln *Lane) Scratch(n int) []*Poly {
	first := ln.nScratch
	for ; ln.nScratch < first+n; ln.nScratch++ {
		if ln.nScratch == len(ln.scratch) {
			ln.scratch = append(ln.scratch, &Poly{})
		}
		p := ln.scratch[ln.nScratch]
		if cap(p.Coeffs) < ln.level+1 {
			p.Coeffs = make([][]uint64, ln.level+1)
		}
		p.Coeffs, p.IsNTT = p.Coeffs[:ln.level+1], false
		ln.effects = append(ln.effects, polyEffect{p: p, scratch: true})
	}
	return ln.scratch[first:ln.nScratch:ln.nScratch]
}

// readAcross records that every limb's stage reads all of src's rows, the
// premultiplied source of a base conversion. src must be in the coefficient
// domain at this point of the chain.
func (ln *Lane) readAcross(src *Poly) {
	e := ln.effect(src)
	if e.isNTT {
		panic("ring: pipeline base conversion of an NTT-domain source")
	}
	e.readRows = max(e.readRows, len(src.Coeffs))
}

// NTT records an in-place exact forward transform of p.
func (ln *Lane) NTT(p *Poly) { ln.recordNTT(p, opNTT) }

// NTTLazy records an in-place forward transform with lazy [0, 2q) outputs.
func (ln *Lane) NTTLazy(p *Poly) { ln.recordNTT(p, opNTTLazy) }

func (ln *Lane) recordNTT(p *Poly, op stageOp) {
	if ln.domain(p) {
		panic("ring: pipeline NTT on a polynomial already in NTT form")
	}
	ln.use(p, true, true)
	ln.setDomain(p, true)
	ln.nttRows += ln.level + 1
	ln.push(stage{op: op, out: p}, 2)
}

// INTT records an in-place exact inverse transform of p.
func (ln *Lane) INTT(p *Poly) {
	if !ln.domain(p) {
		panic("ring: pipeline INTT on a polynomial already in coefficient form")
	}
	ln.use(p, true, true)
	ln.setDomain(p, false)
	ln.inttRows += ln.level + 1
	ln.push(stage{op: opINTT, out: p}, 2)
}

// MulCoeffs records out = a ⊙ b (exact element-wise product).
func (ln *Lane) MulCoeffs(out, a, b *Poly) {
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opMulCoeffs, out: out, a: a, b: b}, 3)
}

// MulCoeffsAdd records out += a ⊙ b (exact).
func (ln *Lane) MulCoeffsAdd(out, a, b *Poly) {
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, true, true)
	ln.push(stage{op: opMulCoeffsAdd, out: out, a: a, b: b}, 4)
}

// DotKeyLazy records both inner products of a gadget product against a
// switching key in one stage, lazy in [0, 2q):
//
//	outB = [accB]·outB + Σ_k as[k] ⊙ bs[k]
//	outA = [accA]·outA + Σ_k as[k] ⊙ a_k
//
// where row i of a_k is the uniform row KeyRowTag(k, half, i) under key — the
// key's A half, never stored — with a single reduction per output
// coefficient (modarith.VecDotKeyLazy). Per limb the stage walks the row one
// modarith.UniformTile at a time: it expands every term's A tile into the
// Run's scratch, then runs the B dot and the A dot over that tile in one
// pass over the digit rows, so the expansion (compute) and the stream of B
// rows (memory) alternate at tile grain and the expanded words are consumed
// while L1-resident. as[k] may be lazy (< 2q, e.g. straight out of NTTLazy),
// bs[k] must be exact, and an output accumulated onto must be lazy; without
// accB / accA an output is only written, so it need not be initialised. The
// stage keeps the as/bs slices themselves: the caller must leave them alone
// until Run.
func (ln *Lane) DotKeyLazy(outB, outA *Poly, as, bs []*Poly, key *modarith.StreamKey, half int, accB, accA bool) {
	if len(as) == 0 || len(as) != len(bs) {
		panic("ring: pipeline DotKeyLazy needs as many (and at least one) a rows as b rows")
	}
	for k := range as {
		ln.use(as[k], true, false)
		ln.use(bs[k], true, false)
	}
	ln.use(outB, accB, true)
	ln.use(outA, accA, true)
	ln.setDomain(outB, true)
	ln.setDomain(outA, true)
	ln.dotTerms = max(ln.dotTerms, len(as))
	naive := 3*len(as) + 2 // two one-sweep dots, less the A rows never read
	if accB {
		naive++
	}
	if accA {
		naive++
	}
	ln.push(stage{op: opDotKeyLazy, out: outB, out2: outA, as: as, bs: bs, key: key, half: half, acc: accB, acc2: accA}, naive)
}

// ModUp records the per-limb half of a key switch's ModUp. pre holds the
// decomposed value's coefficient rows, each premultiplied by its digit's
// QHatInv factor, and conv[d] converts digit d — the next len(conv[d].From)
// rows of pre — onto a basis whose target row off+i is this lane's limb i.
// For every limb, digits[d] (a Scratch polynomial) receives digit d's row:
// the lazy conversion of the digit's premultiplied rows onto the limb,
// forward-transformed in scratch (lazy, [0, 2q)). The first limb of each
// limb group converts the whole group's rows, digit by digit, in one pass
// over the digit's sources (rns.BasisConverter.ConvertRows) into the Run's
// group rows, and each limb's chain takes its own. With in non-nil the lane
// is over in's own ring, and a digit's own limbs instead read in's NTT row
// itself — not a copy, and not converted — so in must be left alone until
// the Run ends. The digits are pending-NTT afterwards, ready for DotKeyLazy.
func (ln *Lane) ModUp(digits []*Poly, in, pre *Poly, conv []*rns.BasisConverter, off int) {
	rows := 0
	for _, bc := range conv {
		rows += len(bc.From)
	}
	if len(digits) != len(conv) || rows != len(pre.Coeffs) {
		panic("ring: pipeline ModUp needs one digit row per converter, the converters one source row per premultiplied row")
	}
	ln.readAcross(pre)
	if in != nil {
		ln.use(in, true, false)
	}
	for d, bc := range conv {
		ln.use(digits[d], false, true)
		ln.setDomain(digits[d], true)
		ln.nttRows += ln.level + 1
		if in != nil {
			ln.nttRows -= len(bc.From) // the digit's own limbs are in's rows
		}
	}
	// Run as its own sweep, ModUp writes each converted row and transforms it
	// in place.
	ln.push(stage{op: opModUp, as: digits, a: in, b: pre, conv: conv, off: off, grp: ln.convSets}, 3*len(digits))
	ln.convSets += len(digits)
	ln.group = modarith.ConvertGroup
}

// BConv records out ← the exact conversion of src, whose rows are
// premultiplied by conv's QHatInv factors, onto each limb i of the lane as
// conv's target row i: the ModDown's P → Q conversion, formed a limb group
// at a time where it is consumed, as ModUp forms its digits. out must be a
// Scratch polynomial, whose row becomes the limb's group row; it is in the
// coefficient domain afterwards.
func (ln *Lane) BConv(out, src *Poly, conv *rns.BasisConverter) {
	if len(src.Coeffs) != len(conv.From) || len(conv.To) < ln.level+1 {
		panic("ring: pipeline BConv source or target basis does not match the lane")
	}
	if !ln.effect(out).scratch {
		panic("ring: pipeline BConv output must be a Scratch polynomial")
	}
	ln.readAcross(src)
	ln.use(out, false, true)
	ln.setDomain(out, false)
	ln.push(stage{op: opBConv, out: out, b: src, bc: conv, grp: ln.convSets}, 1)
	ln.convSets++
	ln.group = modarith.ConvertGroup
}

// AutMulAccWide records out += σ_g(a) ⊙ b into a 128-bit accumulator: the
// product is summed exactly, with out holding the low words and a Run-owned
// scratch row the high words, and reduced only by the ReduceWide that closes
// the accumulator later in the chain (the sweep's fused AutAccum MAC, one
// reduction per output coefficient instead of one per product). The first
// MAC opens the accumulator on out's current value, which must be below 2q;
// a must be below 2q and b below q. Every modarith.MaxDotTerms products the
// sum is folded back into out (lazy) before the next one, so no chain
// length or modulus up to modarith.MaxModulusBits can overflow it. a must be
// pending-NTT and must not alias out.
func (ln *Lane) AutMulAccWide(out, a, b *Poly, g uint64) {
	if !ln.domain(a) {
		panic("ring: pipeline AutMulAccWide requires NTT domain")
	}
	if out == a {
		panic("ring: pipeline AutMulAccWide cannot accumulate in place over its input")
	}
	w := ln.wideIndex(out)
	acc := &ln.wide[w]
	if acc.open && acc.terms == modarith.MaxDotTerms {
		ln.push(stage{op: opFoldWide, out: out, wide: w}, 2)
		acc.terms = 0
	}
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, true, true)
	ln.push(stage{op: opAutMulAccWide, out: out, a: a, b: b, perm: ln.r.autoPerm(g), acc: acc.open, wide: w}, 4)
	acc.open = true
	acc.terms++
}

// ReduceWide records the close of out's 128-bit accumulator: out becomes the
// exact residue of the sum in [0, q).
func (ln *Lane) ReduceWide(out *Poly) {
	w := ln.wideIndex(out)
	if !ln.wide[w].open {
		panic("ring: pipeline ReduceWide of an accumulator no MAC opened")
	}
	ln.wide[w] = wideAcc{lo: out}
	ln.use(out, true, true)
	ln.push(stage{op: opReduceWide, out: out, wide: w}, 2)
}

// wideIndex returns the index of out's 128-bit accumulator, registering it
// on first use.
func (ln *Lane) wideIndex(out *Poly) int {
	for w := range ln.wide {
		if ln.wide[w].lo == out {
			return w
		}
	}
	ln.wide = append(ln.wide, wideAcc{lo: out})
	return len(ln.wide) - 1
}

// ReduceLazy records the [0, 2q) → [0, q) normalization of p.
func (ln *Lane) ReduceLazy(p *Poly) {
	ln.use(p, true, true)
	ln.push(stage{op: opReduceLazy, out: p}, 2)
}

// Add records out = a + b (exact element-wise sum; domain follows a).
func (ln *Lane) Add(out, a, b *Poly) {
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opAdd, out: out, a: a, b: b}, 3)
}

// Sub records out = a - b (exact element-wise difference; domain follows a).
func (ln *Lane) Sub(out, a, b *Poly) {
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opSub, out: out, a: a, b: b}, 3)
}

// Neg records out = -a (domain follows a).
func (ln *Lane) Neg(out, a *Poly) {
	ln.use(a, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opNeg, out: out, a: a}, 2)
}

// Zero records out = 0: how an accumulator borrowed from the pool is cleared,
// one row at a time and right before the stage that adds onto it, so the row
// is in cache for that stage instead of being swept through memory up front.
func (ln *Lane) Zero(out *Poly) {
	ln.use(out, false, true)
	ln.push(stage{op: opZero, out: out}, 1)
}

// MulByLimbScalars records out = a · s[i] per limb, exact for any a (lazy
// rows included). out may be a.
func (ln *Lane) MulByLimbScalars(out, a *Poly, s []uint64) {
	ln.use(a, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opMulScalars, out: out, a: a, s: s}, 2)
}

// MulByLimbScalarsAddLazy records out += a · s[i] per limb, keeping out lazy
// in [0, 2q): the constant-multiply-accumulate step of a CMULT+ADD ladder,
// whose chain must end with ReduceLazy. a must be exact.
func (ln *Lane) MulByLimbScalarsAddLazy(out, a *Poly, s []uint64) {
	ln.use(a, true, false)
	ln.use(out, true, true)
	ln.push(stage{op: opMulScalarsAddLazy, out: out, a: a, s: s}, 3)
}

// AddLimbScalars records out = a + s[i] per limb, added to every slot: a must
// be pending-NTT at this point of the chain.
func (ln *Lane) AddLimbScalars(out, a *Poly, s []uint64) {
	if !ln.domain(a) {
		panic("ring: pipeline AddLimbScalars requires NTT domain")
	}
	ln.use(a, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, true)
	ln.push(stage{op: opAddScalars, out: out, a: a, s: s}, 2)
}

// SubMulByLimbScalarsLazy records out = (a - b) · s[i] per limb (the fused
// ModDown epilogue): a exact, b exact or lazy in [0, 2q) (e.g. straight out
// of an NTTLazy stage), out exact.
func (ln *Lane) SubMulByLimbScalarsLazy(out, a, b *Poly, s []uint64) {
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, ln.domain(a))
	ln.push(stage{op: opSubMulScalarsLazy, out: out, a: a, b: b, s: s}, 3)
}

// AutomorphismNTT records out = σ_g(a) by NTT-domain slot permutation.
// a must be pending-NTT and must not alias out.
func (ln *Lane) AutomorphismNTT(out, a *Poly, g uint64) {
	if !ln.domain(a) {
		panic("ring: pipeline AutomorphismNTT requires NTT domain")
	}
	if out == a {
		panic("ring: pipeline AutomorphismNTT cannot operate in place")
	}
	ln.use(a, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, true)
	ln.push(stage{op: opAutNTT, out: out, a: a, perm: ln.r.autoPerm(g)}, 2)
}

// AddAutomorphismNTT records out = σ_g(a + b): the exact sum permuted in the
// same pass, bit-identical to Add followed by AutomorphismNTT because the
// sum is element-wise. a and b must be pending-NTT; neither may alias out.
func (ln *Lane) AddAutomorphismNTT(out, a, b *Poly, g uint64) {
	if !ln.domain(a) || !ln.domain(b) {
		panic("ring: pipeline AddAutomorphismNTT requires NTT domain")
	}
	if out == a || out == b {
		panic("ring: pipeline AddAutomorphismNTT cannot operate in place")
	}
	ln.use(a, true, false)
	ln.use(b, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, true)
	ln.push(stage{op: opAddAutNTT, out: out, a: a, b: b, perm: ln.r.autoPerm(g)}, 3)
}

// Expand records out ← the whole rows of c, an NTT-domain polynomial of the
// subring Z[X^k] stored one word per aligned block of k (Ring.EmbedCenteredNTT),
// k = N/len(c's rows): out[j] = c[j/k]. out must be a Scratch polynomial, so
// the whole row exists only in the Run's scratch, and is pending-NTT
// afterwards; the traffic model charges c's rows at their stored length.
func (ln *Lane) Expand(out, c *Poly) {
	n := len(c.Coeffs[0])
	if n == 0 || ln.r.N%n != 0 {
		panic("ring: pipeline Expand of a row whose length does not divide N")
	}
	if !ln.effect(out).scratch {
		panic("ring: pipeline Expand output must be a Scratch polynomial")
	}
	ln.use(c, true, false)
	ln.use(out, false, true)
	ln.setDomain(out, true)
	ln.push(stage{op: opExpand, out: out, a: c}, 1)
	ln.naiveWords += (ln.level + 1) * n
}

// Func records an arbitrary per-limb stage (the escape hatch for steps with
// no dedicated op code, e.g. the rescale divide). reads/writes declare the
// polynomials it touches, for traffic accounting and limb validation; fn
// must touch only limb `limb` of them, and domain flags are the caller's
// responsibility (record a dedicated stage or set flags after Run).
func (ln *Lane) Func(fn func(limb int), reads, writes []*Poly) {
	for _, p := range reads {
		ln.use(p, true, false)
	}
	for _, p := range writes {
		ln.use(p, false, true)
	}
	ln.push(stage{op: opFunc, fn: fn}, len(reads)+len(writes))
}

// Run executes every recorded lane, whole-chain-per-limb, under a single
// barrier at the widest of the lanes' ring widths, then applies domain
// flags, updates the ring limb-transform counters and the bytes-moved model,
// and resets the pipeline for re-recording.
func (pl *Pipeline) Run() {
	lanes := pl.lanes[:pl.nLanes]
	var sz runSizes
	total, units, width := 0, 0, 0
	for _, ln := range lanes {
		for _, acc := range ln.wide {
			if acc.open {
				panic("ring: pipeline 128-bit accumulator left open: record its ReduceWide")
			}
		}
		total += ln.level + 1
		units += ln.units()
		width = max(width, ln.r.width)
		sz.wide = max(sz.wide, len(ln.wide)*ln.r.N)
		sz.group = max(sz.group, ln.convSets*ln.group*ln.r.N)
		sz.uni = max(sz.uni, ln.dotTerms*modarith.UniformTile)
		sz.rows = max(sz.rows, ln.nScratch*ln.r.N)
		if need := 3 * ln.dotTerms * (ln.level + 1); need <= cap(ln.dotRows) {
			ln.dotRows = ln.dotRows[:need]
		} else {
			ln.dotRows = make([][]uint64, need)
		}
		if need := ln.dotTerms * (ln.level + 1); need <= cap(ln.tileRefs) {
			ln.tileRefs = ln.tileRefs[:need]
		} else {
			ln.tileRefs = make([]modarith.TileRef, need)
		}
	}
	if total > 0 {
		if total < parallelLimbThreshold || width < 2 {
			runUnits(lanes, 0, units, sz)
		} else {
			par.ForEachChunkAt(width, units, func(lo, hi int) { runUnits(lanes, lo, hi, sz) })
		}
	}
	pl.finish()
}

// units returns the number of limb groups the Run hands out for the lane.
func (ln *Lane) units() int { return (ln.level + ln.group) / ln.group }

// runScratch pools the Run-owned scratch: the high-word rows of the 128-bit
// accumulators, the expanded key tiles of DotKeyLazy, the rows of the
// Scratch polynomials, the group rows of the base conversions and their
// accumulator tile. One buffer per goroutine executing a Run's limbs, reused
// limb after limb because every accumulator is opened and closed, every tile
// expanded and consumed, and every scratch row written and read within one
// limb's chain — a group row within its limb group's, which the goroutine
// runs whole.
var runScratch sync.Pool // of *runBuf

// runBuf is one pooled Run scratch: its words and a group conversion's
// target list.
type runBuf struct {
	words []uint64
	js    [modarith.ConvertGroup]int
	outs  [modarith.ConvertGroup][]uint64
}

// runSizes is the word count of each part of a goroutine's Run scratch.
type runSizes struct{ wide, uni, rows, group int }

// scratch is one goroutine's share of the Run scratch.
type scratch struct {
	wide, uni []uint64   // 128-bit high words, expanded key tiles
	rows      []uint64   // the Scratch polynomials' rows, N words each
	group     []uint64   // the conversions' group rows, N words each
	hi        []uint64   // the base conversion's accumulator tile
	js        []int      // a group conversion's targets...
	outs      [][]uint64 // ...and their rows
}

// runUnits executes the chains of the pipeline's limb groups u ∈ [lo, hi),
// counted lane after lane, on the calling goroutine, limb after limb.
func runUnits(lanes []*Lane, lo, hi int, sz runSizes) {
	words := sz.wide + sz.uni + sz.rows + sz.group + rns.RowTile
	b, _ := runScratch.Get().(*runBuf)
	if b == nil {
		b = new(runBuf)
	}
	if cap(b.words) < words {
		b.words = make([]uint64, words)
		clear(b.outs[:]) // rows of the words just dropped
	}
	defer runScratch.Put(b)
	sc := scratch{js: b.js[:], outs: b.outs[:]}
	buf := b.words[:words]
	sc.wide, buf = buf[:sz.wide], buf[sz.wide:]
	sc.uni, buf = buf[:sz.uni], buf[sz.uni:]
	sc.rows, buf = buf[:sz.rows], buf[sz.rows:]
	sc.group, sc.hi = buf[:sz.group], buf[sz.group:]
	for t := lo; t < hi; t++ {
		u := t
		for _, ln := range lanes {
			if u >= ln.units() {
				u -= ln.units()
				continue
			}
			n := ln.r.N
			for i := u * ln.group; i < min((u+1)*ln.group, ln.level+1); i++ {
				for k, p := range ln.scratch[:ln.nScratch] {
					p.Coeffs[i] = sc.rows[k*n : (k+1)*n : (k+1)*n]
				}
				ln.exec(i, &sc)
			}
			break
		}
	}
}

// finish applies the deferred Poly-header updates and traffic accounting,
// then resets the pipeline so it can record the next chain.
func (pl *Pipeline) finish() {
	for _, ln := range pl.lanes[:pl.nLanes] {
		distinct := 0 // words
		for i := range ln.effects {
			e := &ln.effects[i]
			if e.scratch {
				continue
			}
			if e.flagDirty {
				e.p.IsNTT = e.isNTT
			}
			distinct += (e.readRows + e.writtenRows) * len(e.p.Coeffs[0])
		}
		if ln.nttRows > 0 {
			ln.r.nttLimbs.Add(int64(ln.nttRows))
		}
		if ln.inttRows > 0 {
			ln.r.inttLimbs.Add(int64(ln.inttRows))
		}
		accountWords(bytesMoved, distinct)
		if saved := ln.naiveWords - distinct; saved > 0 {
			accountWords(bytesSaved, saved)
		}
	}
	pl.reset()
}

// exec runs the lane's whole stage chain over limb i on the goroutine's
// scratch sc. This is the inner loop of the executor: every stage body is one
// modarith row kernel (or a plain loop where none exists), the same whichever
// chain records it, so the results are bit-identical on every kernel tier.
func (ln *Lane) exec(i int, sc *scratch) {
	r := ln.r
	wide, uni := sc.wide, sc.uni
	mod := r.Moduli[i]
	for si := range ln.stages {
		st := &ln.stages[si]
		switch st.op {
		case opCopy:
			copy(st.out.Coeffs[i], st.a.Coeffs[i])
		case opNTT:
			r.Tables[i].Forward(st.out.Coeffs[i])
		case opNTTLazy:
			r.Tables[i].ForwardLazy(st.out.Coeffs[i])
		case opINTT:
			r.Tables[i].Inverse(st.out.Coeffs[i])
		case opMulCoeffs:
			mod.VecMulBarrett(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i])
		case opMulCoeffsAdd:
			mod.VecMulAddBarrett(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i])
		case opDotKeyLazy:
			k := len(st.as)
			ra := ln.dotRows[3*ln.dotTerms*i:][:k:k]
			rb := ln.dotRows[3*ln.dotTerms*i+k:][:k:k]
			ru := ln.dotRows[3*ln.dotTerms*i+2*k:][:k:k]
			refs := ln.tileRefs[ln.dotTerms*i:][:k:k]
			outB, outA := st.out.Coeffs[i], st.out2.Coeffs[i]
			for lo := 0; lo < len(outB); lo += modarith.UniformTile {
				hi := min(lo+modarith.UniformTile, len(outB))
				for d := range ra {
					ra[d] = st.as[d].Coeffs[i][lo:hi]
					rb[d] = st.bs[d].Coeffs[i][lo:hi]
					ru[d] = uni[d*(hi-lo):][:hi-lo]
					refs[d] = modarith.Tile(KeyRowTag(d, st.half, i), lo/modarith.UniformTile)
				}
				mod.ExpandUniformTiles(uni[:k*(hi-lo)], st.key, refs)
				mod.VecDotKeyLazy(outB[lo:hi], outA[lo:hi], ra, rb, ru, st.acc, st.acc2)
			}
		case opModUp:
			if i%ln.group == 0 {
				ln.modUpGroup(st, i, sc)
			}
			lo := 0
			for d, bc := range st.conv {
				hi := lo + len(bc.From)
				if st.a != nil && lo <= i && i < hi {
					st.as[d].Coeffs[i] = st.a.Coeffs[i] // the digit's own limb
				} else {
					row := ln.groupRow(sc, st.grp+d, i)
					r.Tables[i].ForwardLazy(row)
					st.as[d].Coeffs[i] = row
				}
				lo = hi
			}
		case opBConv:
			if i%ln.group == 0 {
				js, outs := sc.js[:0], sc.outs[:0]
				for j := i; j < min(i+ln.group, ln.level+1); j++ {
					js, outs = append(js, j), append(outs, ln.groupRow(sc, st.grp, j))
				}
				st.bc.ConvertRows(outs, st.b.Coeffs, js, false, sc.hi)
			}
			st.out.Coeffs[i] = ln.groupRow(sc, st.grp, i)
		case opAutMulAccWide:
			hi := wide[st.wide*r.N:][:r.N]
			if !st.acc {
				clear(hi)
			}
			mod.VecMulAccWidePerm(hi, st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i], st.perm)
		case opFoldWide:
			mod.VecFoldWide128Lazy(wide[st.wide*r.N:][:r.N], st.out.Coeffs[i])
		case opReduceWide:
			mod.VecReduceWide128(st.out.Coeffs[i], wide[st.wide*r.N:][:r.N], st.out.Coeffs[i])
		case opReduceLazy:
			mod.VecReduceTwoQ(st.out.Coeffs[i])
		case opAdd:
			mod.VecAdd(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i])
		case opSub:
			mod.VecSub(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i])
		case opNeg:
			src, dst := st.a.Coeffs[i], st.out.Coeffs[i]
			for j := range dst {
				dst[j] = mod.Neg(src[j])
			}
		case opZero:
			clear(st.out.Coeffs[i])
		case opMulScalars:
			s := st.s[i]
			mod.VecMulShoup(st.out.Coeffs[i], st.a.Coeffs[i], s, mod.ShoupPrecomp(s))
		case opMulScalarsAddLazy:
			s := st.s[i]
			mod.VecMulShoupAddLazy(st.out.Coeffs[i], st.a.Coeffs[i], s, mod.ShoupPrecomp(s))
		case opAddScalars:
			mod.VecAddScalar(st.out.Coeffs[i], st.a.Coeffs[i], st.s[i])
		case opSubMulScalarsLazy:
			s := st.s[i]
			mod.VecSubMulShoupLazy(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i], s, mod.ShoupPrecomp(s))
		case opAutNTT:
			mod.VecPermute(st.out.Coeffs[i], st.a.Coeffs[i], st.perm)
		case opAddAutNTT:
			mod.VecAddPermute(st.out.Coeffs[i], st.a.Coeffs[i], st.b.Coeffs[i], st.perm)
		case opExpand:
			mod.VecExpand(st.out.Coeffs[i], st.a.Coeffs[i])
		case opFunc:
			st.fn(i)
		}
	}
}

// groupRow returns limb i's row of the conversion output set in the
// goroutine's group rows.
func (ln *Lane) groupRow(sc *scratch, set, i int) []uint64 {
	n, k := ln.r.N, set*ln.group+i%ln.group
	return sc.group[k*n : (k+1)*n : (k+1)*n]
}

// modUpGroup converts, at the first limb g0 of a limb group, every digit of
// the ModUp stage st onto the group's limbs but the digit's own, into the
// goroutine's group rows: one pass over a digit's sources for the group.
func (ln *Lane) modUpGroup(st *stage, g0 int, sc *scratch) {
	lo := 0
	for d, bc := range st.conv {
		hi := lo + len(bc.From)
		js, outs := sc.js[:0], sc.outs[:0]
		for i := g0; i < min(g0+ln.group, ln.level+1); i++ {
			if st.a == nil || i < lo || i >= hi {
				js, outs = append(js, st.off+i), append(outs, ln.groupRow(sc, st.grp+d, i))
			}
		}
		bc.ConvertRows(outs, st.b.Coeffs[lo:hi], js, true, sc.hi)
		lo = hi
	}
}
