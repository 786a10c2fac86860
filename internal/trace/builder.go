package trace

import (
	"fmt"
	"strconv"

	"github.com/anaheim-sim/anaheim/internal/pim"
)

// Options selects the Anaheim algorithm/fusion configuration (§V, Fig 10).
// The builder always emits the naive kernel sequence; BasicFuse and AutFuse
// only select the rewrite passes (fusion.go) it runs over each op.
type Options struct {
	Hoist     bool // hoisting-based linear transforms (vs. Base)
	MinKS     bool // minimum-key-switching linear transforms (excludes Hoist)
	BasicFuse bool // PAccum/CAccum passes: compound instructions (+BasicFuse)
	AutFuse   bool // swap and AutAccum passes: automorphism fused with accumulation (+AutFuse)
	ExtraFuse bool // GPU-only extra fusions, e.g. ModDown fusion [38]
	PIM       bool // mark element-wise kernels for PIM offloading
}

// AnaheimDefault is the full Anaheim configuration.
func AnaheimDefault() Options {
	return Options{Hoist: true, BasicFuse: true, AutFuse: true, PIM: true}
}

// GPUBaseline is the best GPU-only configuration (Cheddar + all GPU fusions).
func GPUBaseline() Options {
	return Options{Hoist: true, BasicFuse: true, AutFuse: true, ExtraFuse: true}
}

// Builder emits kernels into a trace.
type Builder struct {
	P   Params
	Opt Options
	T   *Trace
}

// NewBuilder starts a trace.
func NewBuilder(p Params, opt Options, name string) *Builder {
	return &Builder{P: p, Opt: opt, T: &Trace{Name: name, P: p}}
}

// fuse runs the passes the options select, in canonical order, over the
// kernels emitted since index from: one op's naive sequence becomes its
// fused one. AutFuse selects the reorder and AutAccum, BasicFuse the
// PAccum/CAccum merges.
func (b *Builder) fuse(from int) {
	if !b.Opt.AutFuse && !b.Opt.BasicFuse {
		return
	}
	op := &Trace{P: b.P, Kernels: b.T.Kernels[from:]}
	if b.Opt.AutFuse {
		SwapAutPMult().Apply(op)
		AutAccum().Apply(op)
	}
	if b.Opt.BasicFuse {
		PAccum().Apply(op)
		CAccum().Apply(op)
	}
	b.T.Kernels = append(b.T.Kernels[:from], op.Kernels...)
}

// --- primitive emissions ---------------------------------------------------

// The (I)NTT/BConv chains of a ModSwitch stream their intermediates through
// the L2 cache (a level-53 polynomial is 13.8 MB against 40-72 MB of L2), so
// only the chain boundaries touch DRAM: the INTT pays its input read, the
// NTT its output write, and the BConv in between is cache-resident. This is
// what keeps (I)NTT and BConv compute-bound on GPUs (§IV-D).

func (b *Builder) ntt(name string, limbs int) {
	b.T.Append(Kernel{
		Name: name, Class: ClassNTT,
		WeightedOps: nttWeightedOps(b.P, float64(limbs)),
		Bytes:       b.P.PolyBytes(limbs), // output write
		Limbs:       limbs, Instances: 1,
	})
}

func (b *Builder) intt(name string, limbs int) {
	b.T.Append(Kernel{
		Name: name, Class: ClassINTT,
		WeightedOps: nttWeightedOps(b.P, float64(limbs)),
		Bytes:       b.P.PolyBytes(limbs), // input read
		Limbs:       limbs, Instances: 1,
	})
}

func (b *Builder) bconv(name string, kin, kout int) {
	b.T.Append(Kernel{
		Name: name, Class: ClassBConv,
		WeightedOps: bconvWeightedOps(b.P, kin, kout),
		Bytes:       0, // cache-resident between INTT and NTT
		Limbs:       kout, Instances: 1,
	})
}

// ew emits an element-wise kernel of `instances` instruction instances over
// polynomials of `limbs` limbs. oneTime is the streaming portion of its
// traffic (whole kernel).
func (b *Builder) ew(name string, op pim.Opcode, limbs, instances int, oneTime float64) {
	spec := pim.Spec(op, 0)
	b.T.Append(Kernel{
		Name: name, Class: ClassEW,
		WeightedOps: float64(spec.ModMuls) * float64(limbs) * float64(b.P.N) * modMulW * float64(instances),
		Bytes:       float64(spec.PIMAccesses()) * b.P.PolyBytes(limbs) * float64(instances),
		OneTime:     oneTime,
		Op:          op, Limbs: limbs, Instances: instances,
		Offload: b.Opt.PIM,
	})
}

// macChain emits the naive form of a PAccum/CAccum compound: n
// single-instruction op (PMAC or CMAC) kernels sharing one fuse group, the
// compound's one-time streaming bytes split evenly across them.
func (b *Builder) macChain(name string, op pim.Opcode, n, limbs int, oneTime float64) {
	g := b.T.newFuseGroup(name)
	prefix := name + "." + op.String() + "["
	for i := 0; i < n; i++ {
		b.ew(prefix+strconv.Itoa(i)+"]", op, limbs, 1, oneTime/float64(n))
		b.tag(g, RoleMAC)
	}
}

// tag marks the most recent kernel as a member of fuse group g.
func (b *Builder) tag(g FuseGroup, role string) {
	k := &b.T.Kernels[len(b.T.Kernels)-1]
	k.FuseGroup, k.FuseRole = g, role
}

// aut emits an automorphism kernel (GPU-only: complex data movement is
// unsuited to PIM, §V-A): the bare permutation, 2 accesses.
func (b *Builder) aut(name string, limbs int) {
	b.T.Append(Kernel{
		Name: name, Class: ClassAut,
		Bytes: 2 * b.P.PolyBytes(limbs),
		Limbs: limbs, Instances: 1,
	})
}

// autSplit and autSplitAccum emit an automorphism that feeds an
// accumulation in its naive form: the permutation round-trips DRAM (2
// accesses) before a separate accumulation (3 accesses). The accumulation is
// welded to the automorphism: it never offloads and counts in the
// automorphism class. Once the two are adjacent the AutAccum pass fuses
// them (5 → 3 accesses).
func (b *Builder) autSplit(name string, g FuseGroup, limbs int) {
	b.aut(name, limbs)
	b.tag(g, RoleAut)
}

func (b *Builder) autSplitAccum(name string, g FuseGroup, limbs int) {
	b.T.Append(Kernel{
		Name: name + ".accum", Class: ClassAut,
		Bytes: 3 * b.P.PolyBytes(limbs),
		Op:    pim.Add, Limbs: limbs, Instances: 1,
		FuseGroup: g, FuseRole: RoleAccum,
	})
}

// markWriteBack tags the most recent kernel with coherence write-back bytes
// (charged only when the consuming block actually runs on PIM).
func (b *Builder) markWriteBack(bytes float64) {
	if b.Opt.PIM && len(b.T.Kernels) > 0 {
		b.T.Kernels[len(b.T.Kernels)-1].WriteBack += bytes
	}
}

// MemOp emits a pure data-movement kernel that stays on the GPU (e.g.
// ModRaise's centered rebroadcast, which needs comparisons unsuited to the
// MMAC datapath).
func (b *Builder) MemOp(name string, limbs int) {
	b.T.Append(Kernel{
		Name: name, Class: ClassEW,
		Bytes: 2 * b.P.PolyBytes(limbs),
		Op:    pim.Move, Limbs: limbs, Instances: 1,
	})
}

// --- composite CKKS operations (Fig 1) --------------------------------------

// ModUp raises a level-ℓ polynomial into the extended basis: one INTT over
// its limbs, then per digit a BConv and an NTT over the fresh limbs.
func (b *Builder) ModUp(level int) {
	d := b.P.Digits(level)
	b.intt("ModUp.INTT", level+1)
	for i := 0; i < d; i++ {
		b.bconv(fmt.Sprintf("ModUp.BConv[%d]", i), b.P.Alpha, level+1)
		b.ntt(fmt.Sprintf("ModUp.NTT[%d]", i), level+1)
	}
	// The D digit polynomials must reside in DRAM before a PIM KeyMult.
	b.markWriteBack(float64(d) * b.P.PolyBytes(level+1+b.P.Alpha))
}

// ModUpNoINTT re-decomposes a value already held in coefficient-accessible
// form (double-hoisted giant steps [8]): BConv+NTT per digit, no INTT.
func (b *Builder) ModUpNoINTT(level int) {
	d := b.P.Digits(level)
	for i := 0; i < d; i++ {
		b.bconv(fmt.Sprintf("ModUp.BConv[%d]", i), b.P.Alpha, level+1)
		b.ntt(fmt.Sprintf("ModUp.NTT[%d]", i), level+1)
	}
	b.markWriteBack(float64(d) * b.P.PolyBytes(level+1+b.P.Alpha))
}

// KeyMult performs the inner product with a switching key: D PMACs per
// component pair, reading the 2·D evk polynomials as one-time data; with
// BasicFuse the PAccum pass merges them into one PAccum⟨D⟩.
func (b *Builder) KeyMult(name string, level int) {
	from := len(b.T.Kernels)
	d := b.P.Digits(level)
	ext := level + 1 + b.P.Alpha
	b.macChain(name, pim.PMAC, d, ext, 2*float64(d)*b.P.PolyBytes(ext))
	b.fuse(from)
}

// ModDown lowers both components from the extended basis back to Q:
// INTT/BConv/NTT on the P part plus the ModDownEp element-wise epilogue.
// With ExtraFuse (GPU-only baseline) the epilogue is fused into the NTT,
// halving its traffic.
func (b *Builder) ModDown(level, components int) {
	for c := 0; c < components; c++ {
		b.intt(fmt.Sprintf("ModDown.INTT[%d]", c), b.P.Alpha)
		b.bconv(fmt.Sprintf("ModDown.BConv[%d]", c), b.P.Alpha, level+1)
		b.ntt(fmt.Sprintf("ModDown.NTT[%d]", c), level+1)
		b.markWriteBack(b.P.PolyBytes(level + 1))
		if b.Opt.ExtraFuse && !b.Opt.PIM {
			// ModDown fusion [38]: the epilogue rides the NTT's output pass.
			b.T.Kernels[len(b.T.Kernels)-1].Bytes += b.P.PolyBytes(level + 1)
			continue
		}
		b.ew(fmt.Sprintf("ModDown.Ep[%d]", c), pim.ModDownEp, level+1, 1, 0)
	}
}

// Rescale drops the top prime: INTT of the dropped limb, its broadcast NTT
// across the remaining primes (fused with the element-wise division, whose
// traffic the epilogue kernel carries).
func (b *Builder) Rescale(level int) {
	b.intt("Rescale.INTT", 2)
	b.T.Append(Kernel{ // broadcast NTT: compute only, fused with the epilogue
		Name: "Rescale.NTT", Class: ClassNTT,
		WeightedOps: nttWeightedOps(b.P, float64(2*level)),
		Limbs:       2 * level, Instances: 1,
	})
	b.ew("Rescale.Ep", pim.ModDownEp, 2*level, 1, 0)
}

// --- basic functions (Fig 2a) -----------------------------------------------

// HADD emits an inter-ciphertext addition.
func (b *Builder) HADD(level int) {
	b.ew("HADD", pim.Add, 2*(level+1), 1, 0)
}

// PMULT emits a plaintext-ciphertext multiplication; the plaintext is
// one-time data.
func (b *Builder) PMULT(level int) {
	b.ew("PMULT", pim.PMult, level+1, 1, b.P.PolyBytes(level+1))
}

// HMULT emits an inter-ciphertext multiplication with relinearization and
// rescaling.
func (b *Builder) HMULT(level int) {
	b.ew("HMULT.Tensor", pim.Tensor, level+1, 1, 0)
	b.ModUp(level)
	b.KeyMult("HMULT.KeyMult", level)
	b.ModDown(level, 2)
	b.ew("HMULT.Add", pim.Add, 2*(level+1), 1, 0)
	b.Rescale(level)
}

// HSQUARE is HMULT with the TensorSq shortcut.
func (b *Builder) HSQUARE(level int) {
	b.ew("HSQ.TensorSq", pim.TensorSq, level+1, 1, 0)
	b.ModUp(level)
	b.KeyMult("HSQ.KeyMult", level)
	b.ModDown(level, 2)
	b.ew("HSQ.Add", pim.Add, 2*(level+1), 1, 0)
	b.Rescale(level)
}

// EW2 emits a constant multiply-and-add over both ciphertext components
// (CMAC), the shape of EvalMod's affine maps and double-angle epilogues.
func (b *Builder) EW2(name string, level int) {
	b.ew(name, pim.CMAC, 2*(level+1), 1, 0)
}

// CAccum emits a K-term constant accumulation (the BSGS leaf linear
// combinations of Chebyshev evaluation): 2K CMACs, merged into one
// CAccum⟨K⟩ by the CAccum pass under BasicFuse.
func (b *Builder) CAccum(name string, level, k int) {
	from := len(b.T.Kernels)
	b.macChain(name, pim.CMAC, 2*k, level+1, 0)
	b.fuse(from)
}

// HROT emits a ciphertext rotation: ModUp → KeyMult → automorphism →
// ModDown → add (Fig 1).
func (b *Builder) HROT(level int) {
	b.ModUp(level)
	b.KeyMult("HROT.KeyMult", level)
	b.aut("HROT.Aut", 2*(level+1+b.P.Alpha))
	b.ModDown(level, 2)
	b.ew("HROT.Add", pim.Add, level+1, 1, 0)
}
