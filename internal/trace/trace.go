// Package trace defines the kernel-level intermediate representation the
// Anaheim software framework lowers FHE programs into (§V): typed kernels
// (NTT, INTT, BConv, element-wise, automorphism) annotated with weighted
// operation counts, DRAM traffic split into working-set and one-time
// (evk/plaintext streaming) bytes, PIM-offloadability, and the coherence
// write-backs a PIM offload requires. Builders emit the op sequences of the
// basic CKKS functions and of hoisting-, MinKS- and BSGS-based linear
// transforms in their naive §V-B form, and the §V rewrite passes the
// options select (fusion.go) fuse each op's kernels.
package trace

import (
	"math"

	"github.com/anaheim-sim/anaheim/internal/pim"
)

// Params is the structural (paper-scale) CKKS parameter set: only shapes
// matter here; the functional scheme lives in internal/ckks.
type Params struct {
	LogN      int
	N         int
	L         int // number of Q primes
	Alpha     int // number of P primes
	D         int // decomposition number = ceil(L/Alpha)
	WordBytes int
}

// PaperParams returns Table IV: N=2^16, L=54, α=14, D=4, 32-bit words.
func PaperParams() Params {
	return Params{LogN: 16, N: 1 << 16, L: 54, Alpha: 14, D: 4, WordBytes: 4}
}

// WithD returns a copy reconfigured for a different decomposition number,
// holding the modulus budget log PQ (and thus the total limb count L+α=68)
// constant as in Fig 2b: α = ceil(68/(D+1)), L = 68-α. Larger D yields more
// usable levels but larger evks (§II-C).
func (p Params) WithD(d int) Params {
	q := p
	q.D = d
	q.Alpha = (68 + d) / (d + 1)
	q.L = 68 - q.Alpha
	return q
}

// LimbBytes is the size of one limb (N coefficients).
func (p Params) LimbBytes() float64 { return float64(p.N * p.WordBytes) }

// PolyBytes is the size of a polynomial with the given limb count.
func (p Params) PolyBytes(limbs int) float64 { return float64(limbs) * p.LimbBytes() }

// CtBytes is the size of a ciphertext at the given level.
func (p Params) CtBytes(level int) float64 { return 2 * p.PolyBytes(level+1) }

// EvkBytes is the size of one evaluation key at the given level
// (2·D polynomials in R_PQ, Table I).
func (p Params) EvkBytes(level int) float64 {
	return 2 * float64(p.D) * p.PolyBytes(level+1+p.Alpha)
}

// Digits returns the decomposition count at a level.
func (p Params) Digits(level int) int {
	return (level + 1 + p.Alpha - 1) / p.Alpha
}

// Class labels a kernel with its primary polynomial operation (§II-B).
type Class int

const (
	ClassNTT Class = iota
	ClassINTT
	ClassBConv
	ClassEW
	ClassAut
)

func (c Class) String() string {
	return [...]string{"NTT", "INTT", "BConv", "EW", "Aut"}[c]
}

// Kernel is one schedulable unit.
type Kernel struct {
	Name  string
	Class Class

	// Compute: weighted 32-bit integer op count (modmul = 5, modadd = 1).
	WeightedOps float64

	// Memory: total DRAM bytes under GPU execution, and the portion that is
	// one-time streaming data (evks, plaintexts) that never benefits from
	// caching (§V-D).
	Bytes   float64
	OneTime float64

	// Element-wise detail for PIM pricing.
	Op        pim.Opcode
	OpK       int
	Limbs     int // limbs per polynomial operand
	Instances int // identical instruction instances in this kernel

	// Offload marks kernels the Anaheim framework sends to PIM.
	Offload bool
	// WriteBack is the extra GPU-side DRAM write traffic required before a
	// following PIM kernel may read this kernel's products (§V-C coherence).
	WriteBack float64

	// FuseGroup/FuseRole tag the per-term kernels of a compound the builder
	// emits in its naive §V-B form, for the fusion passes (fusion.go):
	// kernels sharing a FuseGroup form one fusable compound (the members of
	// a PAccum/CAccum chain, or an automorphism and its accumulation). The
	// passes clear the tags of what they merge; untagged kernels are never
	// touched.
	FuseGroup FuseGroup
	FuseRole  string
}

// FuseGroup identifies one compound of a trace: the name its fused kernel
// takes and an ID unique within the trace (Concat re-mints the IDs of every
// appended copy). The zero value tags nothing.
type FuseGroup struct {
	Name string
	ID   int
}

// Fuse roles recognized by the fusion passes.
const (
	// RoleMAC tags one naive multiply-accumulate instruction of a compound
	// PAccum/CAccum chain (Table II).
	RoleMAC = "mac"
	// RoleAut tags a bare automorphism whose accumulation was split off
	// (the Fig 6 "before" shape: permute to a temporary, 2 accesses).
	RoleAut = "aut"
	// RoleAccum tags the separate accumulation kernel an unfused
	// automorphism round-trips through (3 accesses).
	RoleAccum = "accum"
	// RoleSwapPMult tags a diagonal plaintext multiply emitted *after* its
	// automorphism in the naive hoisted linear transform; the §V-B reorder
	// pass moves it before the automorphism (pre-rotating the plaintext
	// offline), which is what frees the automorphism to fuse with the
	// accumulation.
	RoleSwapPMult = "pmult-diag"
)

// Trace is an ordered kernel sequence with workload metadata.
type Trace struct {
	Name    string
	P       Params
	Kernels []Kernel
	LEff    int // multiplicative levels per bootstrap (T_boot,eff divisor)

	fuseGroups int // fuse-group IDs minted so far
}

// Append adds kernels.
func (t *Trace) Append(ks ...Kernel) { t.Kernels = append(t.Kernels, ks...) }

// newFuseGroup mints a trace-unique fuse group for a compound named name, so
// the passes never merge members of different compounds that share a name.
func (t *Trace) newFuseGroup(name string) FuseGroup {
	t.fuseGroups++
	return FuseGroup{Name: name, ID: t.fuseGroups}
}

// Concat appends another trace's kernels n times. Each copy's fuse groups
// get IDs of their own, so two copies of one compound stay two compounds.
func (t *Trace) Concat(o *Trace, n int) {
	for i := 0; i < n; i++ {
		from := len(t.Kernels)
		t.Kernels = append(t.Kernels, o.Kernels...)
		if o.fuseGroups == 0 {
			continue
		}
		for j := from; j < len(t.Kernels); j++ {
			if g := &t.Kernels[j].FuseGroup; g.ID != 0 {
				g.ID += t.fuseGroups
			}
		}
		t.fuseGroups += o.fuseGroups
	}
}

// CountClass sums a quantity over kernels of one class.
func (t *Trace) CountClass(c Class, f func(Kernel) float64) float64 {
	s := 0.0
	for _, k := range t.Kernels {
		if k.Class == c {
			s += f(k)
		}
	}
	return s
}

// NTTLimbTransforms counts (I)NTT limb transforms, the unit of the Fig 1
// table comparison.
func (t *Trace) NTTLimbTransforms() float64 {
	one := func(k Kernel) float64 { return float64(k.Limbs) * float64(k.Instances) }
	return t.CountClass(ClassNTT, one) + t.CountClass(ClassINTT, one)
}

// OneTimeBytes sums streaming evk/plaintext traffic.
func (t *Trace) OneTimeBytes() float64 {
	s := 0.0
	for _, k := range t.Kernels {
		s += k.OneTime
	}
	return s
}

// TotalBytes sums all GPU DRAM traffic (no PIM).
func (t *Trace) TotalBytes() float64 {
	s := 0.0
	for _, k := range t.Kernels {
		s += k.Bytes
	}
	return s
}

// weights of modular ops in 32-bit integer-op equivalents ("one modular mult
// involves a handful of instructions on GPUs", §III-A D2).
const (
	modMulW = 8.0
	modAddW = 1.0
)

func nttWeightedOps(p Params, limbs float64) float64 {
	n := float64(p.N)
	logN := float64(p.LogN)
	butterflies := n / 2 * logN
	return limbs * (butterflies*modMulW + 2*butterflies*modAddW)
}

func bconvWeightedOps(p Params, kin, kout int) float64 {
	return float64(kin) * float64(kout) * float64(p.N) * (modMulW + modAddW)
}

func ceilSqrt(k int) int { return int(math.Ceil(math.Sqrt(float64(k)))) }
