package ckks

import (
	"fmt"
	"sync"

	"github.com/anaheim-sim/anaheim/internal/ring"
)

// LinearTransform is a slot-space linear map in the diagonal (Halevi–Shoup)
// representation used for FHE linear transforms (§III-B):
//
//	(M·u)_j = Σ_r Diags[r][j] · u_{(j+r) mod slots} ,
//
// i.e. M·u = Σ_r d_r ⊙ (u ≪ r), evaluated homomorphically with K = |Diags|
// PMULT and HROT pairs.
type LinearTransform struct {
	Slots int
	Diags map[int][]complex128

	// encMu guards only the encCache map itself: each (level, variant) entry
	// is built once outside the lock via per-entry singleflight, so
	// concurrent sessions encoding different levels proceed in parallel and
	// same-level racers wait on the builder instead of serializing every
	// evaluation behind one transform-wide mutex. Encoding a diagonal costs
	// an IFFT plus two NTTs; it depends only on (diagonal, level, giant
	// pre-rotation), so it is the paper's "offline" plaintext preprocessing
	// (§V-B pre-rotates these same plaintexts) and is cached across
	// evaluations.
	encMu    sync.Mutex
	encCache map[encKey]*encEntry

	// The cost model's sweep plan (see bsgs.go), computed on first use.
	planOnce sync.Once
	plan     *bsgsPlan
}

// encKey names one cached encoding variant of the transform's diagonals.
type encKey struct {
	lvl   int
	bs    int     // diagonals pre-rotated for the sweep plan with this baby step
	scale float64 // the encoding scale: q_lvl, or a multiple a bootstrap folds in
}

// encEntry is one singleflight-built encoding variant: ready is closed when
// the build finishes (diags/err are immutable afterwards).
type encEntry struct {
	ready chan struct{}
	diags map[int]encodedDiag
	err   error
}

// encodedDiag is one diagonal lifted to the extended basis: NTT-form
// plaintexts over Q (at some level) and over P.
type encodedDiag struct {
	q, p *ring.Poly
}

func (d encodedDiag) bytes() int64 {
	n := int64(len(d.q.Coeffs[0]))
	return 8 * n * int64(d.q.Level()+1+d.p.Level()+1)
}

// NewLinearTransform copies the provided diagonals.
func NewLinearTransform(slots int, diags map[int][]complex128) *LinearTransform {
	lt := &LinearTransform{
		Slots:    slots,
		Diags:    make(map[int][]complex128, len(diags)),
		encCache: make(map[encKey]*encEntry),
	}
	for r, d := range diags {
		v := make([]complex128, slots)
		copy(v, d)
		lt.Diags[((r%slots)+slots)%slots] = v
	}
	return lt
}

// encodedVariant returns the cached encoding for key, building it via build
// on first use. The transform-wide lock is held only for the map lookup and
// insert; the expensive encode runs outside it, and concurrent callers of the
// same key block on the entry's ready channel (singleflight). A failed build
// is evicted so a later call can retry.
func (lt *LinearTransform) encodedVariant(key encKey, build func() (map[int]encodedDiag, error)) (map[int]encodedDiag, error) {
	lt.encMu.Lock()
	if lt.encCache == nil {
		lt.encCache = make(map[encKey]*encEntry)
	}
	if e, ok := lt.encCache[key]; ok {
		lt.encMu.Unlock()
		<-e.ready
		return e.diags, e.err
	}
	e := &encEntry{ready: make(chan struct{})}
	lt.encCache[key] = e
	lt.encMu.Unlock()

	e.diags, e.err = build()
	if e.err != nil {
		lt.encMu.Lock()
		delete(lt.encCache, key)
		lt.encMu.Unlock()
	} else {
		for _, d := range e.diags {
			obsLinTransCacheBytes.Add(d.bytes())
		}
	}
	close(e.ready)
	return e.diags, e.err
}

// encodedAt returns the diagonals encoded for the sweep plan at level lvl
// and the given scale, building and caching them on first use:
// each diagonal r = rot + b is pre-rotated by −rot at encode time (the §V-B
// offline preprocessing), so the giant rotation can be applied to the whole
// inner sum after the fact instead of to the ciphertext per diagonal. Under
// the degenerate plan (rot = 0 throughout) these are the plain diagonals.
func (lt *LinearTransform) encodedAt(enc *Encoder, lvl int, scale float64, plan *bsgsPlan) (map[int]encodedDiag, error) {
	return lt.encodedVariant(encKey{lvl: lvl, bs: plan.bs, scale: scale}, func() (map[int]encodedDiag, error) {
		m := make(map[int]encodedDiag, len(lt.Diags))
		for _, g := range plan.giants {
			for _, d := range g.diags {
				pq, pp, err := enc.encodeDiagQP(lt.Diags[d.r], -g.rot, lvl, scale)
				if err != nil {
					return nil, err
				}
				m[d.r] = encodedDiag{q: pq, p: pp}
			}
		}
		return m, nil
	})
}

// Apply evaluates the transform on a plaintext vector (reference for tests).
func (lt *LinearTransform) Apply(u []complex128) []complex128 {
	n := lt.Slots
	out := make([]complex128, n)
	for r, d := range lt.Diags {
		for j := 0; j < n; j++ {
			out[j] += d[j] * u[(j+r)%n]
		}
	}
	return out
}

// encodeDiagQP encodes a diagonal into both the Q basis (level lvl) and the
// P basis, sharing the same integer coefficients — the "larger plaintexts in
// the extended modulus PQ" that hoisting requires (§III-B). rot slot-rotates
// the values before encoding (v[j] = values[(j+rot) mod slots]); the sweep
// passes −(giant rotation) so the pre-rotation happens offline, at encode
// time, instead of on the ciphertext.
func (e *Encoder) encodeDiagQP(values []complex128, rot, lvl int, scale float64) (*ring.Poly, *ring.Poly, error) {
	slots := e.params.Slots()
	if len(values) > slots {
		return nil, nil, fmt.Errorf("ckks: diagonal longer than slot count")
	}
	vals := make([]complex128, slots)
	copy(vals, values)
	if rot %= slots; rot != 0 {
		rotated := make([]complex128, slots)
		for j := range rotated {
			rotated[j] = vals[((j+rot)%slots+slots)%slots]
		}
		vals = rotated
	}
	ints, err := e.roundCoeffs(vals, scale)
	if err != nil {
		return nil, nil, err
	}
	rq, rp := e.params.RingQ(), e.params.RingP()
	pq := ring.SmallVectorToPoly(rq, lvl, ints)
	pp := ring.SmallVectorToPoly(rp, rp.MaxLevel(), ints)
	rq.NTT(pq, lvl)
	rp.NTT(pp, rp.MaxLevel())
	return pq, pp, nil
}
