package ckks

import (
	"time"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// opObs pairs the count and duration metrics of one evaluator operation.
// The hot paths record through package-level instances so the per-op cost
// is two atomic updates plus one time.Now pair — negligible next to the
// NTT/BConv work they wrap.
type opObs struct {
	count *obs.Counter
	dur   *obs.Histogram
}

func newOpObs(op string) opObs {
	return opObs{
		count: obs.Default.Counter(`ckks_ops_total{op="` + op + `"}`),
		dur:   obs.Default.Histogram(`ckks_op_seconds{op="` + op + `"}`),
	}
}

// done records one completed operation started at `start`:
// `defer obsMul.done(time.Now())`.
func (o opObs) done(start time.Time) {
	o.count.Inc()
	o.dur.Observe(time.Since(start).Seconds())
}

var (
	obsAdd       = newOpObs("add")
	obsMul       = newOpObs("mul")
	obsKeySwitch = newOpObs("keyswitch") // relinearization + every automorphism

	// Key-switch pipeline stages, recorded under the obsKeySwitch span so
	// /metrics breaks ModUp -> KeyMult -> ModDown down. The hoisted path
	// records them too (one ks-bconv amortized over many ks-keymult/ks-moddown
	// pairs — the hoisting win is visible as the count skew).
	obsKSBConv   = newOpObs("ks-bconv")   // decompose: INTT + BConv premultiply
	obsKSKeyMult = newOpObs("ks-keymult") // gadgetProductInto: per-limb BConv + NTT, digit × key MACs
	obsKSModDown = newOpObs("ks-moddown") // ModDown: INTT + BConv + NTT + epilogue
	obsRescale   = newOpObs("rescale")
	obsRotate    = newOpObs("rotate")
	obsConjugate = newOpObs("conjugate")
	obsBootstrap = newOpObs("bootstrap")

	// Client path. A decrypt fused with its decode (DecryptDecodeNew) is one
	// "decrypt"; ckks_decode_limbs (encoder.go) records the limb prefix read.
	obsEncrypt = newOpObs("encrypt")
	obsDecrypt = newOpObs("decrypt")

	// Fused element-wise ladders (§V) and the linear-transform sweep (the
	// sweep's span annotation carries the plan: bs, diagonals, key switches).
	obsMulConstAccum = newOpObs("mulconst-accum")
	obsLinTrans      = newOpObs("lintrans")

	// Key-switch gadget products spent inside linear-transform sweeps: once
	// per nonzero baby and once per nonzero giant of the plan (once per
	// nonzero diagonal under the degenerate plan) — so a sweep's delta is
	// exactly the rotation count the §V-B cost model predicts, and the BSGS
	// win (K → ~bs + K/bs) is assertable from /metrics.
	obsLinTransRotations = obs.Default.Counter("ckks_lintrans_rotations_total")

	// Coefficient bytes held by LinearTransform encoded-diagonal caches
	// across the process: the rows as stored, N/k words for a diagonal kept
	// at its period (encodedDiag).
	obsLinTransCacheBytes = obs.Default.Gauge("ckks_lintrans_cache_bytes")

	// Key-switch digit count D(ℓ), observed once per decomposition: the
	// distribution shows at which depths production traffic switches keys.
	obsKSDigits = obs.Default.Histogram("ckks_ks_digits")
)
