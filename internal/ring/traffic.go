package ring

import "github.com/anaheim-sim/anaheim/internal/obs"

// Estimated-DRAM-traffic accounting. The Anaheim thesis is that FHE is
// bottlenecked by data movement, so the ring layer publishes an explicit
// bytes-moved model next to its wall-clock numbers:
//
//   - A barriered kernel (one forEachLimb sweep per op) streams every operand
//     row it reads from DRAM and writes every output row back: a polynomial
//     at N=2^14 with 16 limbs is 2 MB per operand, far beyond L1/L2, so
//     consecutive kernels in a chain re-fetch the same rows.
//   - A pipelined chain (see pipeline.go) executes a whole stage chain for
//     one limb before touching the next, so each distinct row is fetched at
//     most once and written back at most once per chain, no matter how many
//     stages touch it — the accumulator of a 2·digits-deep MAC ladder costs
//     one read and one write instead of 2·digits of each.
//
// The model counts coefficient rows only (limbs × N × 8 bytes); twiddle,
// index, and scalar tables are small, shared, and cache-resident, so they
// are excluded. Counters are exported as
// `ring_bytes_moved_total{class=...,mode=...}` plus `ring_bytes_saved_total`
// (the barriered-equivalent minus actual estimate of every pipelined chain),
// which the repo benchmark samples around each op (`ring.bytes_moved_per_op`,
// `ring.bytes_saved_per_op`).
var (
	bytesElemwise  = obs.Default.Counter(`ring_bytes_moved_total{class="elemwise",mode="barriered"}`)
	bytesMac       = obs.Default.Counter(`ring_bytes_moved_total{class="mac",mode="barriered"}`)
	bytesReduce    = obs.Default.Counter(`ring_bytes_moved_total{class="reduce",mode="barriered"}`)
	bytesTransform = obs.Default.Counter(`ring_bytes_moved_total{class="transform",mode="barriered"}`)
	bytesAut       = obs.Default.Counter(`ring_bytes_moved_total{class="aut",mode="barriered"}`)
	bytesPipelined = obs.Default.Counter(`ring_bytes_moved_total{class="chain",mode="pipelined"}`)
	bytesSaved     = obs.Default.Counter("ring_bytes_saved_total")
)

// accountRows charges `rows` row-streams (reads plus writes) of `limbs`
// limbs, N coefficients each, to the given op class.
func accountRows(c *obs.Counter, rows, limbs, n int) {
	c.Add(float64(rows) * float64(limbs) * float64(n) * 8)
}
