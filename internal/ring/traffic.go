package ring

import "github.com/anaheim-sim/anaheim/internal/obs"

// Estimated-DRAM-traffic accounting. The Anaheim thesis is that FHE is
// bottlenecked by data movement, so the ring layer publishes an explicit
// bytes-moved model next to its wall-clock numbers. Every limb op runs as a
// chain on the limb pipeline (pipeline.go), which executes the whole chain
// for one limb before touching the next, so each distinct row is fetched at
// most once and written back at most once per chain, no matter how many
// stages touch it — the accumulator of a 2·digits-deep MAC ladder costs one
// read and one write instead of 2·digits of each. A one-stage chain (a Ring
// op) therefore charges exactly the rows its kernel streams.
//
// The model counts coefficient rows only (limbs × N × 8 bytes, a row stored
// one word per block of k at N/k words); twiddle, index, and scalar tables
// are small, shared, and cache-resident, so they are excluded, and so are a
// chain's Scratch rows, which never leave the executing goroutine. Counters are exported as `ring_bytes_moved_total`
// plus `ring_bytes_saved_total` (the one-sweep-per-stage estimate minus the
// actual one, summed over every chain), which the repo benchmark samples
// around each op (`ring.bytes_moved_per_op`, `ring.bytes_saved_per_op`).
var (
	bytesMoved = obs.Default.Counter("ring_bytes_moved_total")
	bytesSaved = obs.Default.Counter("ring_bytes_saved_total")
)

// accountWords charges the bytes of `words` streamed words (reads plus
// writes) to c.
func accountWords(c *obs.Counter, words int) {
	c.Add(float64(words) * 8)
}
