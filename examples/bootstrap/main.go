// Bootstrapping: refresh an exhausted ciphertext without decrypting it —
// the defining feature of FHE (§II-C) and the workload at the center of the
// Anaheim evaluation. Takes ~15s at the (insecure) demo scale N=2^11.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"github.com/anaheim-sim/anaheim"
)

func main() {
	fmt.Println("setting up bootstrapping keys and DFT matrices (N=2^11)...")
	ctx, err := anaheim.NewContext(anaheim.BootParameters(), 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.SetupBootstrapping(anaheim.DefaultBootstrapConfig()); err != nil {
		log.Fatal(err)
	}

	r := rand.New(rand.NewSource(3))
	slots := ctx.Params.Slots()
	v := make([]complex128, slots)
	for i := range v {
		v[i] = complex(1.4*r.Float64()-0.7, 1.4*r.Float64()-0.7)
	}
	ct, err := ctx.Encrypt(v)
	if err != nil {
		log.Fatal(err)
	}

	// Burn the ciphertext down to level 0: no multiplications remain.
	ct = ctx.DropToLevel(ct, 0)
	fmt.Printf("ciphertext exhausted: level %d (no multiplications left)\n", ct.Level())

	// A long computation bootstraps again and again and keeps only the latest
	// result. Releasing the one it replaces hands its memory back to the
	// context's buffer pool, so from the second round on a bootstrap
	// allocates next to nothing (the first one also encodes the DFT matrices).
	var fresh *anaheim.Ciphertext
	var elapsed time.Duration
	for round := 1; round <= 3; round++ {
		start := time.Now()
		next, err := ctx.Bootstrap(ct)
		if err != nil {
			log.Fatal(err)
		}
		elapsed = time.Since(start)
		fmt.Printf("round %d: %v\n", round, elapsed.Round(time.Millisecond))
		ctx.Release(fresh) // nil in the first round: a no-op
		fresh = next
	}

	got := ctx.Decrypt(fresh)
	maxE := 0.0
	for i := range v {
		if e := cmplx.Abs(got[i] - v[i]); e > maxE {
			maxE = e
		}
	}
	fmt.Printf("bootstrapped in %v: level 0 -> %d, max slot error %.3g (≈%.1f bits)\n",
		elapsed.Round(time.Millisecond), fresh.Level(), maxE, -math.Log2(maxE))

	// Prove the refreshed ciphertext computes again.
	sq := ctx.Mul(fresh, fresh)
	gotSq := ctx.Decrypt(sq)
	worst := 0.0
	for i := range v {
		if e := cmplx.Abs(gotSq[i] - v[i]*v[i]); e > worst {
			worst = e
		}
	}
	fmt.Printf("post-bootstrap squaring error: %.3g\n", worst)
	if maxE > 2e-2 || worst > 5e-2 {
		log.Fatal("bootstrap accuracy insufficient")
	}
	fmt.Println("bootstrapping: OK")
}
