// Linear transform: evaluate an encrypted mat-vec product as one
// double-hoisted sweep (§III-B, §V-B) — every baby-step rotation off one
// shared ModUp, one key switch per giant step — and verify it against the
// plaintext transform. The paper's other algorithm, MinKS (two rotation keys,
// one key switch per diagonal), is compared with hoisting by the simulator:
// `anaheim-sim exp -exp fig1-table` and `anaheim-sim exp -exp fig2c`.
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"math/rand"

	"github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

func main() {
	ctx, err := anaheim.NewContext(anaheim.TestParameters(), 2)
	if err != nil {
		log.Fatal(err)
	}
	slots := ctx.Params.Slots()
	r := rand.New(rand.NewSource(42))

	// A banded matrix in diagonal form: K = 16 contiguous nonzero diagonals —
	// the Halevi–Shoup representation used for FHE linear transforms.
	diags := map[int][]complex128{}
	for off := 0; off < 16; off++ {
		d := make([]complex128, slots)
		for j := range d {
			d[j] = complex(r.Float64()-0.5, r.Float64()-0.5)
		}
		diags[off] = d
	}
	lt := anaheim.NewLinearTransform(slots, diags)

	u := make([]complex128, slots)
	for i := range u {
		u[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	want := lt.Apply(u)

	ct, err := ctx.Encrypt(u)
	if err != nil {
		log.Fatal(err)
	}

	// The plan's baby + giant Galois keys, and nothing else.
	ctx.GenLinearTransformKeys(lt)
	keySwitches := obs.Default.Counter("ckks_lintrans_rotations_total")
	before := keySwitches.Value()
	out, err := ctx.EvaluateLinearTransform(ct, lt)
	if err != nil {
		log.Fatal(err)
	}
	e := maxErr(ctx.Decrypt(out), want)
	fmt.Printf("%d diagonals: %d Galois keys, %.0f key switches (per-diagonal: %d of each), max error %.3g\n",
		len(diags), len(ctx.EvaluationKeys().Gal), keySwitches.Value()-before, len(diags)-1, e)

	if e > 1e-3 {
		log.Fatal("linear transform error too large")
	}
	fmt.Println("the sweep matches the plaintext transform: OK")
}

func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > m {
			m = e
		}
	}
	return m
}
