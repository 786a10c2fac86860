// Encrypted two-way comparator: the primitive the paper's Sort workload
// ([35]) iterates over a sorting network. Computes slot-wise min and max of
// two encrypted vectors via an approximate homomorphic sign function,
// without ever decrypting the values.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/anaheim-sim/anaheim"
)

func main() {
	ctx, err := anaheim.NewContext(anaheim.ParametersLiteral{
		LogN: 11,
		LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP: []int{58, 58}, LogScale: 45, HDense: 64, HSparse: 16,
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	slots := ctx.Params.Slots()
	r := rand.New(rand.NewSource(5))

	a := make([]complex128, slots)
	b := make([]complex128, slots)
	for i := range a {
		a[i] = complex(r.Float64()-0.5, 0)
		for {
			b[i] = complex(r.Float64()-0.5, 0)
			if math.Abs(real(a[i])-real(b[i])) > 0.3 {
				break // the approximate sign needs a margin around ties
			}
		}
	}
	ctA, _ := ctx.Encrypt(a)
	ctB, _ := ctx.Encrypt(b)

	minCt, maxCt, err := ctx.MinMax(ctA, ctB, 5)
	if err != nil {
		log.Fatal(err)
	}

	gotMin := ctx.Decrypt(minCt)
	gotMax := ctx.Decrypt(maxCt)
	worst := 0.0
	for i := range a {
		em := math.Abs(real(gotMin[i]) - math.Min(real(a[i]), real(b[i])))
		ex := math.Abs(real(gotMax[i]) - math.Max(real(a[i]), real(b[i])))
		worst = math.Max(worst, math.Max(em, ex))
	}
	fmt.Printf("compared %d encrypted pairs\n", slots)
	fmt.Printf("sample: min(%.3f, %.3f) = %.3f, max = %.3f\n",
		real(a[0]), real(b[0]), real(gotMin[0]), real(gotMax[0]))
	fmt.Printf("worst comparator error: %.3g\n", worst)
	if worst > 0.06 {
		log.Fatal("comparator error too large")
	}
	fmt.Println("encrypted min/max comparator: OK")
}
