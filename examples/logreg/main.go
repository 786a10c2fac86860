// Encrypted logistic-regression inference (HELR-style, [33]): score a batch
// of feature vectors against a model without ever decrypting the features.
// The sigmoid is evaluated as a Chebyshev polynomial, as HELR does with its
// low-degree approximations.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/anaheim-sim/anaheim"
)

const features = 8 // one feature vector per slot group

func main() {
	ctx, err := anaheim.NewContext(anaheim.ParametersLiteral{
		LogN:     11,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		HDense:   64,
		HSparse:  16,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	slots := ctx.Params.Slots()
	batch := slots / features
	r := rand.New(rand.NewSource(99))

	// Synthetic model and data (the paper's HELR uses 14x14 MNIST; the op
	// structure is identical).
	weights := make([]float64, features)
	bias := 0.15
	for i := range weights {
		weights[i] = 2*r.Float64() - 1
	}
	x := make([][]float64, batch)
	for b := range x {
		x[b] = make([]float64, features)
		for i := range x[b] {
			x[b][i] = 2*r.Float64() - 1
		}
	}

	// Pack: slot b*features+i holds x[b][i].
	packed := make([]complex128, slots)
	wvec := make([]complex128, slots)
	for b := 0; b < batch; b++ {
		for i := 0; i < features; i++ {
			packed[b*features+i] = complex(x[b][i], 0)
			wvec[b*features+i] = complex(weights[i], 0)
		}
	}

	ct, err := ctx.Encrypt(packed)
	if err != nil {
		log.Fatal(err)
	}

	// Dot product: multiply by the replicated weight vector, then a
	// log2(features)-step rotation-and-add reduction.
	wpt, err := ctx.Encode(wvec, ct.Level())
	if err != nil {
		log.Fatal(err)
	}
	acc := ctx.MulPlain(ct, wpt)
	rots := []int{}
	for s := 1; s < features; s <<= 1 {
		rots = append(rots, s)
	}
	ctx.GenRotationKeys(rots...)
	for s := 1; s < features; s <<= 1 {
		rot, err := ctx.Rotate(acc, s)
		if err != nil {
			log.Fatal(err)
		}
		acc = ctx.Add(acc, rot)
	}
	acc = ctx.AddConst(acc, bias)

	// Sigmoid via a degree-15 Chebyshev approximation on [-8, 8].
	sigmoid := func(t float64) float64 { return 1 / (1 + math.Exp(-t)) }
	scored, err := ctx.EvaluatePolynomial(acc, sigmoid, -8, 8, 15)
	if err != nil {
		log.Fatal(err)
	}

	got := ctx.Decrypt(scored)
	maxErr, correct := 0.0, 0
	for b := 0; b < batch; b++ {
		z := bias
		for i := 0; i < features; i++ {
			z += weights[i] * x[b][i]
		}
		want := sigmoid(z)
		e := math.Abs(real(got[b*features]) - want)
		if e > maxErr {
			maxErr = e
		}
		if (real(got[b*features]) > 0.5) == (want > 0.5) {
			correct++
		}
	}
	fmt.Printf("scored %d samples homomorphically\n", batch)
	fmt.Printf("max sigmoid error: %.3g; decision agreement: %d/%d\n", maxErr, correct, batch)
	if maxErr > 5e-2 || correct < batch*99/100 {
		log.Fatal("encrypted inference diverged from plaintext")
	}
	fmt.Println("encrypted logistic-regression inference: OK")
}
