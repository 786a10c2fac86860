package ckks

import "fmt"

// Homomorphic comparison primitives. The Sort workload of the paper's
// evaluation ([35], §VII-A) is built from exactly these: an approximate
// sign function evaluated as a composition of low-degree odd polynomials,
// and the min/max "comparator" of a sorting network derived from it.

// signPoly applies one step of the composite sign iteration
// f(x) = (3x - x³)/2, which maps [-1,1] to itself and converges to sign(x).
// Consumes three levels (square, constant scaling, product).
func (ev *Evaluator) signPoly(ct *Ciphertext) *Ciphertext {
	// x² (level -1)
	x2 := ev.mul(ct, ct)
	// (3 - x²)/2 at the scale of x², via constant ops.
	half := ev.mulConstAccum([]*Ciphertext{x2}, []float64{-0.5}, x2.Scale)
	ev.Release(x2)
	ev.addConstInPlace(half, 1.5)
	// x · (3 - x²)/2 (level -2); the product takes x at half's level.
	out := ev.mul(ct, half)
	ev.Release(half)
	return out
}

// EvalSign approximates sign(x) on slots in [-1, 1] with the given number
// of composite iterations (each consumes three levels). More iterations
// sharpen the transition around zero: after k iterations inputs with
// |x| ≳ 0.6^k are mapped close to ±1. An operand below 3k levels is an error
// wrapping ErrLevel, before anything is borrowed.
func (ev *Evaluator) EvalSign(ct *Ciphertext, iterations int) (*Ciphertext, error) {
	if need := 3 * max(iterations, 0); ct.Level() < need {
		return nil, fmt.Errorf("%w: %d sign iterations consume %d levels, the operand is at level %d",
			ErrLevel, iterations, need, ct.Level())
	}
	return ev.evalSign(ct, iterations), nil
}

// evalSign is EvalSign on an operand with the levels it consumes.
func (ev *Evaluator) evalSign(ct *Ciphertext, iterations int) *Ciphertext {
	if iterations <= 0 {
		return ev.copyAt(ct, ct.Level())
	}
	out := ct
	for i := 0; i < iterations; i++ {
		next := ev.signPoly(out)
		if out != ct {
			ev.Release(out)
		}
		out = next
	}
	return out
}

// EvalMinMax returns the slot-wise (min, max) of two ciphertexts with
// values in [-1/2, 1/2]:
//
//	max = (a+b)/2 + (a-b)·sign(a-b)/2 ,  min = (a+b) - max.
//
// This is the two-way comparator of the Sort workload. It consumes 3k+2
// levels for k sign iterations; operands below that are an error wrapping
// ErrLevel, before anything is borrowed.
func (ev *Evaluator) EvalMinMax(a, b *Ciphertext, iterations int) (minCt, maxCt *Ciphertext, err error) {
	if need, lvl := 3*max(iterations, 0)+2, min(a.Level(), b.Level()); lvl < need {
		return nil, nil, fmt.Errorf("%w: a comparator of %d sign iterations consumes %d levels, the operands are at level %d",
			ErrLevel, iterations, need, lvl)
	}
	diff := ev.Sub(a, b)
	s := ev.evalSign(diff, iterations)

	// |a-b| ≈ (a-b)·sign(a-b), at sign's level.
	abs := ev.mul(diff, s)
	ev.Release(diff, s)

	// (sum + abs)/2 and (sum - abs)/2, at abs's level.
	sum := ev.Add(a, b)
	hi, lo := ev.Add(sum, abs), ev.Sub(sum, abs)
	maxCt = ev.mulConstAccum([]*Ciphertext{hi}, []float64{0.5}, hi.Scale)
	minCt = ev.mulConstAccum([]*Ciphertext{lo}, []float64{0.5}, lo.Scale)
	ev.Release(abs, sum, hi, lo)
	return minCt, maxCt, nil
}
