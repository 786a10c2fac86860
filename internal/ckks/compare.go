package ckks

// Homomorphic comparison primitives. The Sort workload of the paper's
// evaluation ([35], §VII-A) is built from exactly these: an approximate
// sign function evaluated as a composition of low-degree odd polynomials,
// and the min/max "comparator" of a sorting network derived from it.

// signPoly applies one step of the composite sign iteration
// f(x) = (3x - x³)/2, which maps [-1,1] to itself and converges to sign(x).
// Consumes three levels (square, constant scaling, product).
func (ev *Evaluator) signPoly(ct *Ciphertext) *Ciphertext {
	rq := ev.params.RingQ()
	// x² (level -1)
	x2 := ev.mul(ct, ct)
	// (3 - x²)/2 at the scale of x², via constant ops.
	half := ev.multConst(x2, -0.5, float64(rq.Moduli[x2.Level()].Q))
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
// |x| ≳ 0.6^k are mapped close to ±1.
func (ev *Evaluator) EvalSign(ct *Ciphertext, iterations int) *Ciphertext {
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
// This is the two-way comparator of the Sort workload.
func (ev *Evaluator) EvalMinMax(a, b *Ciphertext, iterations int) (minCt, maxCt *Ciphertext) {
	rq := ev.params.RingQ()
	diff := ev.Sub(a, b)
	s := ev.EvalSign(diff, iterations)

	// |a-b| ≈ (a-b)·sign(a-b), at sign's level.
	abs := ev.mul(diff, s)
	ev.Release(diff, s)

	// (sum + abs)/2 and (sum - abs)/2, at abs's level.
	sum := ev.Add(a, b)
	qd := float64(rq.Moduli[abs.Level()].Q)
	hi, lo := ev.Add(sum, abs), ev.Sub(sum, abs)
	maxCt = ev.multConst(hi, 0.5, qd)
	minCt = ev.multConst(lo, 0.5, qd)
	ev.Release(abs, sum, hi, lo)
	return minCt, maxCt
}
