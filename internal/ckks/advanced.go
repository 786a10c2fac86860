package ckks

// Higher-level evaluator routines built from the basic functions: the
// rotation-tree inner sum used by dot products and convolution reductions,
// exponentiation by squaring, and Goldschmidt division — the "optimized
// routines for advanced features" the Anaheim software framework exposes to
// programmers (§V-C: linear algebra, arbitrary polynomial evaluation, DNN
// support).

import "fmt"

// InnerSum replaces every slot with the sum of its window of n consecutive
// slots (n a power of two ≤ slots): slot i becomes Σ_{j<n} slot (i+j).
// Requires rotation keys for the powers of two below n. Consumes no levels.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n <= 0 || n&(n-1) != 0 || n > ev.params.Slots() {
		return nil, fmt.Errorf("ckks: InnerSum window %d must be a power of two <= %d", n, ev.params.Slots())
	}
	out := ct
	for s := 1; s < n; s <<= 1 {
		rot, err := ev.Rotate(out, s)
		if err == nil {
			ev.addInPlace(rot, out)
		}
		if out != ct {
			ev.Release(out)
		}
		if err != nil {
			return nil, err
		}
		out = rot
	}
	if out == ct {
		out = ev.copyAt(ct, ct.Level()) // n == 1
	}
	return out, nil
}

// EvalPower computes ct^k by square-and-multiply (consumes ceil(log2 k)+
// popcount levels).
func (ev *Evaluator) EvalPower(ct *Ciphertext, k int) (*Ciphertext, error) {
	if k < 1 {
		return nil, fmt.Errorf("ckks: power %d must be >= 1", k)
	}
	// acc and base are ct itself or intermediates of this call; acc may share
	// the base it was first set to. An intermediate is released once neither
	// holds it.
	drop := func(x, keep *Ciphertext) {
		if x != ct && x != keep {
			ev.Release(x)
		}
	}
	var acc *Ciphertext
	base := ct
	for k > 0 {
		if k&1 == 1 {
			if acc == nil {
				acc = base
			} else {
				prod := ev.mul(acc, base)
				drop(acc, base)
				acc = prod
			}
		}
		k >>= 1
		if k > 0 {
			sq := ev.mul(base, base)
			drop(base, acc)
			base = sq
		}
	}
	drop(base, acc)
	if acc == ct {
		acc = ev.copyAt(ct, ct.Level()) // k == 1
	}
	return acc, nil
}

// EvalInverse approximates 1/x by Goldschmidt iteration for slots in
// (0, 2): y₀ = 2-x, then y ← y·(2-x·y), doubling the correct bits each
// round. Each iteration consumes two levels.
func (ev *Evaluator) EvalInverse(ct *Ciphertext, iterations int) *Ciphertext {
	// y = 2 - x
	y := ev.Neg(ct)
	ev.addConstInPlace(y, 2)
	for i := 0; i < iterations; i++ {
		xy := ev.mul(ct, y)
		t := ev.Neg(xy)
		ev.addConstInPlace(t, 2)
		next := ev.mul(y, t)
		ev.Release(xy, t, y)
		y = next
	}
	return y
}
