package ckks

import (
	"fmt"
	"math"
)

// ChebyshevInterpolation approximates f on [a, b] by a degree-"degree"
// Chebyshev series (coefficients in the Chebyshev basis of the affinely
// mapped variable t ∈ [-1, 1]).
func ChebyshevInterpolation(f func(float64) float64, a, b float64, degree int) []float64 {
	n := degree + 1
	nodes := make([]float64, n)
	fv := make([]float64, n)
	for k := 0; k < n; k++ {
		t := math.Cos(math.Pi * (float64(k) + 0.5) / float64(n))
		nodes[k] = t
		x := (b-a)/2*t + (b+a)/2
		fv[k] = f(x)
	}
	coeffs := make([]float64, n)
	for j := 0; j < n; j++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += fv[k] * math.Cos(math.Pi*float64(j)*(float64(k)+0.5)/float64(n))
		}
		coeffs[j] = 2 * sum / float64(n)
	}
	coeffs[0] /= 2
	return coeffs
}

// weightedChebyshevFit returns the degree-"degree" Chebyshev series on
// [a, b] that minimizes Σ (w(x)·(p(x) − f(x)))² over n Chebyshev nodes: a
// least-squares fit whose error is spread against the weight w rather than
// flat, as ChebyshevInterpolation's is. The weighted design matrix is
// factored by modified Gram–Schmidt, f's column reduced along with it.
func weightedChebyshevFit(f, w func(float64) float64, a, b float64, degree, n int) []float64 {
	m := degree + 1
	cols := make([][]float64, m+1) // w·T_0 … w·T_degree, then w·f
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		t := math.Cos(math.Pi * (float64(k) + 0.5) / float64(n))
		x := (b-a)/2*t + (b+a)/2
		wk := w(x)
		t0, t1 := 1.0, t
		for j := 0; j < m; j++ {
			cols[j][k] = wk * t0
			t0, t1 = t1, 2*t*t1-t0
		}
		cols[m][k] = wk * f(x)
	}
	dot := func(u, v []float64) (s float64) {
		for k := range u {
			s += u[k] * v[k]
		}
		return s
	}
	r := make([][]float64, m) // the triangular factor; column m is f's coordinates
	for i := range r {
		r[i] = make([]float64, m+1)
		r[i][i] = math.Sqrt(dot(cols[i], cols[i]))
		for k := range cols[i] {
			cols[i][k] /= r[i][i]
		}
		for j := i + 1; j <= m; j++ {
			r[i][j] = dot(cols[i], cols[j])
			for k := range cols[j] {
				cols[j][k] -= r[i][j] * cols[i][k]
			}
		}
	}
	coeffs := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := r[i][m]
		for j := i + 1; j < m; j++ {
			s -= r[i][j] * coeffs[j]
		}
		coeffs[i] = s / r[i][i]
	}
	return coeffs
}

// splitChebyshev divides the series p by T_split: p = q·T_split + r using
// 2·T_a·T_b = T_{a+b} + T_{|a-b|}; requires split ≥ (deg+1)/2 so all folded
// indices stay in range.
func splitChebyshev(coeffs []float64, split int) (quo, rem []float64) {
	rem = make([]float64, split)
	copy(rem, coeffs[:split])
	quo = make([]float64, len(coeffs)-split)
	quo[0] = coeffs[split]
	for i := split + 1; i < len(coeffs); i++ {
		quo[i-split] = 2 * coeffs[i]
		rem[2*split-i] -= coeffs[i]
	}
	return quo, rem
}

// chebyshevPowers builds the Chebyshev basis ciphertexts T_1..T_{baby-1} and
// the giant steps T_baby, T_{2·baby}, ... T_{2^k·baby} needed to evaluate a
// series of the given degree via BSGS, using T_{2k} = 2T_k²-1 and
// T_{i+j} = 2·T_i·T_j − T_{|i−j|}. Each new power is the rescaled product,
// doubled and corrected in place; the caller owns the map's values.
func (ev *Evaluator) chebyshevPowers(t1 *Ciphertext, degree, baby int) map[int]*Ciphertext {
	pow := map[int]*Ciphertext{1: t1}
	var build func(k int) *Ciphertext
	build = func(k int) *Ciphertext {
		if ct, ok := pow[k]; ok {
			return ct
		}
		// Split k = i + j with i = largest power of two ≤ k/2... prefer
		// halves to minimize depth.
		i := k / 2
		j := k - i
		res := ev.mul(build(i), build(j))
		ev.addInPlace(res, res)
		if i == j {
			ev.addConstInPlace(res, -1) // 2T_i² − T_0
		} else {
			// j − i = 1: T_1 sits above every product, so one constant
			// multiply lands it on res's scale exactly.
			t := ev.mulConstAccum([]*Ciphertext{t1}, []float64{1}, res.Scale)
			ev.subInPlace(res, t)
			ev.Release(t)
		}
		pow[k] = res
		return res
	}
	for k := 2; k < baby; k++ {
		build(k)
	}
	for g := baby; g <= degree; g <<= 1 {
		build(g)
	}
	return pow
}

// EvaluateChebyshev homomorphically evaluates the Chebyshev series on a
// ciphertext whose slots lie in [a, b]. It consumes one level for the affine
// map and seriesDepth(degree) for the series; an operand below that is an
// error wrapping ErrLevel, before anything is borrowed. The primes spanned by
// the evaluation must have near-uniform sizes (as in the EvalMod region of a
// bootstrapping chain); otherwise the scales of sibling BSGS branches diverge
// beyond the additive tolerance.
func (ev *Evaluator) EvaluateChebyshev(ct *Ciphertext, coeffs []float64, a, b float64) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("ckks: EvaluateChebyshev needs at least one coefficient")
	}
	if need := 1 + seriesDepth(len(coeffs)-1); ct.Level() < need {
		return nil, fmt.Errorf("%w: a degree-%d series consumes %d levels, the operand is at level %d",
			ErrLevel, len(coeffs)-1, need, ct.Level())
	}
	// t = (2x - a - b)/(b - a), computed with one constant mult + add.
	t1 := ev.mulConstAccum([]*Ciphertext{ct}, []float64{2 / (b - a)}, ct.Scale)
	ev.addConstInPlace(t1, -(a+b)/(b-a))
	out := ev.chebyshevSeries(t1, coeffs)
	ev.Release(t1)
	return out, nil
}

// seriesDepth is the number of levels chebyshevSeries consumes on a series
// of the given degree: a leaf is one CAccum over T_1 … T_deg, the deepest
// built ⌈log2 deg⌉ products up, and a split multiplies the quotient by its
// giant step T_split.
func seriesDepth(degree int) int {
	baby := max(2, 1<<((bitsLen(degree)+1)/2))
	var depth func(deg int) int
	depth = func(deg int) int {
		if deg < baby {
			return 1 + bitsLen(deg-1)
		}
		split := max(baby, 1<<(bitsLen(deg)-1))
		return max(1+max(depth(deg-split), bitsLen(split-1)), depth(split-1))
	}
	return depth(degree)
}

// chebyshevSeries evaluates Σ c_j T_j(t) on a ciphertext t1 whose slots
// already lie in [−1, 1]: EvaluateChebyshev after its affine map, one level
// fewer. The bootstrap's EvalMod enters here, its map folded into the last
// CoeffToSlot matrix. t1 is only read.
func (ev *Evaluator) chebyshevSeries(t1 *Ciphertext, coeffs []float64) *Ciphertext {
	degree := len(coeffs) - 1
	baby := max(2, 1<<((bitsLen(degree)+1)/2))
	// Every power but T_1 is an intermediate of this evaluation.
	pow := ev.chebyshevPowers(t1, degree, baby)
	defer func() {
		for k, ct := range pow {
			if k != 1 {
				ev.Release(ct)
			}
		}
	}()

	var eval func(c []float64) *Ciphertext
	eval = func(c []float64) *Ciphertext {
		deg := len(c) - 1
		if deg < baby {
			return ev.linearCombination(c, pow)
		}
		split := 1 << (bitsLen(deg) - 1)
		if split < baby {
			split = baby
		}
		quo, rem := splitChebyshev(c, split)
		qc := eval(quo)
		rc := eval(rem)
		prod := ev.mul(qc, pow[split])
		ev.Release(qc)
		// prod + rc, summed into whichever sits lower.
		scale := prod.Scale
		if rc.Level() < prod.Level() {
			prod, rc = rc, prod
		}
		ev.addInPlace(prod, rc)
		ev.Release(rc)
		prod.Scale = scale
		return prod
	}
	return eval(coeffs)
}

// linearCombination computes Σ c_i·T_i for i < baby from the power basis as
// one CAccum over the needed powers, rescaled once: each contributes its limb
// prefix at the lowest level among them.
func (ev *Evaluator) linearCombination(c []float64, pow map[int]*Ciphertext) *Ciphertext {
	terms := make([]*Ciphertext, 0, len(c))
	consts := make([]float64, 0, len(c))
	for i := 1; i < len(c); i++ {
		if c[i] != 0 {
			terms, consts = append(terms, pow[i]), append(consts, c[i])
		}
	}
	if len(terms) == 0 {
		// Only the constant term: 0·T_1 puts a zero at the right scale.
		terms, consts = append(terms, pow[1]), append(consts, 0)
	}
	acc := ev.mulConstAccum(terms, consts, terms[0].Scale)
	ev.addConstInPlace(acc, c[0])
	return acc
}

func bitsLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}
