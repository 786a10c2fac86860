package ckks

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/anaheim-sim/anaheim/internal/modarith"
	"github.com/anaheim-sim/anaheim/internal/ring"
)

// ErrShape marks a ciphertext or switching key whose layout no encryptor or
// key generator produces, under any parameters (the wire decoders) or under
// the given ones (Parameters.CheckCiphertext, Parameters.CheckKeys). An op
// handed one could panic or return garbage without an error.
var ErrShape = errors.New("ckks: operand shape does not match")

// rowsOK reports whether p is an NTT-flagged polynomial of exactly limbs
// rows of n coefficients and, unless moduli is nil, every residue of row i
// below moduli[i].
func rowsOK(p *ring.Poly, limbs, n int, moduli []modarith.Modulus) bool {
	if p == nil || !p.IsNTT || len(p.Coeffs) != limbs {
		return false
	}
	for i, row := range p.Coeffs {
		if len(row) != n || moduli != nil && slices.Max(row) >= moduli[i].Q {
			return false
		}
	}
	return true
}

// checkKeyRows is the one switching-key layout rule: a key at level ℓ has
// ⌈(ℓ+1)/α⌉ digits, each an NTT-flagged B polynomial of qRows = ℓ+1 rows over
// Q and one of pRows = α rows over P, n coefficients a row, and unless qm and
// pm are nil every residue below its Q or P modulus. The wire decoder applies
// it with digit 0's shape, Parameters.CheckKeys and the key switch (covers)
// with the parameters'.
func checkKeyRows(k *SwitchingKey, qRows, pRows, n int, qm, pm []modarith.Modulus) error {
	digits := digitCount(qRows, pRows)
	if len(k.BQ) != digits || len(k.BP) != digits {
		return fmt.Errorf("%w: switching key has %d Q and %d P digits, want %d for %d Q rows at α = %d",
			ErrShape, len(k.BQ), len(k.BP), digits, qRows, pRows)
	}
	for d := 0; d < digits; d++ {
		if !rowsOK(k.BQ[d], qRows, n, qm) || !rowsOK(k.BP[d], pRows, n, pm) {
			return fmt.Errorf("%w: switching key digit %d breaks the layout of %d Q and %d P NTT rows of %d coefficients",
				ErrShape, d, qRows, pRows, n)
		}
	}
	return nil
}

// CheckKeys returns an error wrapping ErrShape, naming the key, unless every
// switching key of keys is one key generation gives at its level under p:
// a level in [0, MaxLevel] and checkKeyRows with every residue reduced. An
// absent relinearization or encapsulation key passes (NewBootstrapper refuses
// the latter as missing); a nil Galois key or key set does not.
func (p *Parameters) CheckKeys(keys *EvaluationKeySet) error {
	if keys == nil {
		return fmt.Errorf("%w: no evaluation key set", ErrShape)
	}
	check := func(name string, k *SwitchingKey) error {
		if k == nil {
			return fmt.Errorf("%w: %s is missing", ErrShape, name)
		}
		if lvl := k.Level(); lvl < 0 || lvl > p.MaxLevel() {
			return fmt.Errorf("%w: %s is at level %d, want 0 to %d", ErrShape, name, lvl, p.MaxLevel())
		}
		if err := checkKeyRows(k, k.Level()+1, p.Alpha(), p.n, p.ringQ.Moduli, p.ringP.Moduli); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	optional := map[string]*SwitchingKey{"relinearization key": keys.Rlk}
	if b := keys.Boot; b != nil {
		optional["dense-to-sparse encapsulation key"] = b.ToSparse
		optional["sparse-to-dense encapsulation key"] = b.ToDense
	}
	for name, k := range optional {
		if k != nil {
			if err := check(name, k); err != nil {
				return err
			}
		}
	}
	for g, k := range keys.Gal {
		if err := check(fmt.Sprintf("Galois key %d", g), k); err != nil {
			return err
		}
	}
	return nil
}

// checkComponents is the part of a ciphertext's layout that holds under any
// parameters, the part the wire decoder checks: two components of one shape
// and a finite positive scale.
func checkComponents(c0, c1 *ring.Poly, scale float64) error {
	switch {
	case !(scale > 0) || math.IsInf(scale, 0): // !(>0) also catches NaN
		return fmt.Errorf("%w: ciphertext scale %v is not a positive finite number", ErrShape, scale)
	case c0 == nil || c1 == nil:
		return fmt.Errorf("%w: ciphertext component missing", ErrShape)
	case len(c0.Coeffs) != len(c1.Coeffs):
		return fmt.Errorf("%w: ciphertext components disagree on level (%d vs %d limbs)", ErrShape, len(c0.Coeffs), len(c1.Coeffs))
	case len(c0.Coeffs) > 0 && len(c0.Coeffs[0]) != len(c1.Coeffs[0]):
		return fmt.Errorf("%w: ciphertext components disagree on ring degree (%d vs %d)", ErrShape, len(c0.Coeffs[0]), len(c1.Coeffs[0]))
	}
	return nil
}

// CheckCiphertext returns an error wrapping ErrShape unless ct is one an
// encryptor under p gives at its level ℓ: checkComponents, ℓ in
// [0, MaxLevel], and both components NTT-flagged with ℓ+1 rows of N
// coefficients, every residue below its q_i.
func (p *Parameters) CheckCiphertext(ct *Ciphertext) error {
	if ct == nil {
		return fmt.Errorf("%w: no ciphertext", ErrShape)
	}
	if err := checkComponents(ct.C0, ct.C1, ct.Scale); err != nil {
		return err
	}
	lvl := ct.Level()
	if lvl < 0 || lvl > p.MaxLevel() {
		return fmt.Errorf("%w: ciphertext at level %d, want 0 to %d", ErrShape, lvl, p.MaxLevel())
	}
	for i, c := range ct.polys() {
		if !rowsOK(c, lvl+1, p.n, p.ringQ.Moduli) {
			return fmt.Errorf("%w: ciphertext component %d is not %d reduced NTT rows of %d coefficients", ErrShape, i, lvl+1, p.n)
		}
	}
	return nil
}
