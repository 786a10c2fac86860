package rns

import (
	"encoding/binary"
	"math/big"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// fuzzBases are fixed prime chains so the fuzzer spends its budget on
// residue patterns, not prime generation. Three shapes cover small/large
// digits and the near-cap 60-bit moduli.
var fuzzBases = func() []*BasisConverter {
	mk := func(fromBits, k, toBits, nTo int) *BasisConverter {
		fp, err := modarith.GenerateNTTPrimes(fromBits, 8, k)
		if err != nil {
			panic(err)
		}
		tp, err := modarith.GenerateNTTPrimes(toBits, 8, nTo)
		if err != nil {
			panic(err)
		}
		from := make([]modarith.Modulus, k)
		for i, q := range fp {
			from[i] = modarith.MustModulus(q)
		}
		to := make([]modarith.Modulus, nTo)
		for j, q := range tp {
			to[j] = modarith.MustModulus(q)
		}
		bc, err := NewBasisConverter(from, to)
		if err != nil {
			panic(err)
		}
		return bc
	}
	return []*BasisConverter{
		mk(45, 3, 50, 2),
		mk(50, 6, 55, 4),
		mk(60, 2, 60, 3),
	}
}()

// fuzzSelf converts each fuzz basis onto itself: the identity ModUp's own-row
// skip rests on.
var fuzzSelf = func() []*BasisConverter {
	out := make([]*BasisConverter, len(fuzzBases))
	for i, bc := range fuzzBases {
		self, err := NewBasisConverter(bc.From, bc.From)
		if err != nil {
			panic(err)
		}
		out[i] = self
	}
	return out
}()

// FuzzBConv feeds arbitrary residue rows through the wide-accumulation
// Convert and cross-checks it four ways: exact equality with the scalar
// reference oracle, the big.Int x + e·Q contract (0 ≤ e < k, one e across
// all targets), the lazy row conversion staying in [0, 2q) congruent to Convert, and a
// target that is one of the source primes getting the source row back exactly
// (every other Q/q_i term vanishes mod it).
// The rescale pair is differentially checked on the same draws.
func FuzzBConv(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		bc := fuzzBases[int(which)%len(fuzzBases)]
		k := len(bc.From)
		const n = 4
		in := make([][]uint64, k)
		for i := range in {
			in[i] = make([]uint64, n)
			for c := 0; c < n; c++ {
				var buf [8]byte
				off := (i*n + c) * 8
				if off+8 <= len(data) {
					copy(buf[:], data[off:])
				}
				in[i][c] = binary.LittleEndian.Uint64(buf[:]) % bc.From[i].Q
			}
		}
		got := newRows(len(bc.To), n)
		want := newRows(len(bc.To), n)
		lazy := newRows(len(bc.To), n)
		bc.Convert(got, in)
		bc.ConvertRef(want, in)
		convertRows(bc, lazy, in, true)
		Q := basisProduct(bc.From)
		for c := 0; c < n; c++ {
			x := crtReconstruct(in, c, bc.From)
			found := false
			for e := int64(0); e < int64(k); e++ {
				v := new(big.Int).Add(x, new(big.Int).Mul(Q, big.NewInt(e)))
				ok := true
				for j := range bc.To {
					if got[j][c] != new(big.Int).Mod(v, new(big.Int).SetUint64(bc.To[j].Q)).Uint64() {
						ok = false
						break
					}
				}
				if ok {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("col %d: Convert output is not x + e·Q for any 0 ≤ e < %d", c, k)
			}
		}
		for j := range got {
			pj := bc.To[j]
			for c := 0; c < n; c++ {
				if got[j][c] != want[j][c] {
					t.Fatalf("target %d col %d: wide %d != ref %d", j, c, got[j][c], want[j][c])
				}
				if lazy[j][c] >= pj.TwoQ || (lazy[j][c] != got[j][c] && lazy[j][c] != got[j][c]+pj.Q) {
					t.Fatalf("target %d col %d: lazy %d not a [0, 2q) residue of %d", j, c, lazy[j][c], got[j][c])
				}
			}
		}

		self := fuzzSelf[int(which)%len(fuzzBases)]
		own, ownLazy := newRows(k, n), newRows(k, n)
		self.Convert(own, in)
		convertRows(self, ownLazy, in, true)
		for i := range in {
			qi := bc.From[i]
			for c := 0; c < n; c++ {
				if own[i][c] != in[i][c] {
					t.Fatalf("source prime %d col %d: Convert onto it gives %d, source residue is %d", i, c, own[i][c], in[i][c])
				}
				if ownLazy[i][c] != in[i][c] && ownLazy[i][c] != in[i][c]+qi.Q {
					t.Fatalf("source prime %d col %d: lazy %d not a [0, 2q) residue of %d", i, c, ownLazy[i][c], in[i][c])
				}
			}
		}

		if k >= 2 {
			// Rescale differential on the same residues (drop the last limb).
			rows := make([][]uint64, k)
			ref := make([][]uint64, k)
			for i := range rows {
				rows[i] = append([]uint64(nil), in[i]...)
				ref[i] = append([]uint64(nil), in[i]...)
			}
			DivRoundByLastModulus(bc.From, rows)
			DivRoundByLastModulusRef(bc.From, ref)
			for i := 0; i < k-1; i++ {
				for c := 0; c < n; c++ {
					if rows[i][c] != ref[i][c] {
						t.Fatalf("rescale limb %d col %d: %d != ref %d", i, c, rows[i][c], ref[i][c])
					}
				}
			}
		}
	})
}
