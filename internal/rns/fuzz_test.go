package rns

import (
	"encoding/binary"
	"math/big"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// fuzzBases are fixed prime chains so the fuzzer spends its budget on
// residue patterns, not prime generation. The shapes cover small and large
// digits, sources and targets on both sides of the row kernel's narrow bound
// (sources below 2^51, constants below 2^52: the primes nearest 2^51 and
// 2^52 fall either side), hks_n16's digit 0 — a 55-bit q0 among 45-bit
// primes, narrow and wide terms in one row — and the near-cap 60- and 61-bit
// moduli.
var fuzzBases = func() []*BasisConverter {
	primes := func(bits, k int) []modarith.Modulus {
		ps, err := modarith.GenerateNTTPrimes(bits, 8, k)
		if err != nil {
			panic(err)
		}
		ms := make([]modarith.Modulus, k)
		for i, q := range ps {
			ms[i] = modarith.MustModulus(q)
		}
		return ms
	}
	mk := func(from, to []modarith.Modulus) *BasisConverter {
		bc, err := NewBasisConverter(from, to)
		if err != nil {
			panic(err)
		}
		return bc
	}
	return []*BasisConverter{
		mk(primes(45, 3), primes(50, 2)),
		mk(primes(50, 6), primes(55, 4)),
		mk(primes(60, 2), primes(60, 3)),
		mk(primes(51, 4), primes(52, 3)),
		mk(primes(61, 2), append(primes(50, 2), primes(51, 2)...)),
		mk(append(primes(55, 1), primes(45, 6)...), append(primes(45, 9)[6:], primes(50, 2)...)),
	}
}()

// fuzzScaled is each fuzz basis as a Scaled converter, and fuzzFolded each
// with a fold every two terms — more terms than one fold allows, on every
// basis with k > 2.
var fuzzScaled, fuzzFolded = func() (scaled, folded []*BasisConverter) {
	for _, bc := range fuzzBases {
		s := make([]uint64, len(bc.To))
		for j, pj := range bc.To {
			s[j] = (0x9e3779b97f4a7c15 * uint64(j+1)) % pj.Q
		}
		scaled = append(scaled, bc.Scaled(s))
		f := *bc
		f.foldEvery = 2
		folded = append(folded, &f)
	}
	return scaled, folded
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
// Convert and cross-checks it: exact equality with the scalar reference
// oracle, the big.Int x + e·Q contract (0 ≤ e < k, one e across all targets),
// and a target that is one of the source primes getting the source row back
// exactly (every other Q/q_i term vanishes mod it). The plain, Scaled and
// folded converters then run on every kernel table, Convert and the row
// conversion exact and lazy, over a row length (17 to 32) with and without a
// 16-coefficient tail: every output equals the reference, every lazy one is
// a [0, 2q) residue of it, and every table's lazy words are the Go table's.
// The group conversion, 1 to modarith.ConvertGroup + 1 targets a call over
// scattered target lists, gives each table's row-by-row words, exact and
// lazy.
// The rescale pair is differentially checked on the same draws.
func FuzzBConv(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0x7b), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(10), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint8(53), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		b := int(which) % len(fuzzBases)
		bc := fuzzBases[b]
		k := len(bc.From)
		n := 17 + int(which/8)%16
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
		bc.Convert(got, in)
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

		for _, conv := range []*BasisConverter{bc, fuzzScaled[b], fuzzFolded[b]} {
			want := newRows(len(conv.To), n)
			conv.ConvertRef(want, in)
			var goLazy [][]uint64 // the first table run is the Go one
			forEachTable(t, conv, func(table string, conv *BasisConverter) {
				whole, exact, lazy := newRows(len(conv.To), n), newRows(len(conv.To), n), newRows(len(conv.To), n)
				conv.Convert(whole, in)
				convertRows(conv, exact, in, false)
				convertRows(conv, lazy, in, true)
				if goLazy == nil {
					goLazy = lazy
				}
				for g := 1; g <= modarith.ConvertGroup+1; g++ {
					gExact, gLazy := newRows(len(conv.To), n), newRows(len(conv.To), n)
					convertGroups(conv, gExact, in, false, g)
					convertGroups(conv, gLazy, in, true, g)
					for j := range conv.To {
						for c := 0; c < n; c++ {
							if gExact[j][c] != exact[j][c] || gLazy[j][c] != lazy[j][c] {
								t.Fatalf("%s: %d-target groups: target %d col %d: exact %d lazy %d, row by row %d %d",
									table, g, j, c, gExact[j][c], gLazy[j][c], exact[j][c], lazy[j][c])
							}
						}
					}
				}
				for j, pj := range conv.To {
					for c := 0; c < n; c++ {
						if whole[j][c] != want[j][c] || exact[j][c] != want[j][c] {
							t.Fatalf("%s: target %d col %d: Convert %d, row %d, ref %d", table, j, c, whole[j][c], exact[j][c], want[j][c])
						}
						if lz := lazy[j][c]; lz >= pj.TwoQ || (lz != want[j][c] && lz != want[j][c]+pj.Q) {
							t.Fatalf("%s: target %d col %d: lazy %d not a [0, 2q) residue of %d", table, j, c, lz, want[j][c])
						}
						if lazy[j][c] != goLazy[j][c] {
							t.Fatalf("%s: target %d col %d: lazy %d, Go table %d", table, j, c, lazy[j][c], goLazy[j][c])
						}
					}
				}
			})
		}

		self := fuzzSelf[b]
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
			NewRescaler(bc.From).DivRoundByLastModulus(rows)
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
