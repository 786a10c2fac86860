package modarith

import (
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzModuli are fixed so the fuzzer spends its budget on operand patterns,
// not prime generation: the bottom and top of the supported range plus a
// mid-chain prime.
var fuzzModuli = func() []Modulus {
	var ms []Modulus
	for _, bits := range []int{45, 55, 60, MaxModulusBits} {
		ps, err := GenerateNTTPrimes(bits, 12, 1)
		if err != nil {
			panic(err)
		}
		ms = append(ms, MustModulus(ps[0]))
	}
	return ms
}()

// FuzzVecKernels cross-checks every registered assembly tier against the
// pure-Go oracle on fuzzer-chosen operands. The row length is derived from
// the data so lane tails (n mod 8) are exercised; operands are
// folded into the lazy domain the kernels are specified on. Any divergence —
// a wrong Barrett carry, a missed conditional subtraction, a bad tail
// split — is a crash here long before it corrupts a ciphertext.
func FuzzVecKernels(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0xf3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	// A span-2 stage chain at the 45-bit prime whose forward outputs reach
	// [2q, 4q): the inverse stage is specified on [0, 2q) only.
	f.Add(uint8(0), []byte(strings.Repeat("0", 45)+"A"+strings.Repeat("0", 242)))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		m := fuzzModuli[int(sel)%len(fuzzModuli)]
		n := len(data)/16 + 1 // 1..65 for up to 1 KiB of data
		if n > 65 {
			n = 65
		}
		word := func(i int) uint64 {
			var buf [8]byte
			if (i+1)*8 <= len(data) {
				copy(buf[:], data[i*8:])
			} else {
				buf[0] = byte(i)
			}
			return binary.LittleEndian.Uint64(buf[:])
		}
		a := make([]uint64, n)
		b := make([]uint64, n)
		acc := make([]uint64, n)
		for i := range a {
			a[i] = word(i) % m.TwoQ
			b[i] = (word(i)*0x9e3779b97f4a7c15 + uint64(i)) % m.TwoQ
			acc[i] = word(i) ^ 0xa5a5a5a5a5a5a5a5 // full-range accumulator words
		}
		w := word(0) % m.Q
		ws := m.ShoupPrecomp(w)

		for _, tt := range KernelTables() {
			if tt.t == &goKernels {
				continue
			}
			tier, tbl := tt.String(), tt.t

			out := make([]uint64, n)
			want := make([]uint64, n)
			tbl.mulShoup(m, out, a, w, ws)
			vecMulShoupGo(m, want, a, w, ws)
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("%v mulShoup diverges at %d: %#x != %#x (q=%d n=%d)", tier, j, out[j], want[j], m.Q, n)
				}
			}

			gotHi, gotLo := append([]uint64(nil), acc...), append([]uint64(nil), b...)
			wantHi, wantLo := append([]uint64(nil), acc...), append([]uint64(nil), b...)
			tbl.mulAccWide(gotHi, gotLo, a, w)
			vecMulAccWideGo(wantHi, wantLo, a, w)
			tbl.reduceWide128Lazy(m, out, gotHi, gotLo)
			vecReduceWide128LazyGo(m, want, wantHi, wantLo)
			for j := range want {
				if gotHi[j] != wantHi[j] || gotLo[j] != wantLo[j] || out[j] != want[j] {
					t.Fatalf("%v mulAccWide/reduceWide128Lazy diverges at %d (q=%d n=%d)", tier, j, m.Q, n)
				}
			}

			same := func(kernel string, k int) {
				for j := range want {
					if out[j] != want[j] {
						t.Fatalf("%v %s diverges at %d: %#x != %#x (q=%d n=%d k=%d)", tier, kernel, j, out[j], want[j], m.Q, n, k)
					}
				}
			}

			// The exact element-wise pair and the scalar add, on full-range
			// words: the tiers agree off the residue domain too.
			tbl.add(m, out, acc, b)
			vecAddGo(m, want, acc, b)
			same("add", 1)
			tbl.sub(m, out, b, acc)
			vecSubGo(m, want, b, acc)
			same("sub", 1)
			tbl.addScalar(m, out, acc, w)
			vecAddScalarGo(m, want, acc, w)
			same("addScalar", 1)

			// The constant multiply-accumulate onto b, with a full-range
			// multiplicand.
			copy(out, b)
			copy(want, b)
			tbl.mulShoupAddLazy(m, out, acc, w, ws)
			vecMulShoupAddLazyGo(m, want, acc, w, ws)
			same("mulShoupAddLazy", 1)

			// The automorphism kernels on a block permutation from the data
			// (the row's whole blocks, or one block below eight words): the
			// MAC on the full-range accumulator pair, the permutes on
			// full-range words.
			np := n
			if np > permLanes {
				np &^= permLanes - 1
			}
			lanes := min(np, permLanes)
			p := NewBlockPerm(np, func(i int) int {
				j := i / lanes
				sh := word(j+2) % permLanes
				return int(word(j+1)%uint64(np/lanes))*lanes + int(word(int(sh))>>(8*(i%lanes))&0xff)%lanes
			})
			gotHi, gotLo = append([]uint64(nil), acc...), append([]uint64(nil), b...)
			wantHi, wantLo = append([]uint64(nil), acc...), append([]uint64(nil), b...)
			tbl.mulAccWidePerm(gotHi, gotLo, a, b, p)
			vecMulAccWidePermGo(wantHi, wantLo, a, b, p)
			for j := range wantLo {
				if gotHi[j] != wantHi[j] || gotLo[j] != wantLo[j] {
					t.Fatalf("%v mulAccWidePerm diverges at %d (q=%d n=%d)", tier, j, m.Q, n)
				}
			}
			clear(out)
			clear(want)
			tbl.permute(out, acc, p)
			vecPermuteGo(want, acc, p)
			same("permute", 1)
			tbl.addPermute(m, out, acc, b, p)
			vecAddPermuteGo(m, want, acc, b, p)
			same("addPermute", 1)

			// A dot of 1..MaxDotTerms terms (count from the selector's high
			// bits) over rotations of the operand rows, onto b or onto nothing.
			k := int(sel>>3)%MaxDotTerms + 1
			da, db := make([][]uint64, k), make([][]uint64, k)
			for i := range da {
				da[i], db[i] = make([]uint64, n), make([]uint64, n)
				for j := range da[i] {
					da[i][j] = a[(j+i)%n]
					db[i][j] = b[(j+2*i+1)%n] % m.Q
				}
			}
			copy(out, b)
			copy(want, b)
			dotOf(tbl)(m, out, da, db, sel&2 != 0)
			vecDotLazyGo(m, want, da, db, sel&2 != 0)
			same("dotLazy", k)

			// The key switch's two-output dot: B over db, A over the key
			// rows reversed, each output with its own flag.
			du := make([][]uint64, k)
			for i := range du {
				du[i] = db[k-1-i]
			}
			outA, wantA := append([]uint64(nil), acc...), append([]uint64(nil), acc...)
			for j := range outA {
				outA[j] %= m.TwoQ
				wantA[j] = outA[j]
			}
			copy(out, b)
			copy(want, b)
			tbl.dotKeyLazy(m, out, outA, da, db, du, sel&2 != 0, sel&4 != 0)
			vecDotKeyLazyGo(m, want, wantA, da, db, du, sel&2 != 0, sel&4 != 0)
			same("dotKeyLazy B", k)
			for j := range wantA {
				if outA[j] != wantA[j] {
					t.Fatalf("%v dotKeyLazy A diverges at %d (q=%d n=%d k=%d)", tier, j, m.Q, n, k)
				}
			}

			// One forward and one inverse stage at a span of 1–32 chosen by
			// the data (span s needs n >= 2s), first word pair as the twiddles.
			span := 1 << (n % 6)
			if nb := n / (2 * span); nb > 0 {
				psi, psiShoup := make([]uint64, nb), make([]uint64, nb)
				for i := range psi {
					psi[i] = b[i] % m.Q
					psiShoup[i] = m.ShoupPrecomp(psi[i])
				}
				got := append([]uint64(nil), a[:2*span*nb]...)
				want := append([]uint64(nil), got...)
				tbl.fwdStage(m, got, psi, psiShoup, span, sel&4 != 0)
				vecFwdStageGo(m, want, psi, psiShoup, span, sel&4 != 0)
				// A forward stage above span 1 leaves [0, 4q) and the inverse
				// stage reads [0, 2q): fold both copies alike, as a transform
				// does between its directions.
				for _, v := range [][]uint64{got, want} {
					for j, x := range v {
						if x >= m.TwoQ {
							v[j] = x - m.TwoQ
						}
					}
				}
				tbl.invStage(m, got, psi, psiShoup, span)
				vecInvStageGo(m, want, psi, psiShoup, span)
				tbl.invFinal(m, got[:span*nb], got[span*nb:], w, ws, psi[0], psiShoup[0], sel&8 != 0)
				vecInvFinalGo(m, want[:span*nb], want[span*nb:], w, ws, psi[0], psiShoup[0], sel&8 != 0)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v stage chain diverges at %d (q=%d span=%d blocks=%d)", tier, j, m.Q, span, nb)
					}
				}
			}
		}
	})
}

// expandFuzzModuli adds two moduli that reject one word in sixteen and in
// nine to fuzzModuli: the expander's map needs an odd q, not a prime.
var expandFuzzModuli = append(append([]Modulus{}, fuzzModuli...), MustModulus(1<<60+1), MustModulus((1<<64-1)/9+1|1))

// FuzzExpandUniform holds every assembly tier's uniform expander to the Go
// oracle on fuzzer-chosen keys, tags, tiles, moduli and lengths (a tile's
// worth and a few words past it, so the masked tail of the fused kernel and
// the step into the next tile both run), and every value below q.
func FuzzExpandUniform(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(0), uint16(1), []byte{1})
	f.Add(uint8(3), ^uint64(0), uint8(255), uint16(UniformTile+7), []byte("a key of thirty-two bytes or so"))
	f.Add(uint8(1), uint64(1)<<31, uint8(3), uint16(9), []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, tag uint64, tile uint8, n uint16, seed []byte) {
		m := expandFuzzModuli[int(sel)%len(expandFuzzModuli)]
		var key [32]byte
		copy(key[:], seed)
		k := NewStreamKey(key)
		n = n%(2*UniformTile) + 1
		want := make([]uint64, n)
		for rest, tl := want, int(tile); len(rest) > 0; tl++ {
			c := min(len(rest), UniformTile)
			expandUniformGo(m, rest[:c], k, []TileRef{Tile(tag, tl)}, c)
			rest = rest[c:]
		}
		for _, tier := range KernelTables() {
			got := make([]uint64, n)
			expandOnTier(tier, m, got, k, tag, int(tile))
			for j := range want {
				if got[j] != want[j] || got[j] >= m.Q {
					t.Fatalf("%v expandUniform diverges at %d: %d, oracle %d (q=%d n=%d tile=%d)", tier, j, got[j], want[j], m.Q, n, tile)
				}
			}
		}
	})
}
