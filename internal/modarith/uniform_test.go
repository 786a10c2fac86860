package modarith

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// aesEncryptRef is FIPS-197 §5.1 spelled out over the package's own round
// keys and S-box: if it agrees with crypto/aes, so do expandAES256 (the
// schedule the assembly tier loads) and sbox.
func aesEncryptRef(rk *[15][16]byte, in [16]byte) (s [16]byte) {
	xtime := func(b byte) byte { return b<<1 ^ byte(int8(b)>>7)&0x1b }
	for i := range s {
		s[i] = in[i] ^ rk[0][i]
	}
	for r := 1; r <= 14; r++ {
		var t [16]byte
		for c := 0; c < 4; c++ { // SubBytes + ShiftRows: row i of column c comes from column c+i
			for i := 0; i < 4; i++ {
				t[4*c+i] = sbox[s[4*((c+i)%4)+i]]
			}
		}
		if r < 14 {
			for c := 0; c < 4; c++ { // MixColumns
				a0, a1, a2, a3 := t[4*c], t[4*c+1], t[4*c+2], t[4*c+3]
				all := a0 ^ a1 ^ a2 ^ a3
				t[4*c] ^= all ^ xtime(a0^a1)
				t[4*c+1] ^= all ^ xtime(a1^a2)
				t[4*c+2] ^= all ^ xtime(a2^a3)
				t[4*c+3] ^= all ^ xtime(a3^a0)
			}
		}
		for i := range s {
			s[i] = t[i] ^ rk[r][i]
		}
	}
	return s
}

func TestAESScheduleMatchesCryptoAES(t *testing.T) {
	if sbox[0x00] != 0x63 || sbox[0x01] != 0x7c || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("S-box disagrees with FIPS-197 Figure 7")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		var key [32]byte
		var in [16]byte
		rng.Read(key[:])
		rng.Read(in[:])
		rk := expandAES256(key)
		if [16]byte(key[:16]) != rk[0] || [16]byte(key[16:]) != rk[1] {
			t.Fatalf("round keys 0 and 1 are not the key itself")
		}
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [16]byte
		block.Encrypt(want[:], in[:])
		if got := aesEncryptRef(&rk, in); got != want {
			t.Fatalf("key %x: schedule gives %x, crypto/aes %x", key, got, want)
		}
	}
}

// expandRef is the stream as uniform.go states it, word by word: no batching,
// no tiles of the kernel's own.
func expandRef(m Modulus, n int, k *StreamKey, tag uint64, tile int) []uint64 {
	out := make([]uint64, 0, n)
	for ; len(out) < n; tile++ {
		need := min(n-len(out), UniformTile)
		for j := uint64(0); need > 0; j++ {
			var blk [16]byte
			binary.LittleEndian.PutUint64(blk[:], tag)
			binary.LittleEndian.PutUint64(blk[8:], uint64(tile)<<32|j)
			k.block.Encrypt(blk[:], blk[:])
			for w := 0; w < 2 && need > 0; w++ {
				hi, lo := bits.Mul64(binary.LittleEndian.Uint64(blk[8*w:]), m.Q)
				if lo >= -m.Q%m.Q {
					out = append(out, hi)
					need--
				}
			}
		}
	}
	return out
}

// expandTestModuli adds to the tier-test primes the extremes of rejection:
// q = 3 and 2^61 − 1, which reject almost nothing, and 2^60 + 1 and
// ⌊2^64/9⌋ + 1, which reject about one word in sixteen and in nine, so rows
// end in the one-state tail of the fused kernel. The map needs an odd q, not
// a prime.
func expandTestModuli(t testing.TB) []Modulus {
	return append(tierTestModuli(t), MustModulus(3), MustModulus(1<<61-1), MustModulus(1<<60+1), MustModulus((1<<64-1)/9+1|1))
}

func randStreamKey(rng *rand.Rand) *StreamKey {
	var seed [32]byte
	rng.Read(seed[:])
	return NewStreamKey(seed)
}

// TestExpandUniformAcrossTiers holds every tier to the word-by-word reference
// — across the modulus range, at row lengths that end inside a tile and
// inside an eight-word store, at tiles other than the first, for random tags —
// and every value below q.
func TestExpandUniformAcrossTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lens := []int{1, 7, 8, 9, 31, 32, 33, 63, 65, UniformTile - 1, UniformTile, UniformTile + 1, 1000, 4096}
	for _, m := range expandTestModuli(t) {
		for _, n := range lens {
			k := randStreamKey(rng)
			tag, tile := rng.Uint64(), rng.Intn(4)
			want := expandRef(m, n, k, tag, tile)
			for _, tier := range AvailableTiers() {
				got := make([]uint64, n)
				expandOnTier(tier, m, got, k, tag, tile)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v q=%d n=%d tile=%d: word %d = %d, want %d", tier, m.Q, n, tile, j, got[j], want[j])
					}
					if got[j] >= m.Q {
						t.Fatalf("%v q=%d: word %d = %d not below q", tier, m.Q, j, got[j])
					}
				}
			}
		}
	}
}

// TestExpandUniformTilesAcrossTiers: one call over several tile references —
// how a key switch expands a tile of every digit row — gives each run the
// words of its own tile, on every tier, for runs that end inside an
// eight-word store and runs of a whole tile, whatever the rejection rate.
func TestExpandUniformTilesAcrossTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range expandTestModuli(t) {
		for _, n := range []int{1, 5, 8, 31, 33, 100, UniformTile} {
			k := randStreamKey(rng)
			refs := make([]TileRef, 1+rng.Intn(9))
			want := make([]uint64, 0, len(refs)*n)
			for r := range refs {
				tag, tile := rng.Uint64(), rng.Intn(300)
				refs[r] = Tile(tag, tile)
				want = append(want, expandRef(m, n, k, tag, tile)...)
			}
			for _, tier := range AvailableTiers() {
				got := make([]uint64, len(want))
				tableFor(tier).expandUniform(m, got, k, refs, n)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v q=%d n=%d runs=%d: word %d = %d, want %d", tier, m.Q, n, len(refs), j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestExpandUniformTilesIndependent: expanding a row whole, tile by tile in
// reverse, or from a middle tile gives the same words.
func TestExpandUniformTilesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tierTestModuli(t)[3]
	k := randStreamKey(rng)
	const n = 8 * UniformTile
	whole := make([]uint64, n)
	m.ExpandUniform(whole, k, 5, 0)
	for tile := n/UniformTile - 1; tile >= 0; tile-- {
		part := make([]uint64, UniformTile)
		m.ExpandUniform(part, k, 5, tile)
		for j, v := range part {
			if v != whole[tile*UniformTile+j] {
				t.Fatalf("tile %d word %d differs from the whole row's", tile, j)
			}
		}
	}
	var other [n]uint64
	m.ExpandUniform(other[:], k, 6, 0)
	same := 0
	for j := range other {
		if other[j] == whole[j] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("rows 5 and 6 agree on %d of %d words", same, n)
	}
}

// TestExpandUniformAllocs: expanding a 2^16-word row allocates nothing on
// any tier — its tile references stay off the heap.
func TestExpandUniformAllocs(t *testing.T) {
	restoreTier(t)
	m := tierTestModuli(t)[2]
	k := randStreamKey(rand.New(rand.NewSource(8)))
	row := make([]uint64, 1<<16)
	for _, tier := range AvailableTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() { m.ExpandUniform(row, k, 9, 0) }); a != 0 {
			t.Errorf("%v: ExpandUniform of a 2^16-word row makes %v allocations, want 0", tier, a)
		}
	}
}

// TestExpandUniformIsUniform is a coarse distribution check: the mean of 2^16
// values sits within 6 standard errors of (q−1)/2, and each of 16 buckets
// within 6 of its expectation.
func TestExpandUniformIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range tierTestModuli(t) {
		const n = 1 << 16
		v := make([]uint64, n)
		m.ExpandUniform(v, randStreamKey(rng), 0, 0)
		var sum float64
		var buckets [16]int
		for _, x := range v {
			sum += float64(x)
			buckets[x/(m.Q/16+1)]++
		}
		q := float64(m.Q)
		if d := sum/n - (q-1)/2; d*d > 36*q*q/12/n {
			t.Errorf("q=%d: mean off by %.3g", m.Q, d)
		}
		for b, c := range buckets {
			if d := float64(c) - n/16.0; d*d > 36*n/16.0 {
				t.Errorf("q=%d: bucket %d holds %d of %d", m.Q, b, c, n)
			}
		}
	}
}

func TestKeystreamMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var seed [32]byte
	rng.Read(seed[:])
	k := NewStreamKey(seed)
	block, _ := aes.NewCipher(seed[:])
	got := make([]uint64, 9)
	k.Keystream(got, 77, 1000)
	for i := 0; i < 5; i++ {
		var blk [16]byte
		binary.LittleEndian.PutUint64(blk[:], 77)
		binary.LittleEndian.PutUint64(blk[8:], 1000+uint64(i))
		block.Encrypt(blk[:], blk[:])
		for w := 0; w < 2 && 2*i+w < len(got); w++ {
			if want := binary.LittleEndian.Uint64(blk[8*w:]); got[2*i+w] != want {
				t.Fatalf("word %d = %#x, want %#x", 2*i+w, got[2*i+w], want)
			}
		}
	}
}

// expandOnTier is ExpandUniform through tier's table.
func expandOnTier(tier KernelTier, m Modulus, dst []uint64, k *StreamKey, tag uint64, tile int) {
	for ; len(dst) > 0; tile++ {
		n := min(len(dst), UniformTile)
		tableFor(tier).expandUniform(m, dst[:n], k, []TileRef{Tile(tag, tile)}, n)
		dst = dst[n:]
	}
}

// BenchmarkExpandUniform times the expansion of the key rows one output row
// of the gadget product consumes — k digit rows of N values — at the
// benchmark's two shapes, N=2^12 with k=9 (boot_n12) and N=2^16 with k=4
// (hks_n16), one call per tile for all k rows as the key switch expands
// them, and reports the
// rate in GB/s of key bytes produced: the figure to set against
// BenchmarkGadgetDot's key read. Every row runs once per available tier.
func BenchmarkExpandUniform(b *testing.B) { forEachTier(b, benchExpandUniform) }

func benchExpandUniform(b *testing.B) {
	for _, sh := range []struct{ logN, k int }{{12, 9}, {16, 4}} {
		n := 1 << sh.logN
		ps, err := GenerateNTTPrimes(55, sh.logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := MustModulus(ps[0])
		k := randStreamKey(rand.New(rand.NewSource(int64(sh.logN))))
		scratch := make([]uint64, sh.k*UniformTile)
		refs := make([]TileRef, sh.k)
		b.Run(fmt.Sprintf("n%d-k%d", sh.logN, sh.k), func(b *testing.B) {
			b.SetBytes(int64(sh.k * n * 8))
			for i := 0; i < b.N; i++ {
				for tile := 0; tile < n/UniformTile; tile++ {
					for d := range refs {
						refs[d] = Tile(uint64(d)<<32|uint64(i), tile)
					}
					m.ExpandUniformTiles(scratch, k, refs)
				}
			}
			b.ReportMetric(float64(b.N)*float64(sh.k*n*8)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
