package ckks

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// keyWire is a key's wire bytes: its seed and its B rows.
func keyWire(t *testing.T, k *SwitchingKey) []byte {
	t.Helper()
	b, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGaloisKeysIndependentOfOrder: a Galois key's bytes depend on the master
// seed, its element and its level only. Generating the set in reverse order,
// with one rotation more, or with one fewer leaves every other key
// byte-identical.
func TestGaloisKeysIndependentOfOrder(t *testing.T) {
	p, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	rots := []int{1, 2, 5, -3, 17}
	gen := func(rs []int) map[uint64][]byte {
		kg := NewKeyGenerator(p, 9)
		sk := kg.GenSecretKey()
		ks := NewEvaluationKeySet()
		kg.GenRotationKeys(sk, ks, rs)
		out := map[uint64][]byte{}
		for g, k := range ks.Gal {
			out[g] = keyWire(t, k)
		}
		return out
	}
	ref := gen(rots)
	reversed := append([]int{}, rots...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	for name, rs := range map[string][]int{
		"reversed":    reversed,
		"one more":    append([]int{7}, rots...),
		"one fewer":   rots[1:],
		"interleaved": {5, 1, 7, -3, 2, 17},
	} {
		got := gen(rs)
		for g, b := range got {
			if want, ok := ref[g]; ok && !bytes.Equal(b, want) {
				t.Errorf("%s: the key for element %d changed", name, g)
			}
		}
	}
}

// TestFreshKeysDiffer: every GenSecretKey call draws a new secret, and every
// GenKeySwitchKey call a key under a new public seed.
func TestFreshKeysDiffer(t *testing.T) {
	p, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(p, 9)
	s1, s2, s3 := kg.GenSecretKey(), kg.GenSecretKey(), kg.GenSparseSecretKey()
	if s1.Q.Equal(s2.Q) || s1.Q.Equal(s3.Q) {
		t.Fatal("two secret-key calls drew the same secret")
	}
	k12, k21 := kg.GenKeySwitchKey(s1, s2), kg.GenKeySwitchKey(s2, s1)
	if k12.Seed == k21.Seed {
		t.Fatal("two key-switch keys share a public seed")
	}
	if again := kg.GenKeySwitchKey(s1, s2); again.Seed == k12.Seed {
		t.Fatal("a second key-switch key for the same pair reused the seed")
	}
}

// TestPublicSeedsIgnoreSecretDomain: the public seeds hang off their own
// derivation domain. A generator whose secret domain alone differs draws
// other secrets and other B halves under the very same seeds.
func TestPublicSeedsIgnoreSecretDomain(t *testing.T) {
	p, err := NewParameters(TestParameters())
	if err != nil {
		t.Fatal(err)
	}
	gen := func(secretDomain string) (*SecretKey, *EvaluationKeySet, *PublicKey) {
		kg := NewKeyGenerator(p, 9)
		kg.secretDomain = secretDomain
		sk := kg.GenSecretKey()
		ks := NewEvaluationKeySet()
		ks.Rlk = kg.GenRelinearizationKey(sk)
		kg.GenRotationKeys(sk, ks, []int{1, 3})
		return sk, ks, kg.GenPublicKey(sk)
	}
	sk0, ks0, pk0 := gen(domainSecret)
	sk1, ks1, pk1 := gen("another secret domain")
	if sk0.Q.Equal(sk1.Q) {
		t.Fatal("the secret did not move with the secret domain")
	}
	if !pk0.A.Equal(pk1.A) || pk0.B.Equal(pk1.B) {
		t.Error("public key: want the same A and another B")
	}
	pairs := map[string][2]*SwitchingKey{"relinearization": {ks0.Rlk, ks1.Rlk}}
	for g, k := range ks0.Gal {
		pairs[fmt.Sprint("Galois ", g)] = [2]*SwitchingKey{k, ks1.Gal[g]}
	}
	for name, k := range pairs {
		if k[0].Seed != k[1].Seed {
			t.Errorf("%s key: the public seed moved with the secret domain", name)
		}
		if k[0].BQ[0].Equal(k[1].BQ[0]) {
			t.Errorf("%s key: B did not move with the secret", name)
		}
	}
}

// TestExpandUniformPresetModuli holds every kernel tier's expander to a
// word-by-word crypto/aes + bits.Mul64 reference for every modulus of the
// hks_n16 chain, BootTestParameters and TestParameters, at every ring degree
// from 2^10 to 2^16 and a random tag each, and every value below its modulus.
// Under the noasm tag the Go tier alone is held to the reference.
func TestExpandUniformPresetModuli(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 2^17 words per modulus")
	}
	rng := rand.New(rand.NewSource(35))
	var seed [32]byte
	rng.Read(seed[:])
	key := modarith.NewStreamKey(seed)
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	ref := func(q uint64, n int, tag uint64) []uint64 {
		out := make([]uint64, 0, n)
		for tile := uint64(0); len(out) < n; tile++ {
			end := len(out) + min(n-len(out), modarith.UniformTile)
			for j := uint64(0); len(out) < end; j++ {
				var blk [16]byte
				binary.LittleEndian.PutUint64(blk[:], tag)
				binary.LittleEndian.PutUint64(blk[8:], tile<<32|j)
				block.Encrypt(blk[:], blk[:])
				for w := 0; w < 2 && len(out) < end; w++ {
					hi, lo := bits.Mul64(binary.LittleEndian.Uint64(blk[8*w:]), q)
					if lo >= -q%q {
						out = append(out, hi)
					}
				}
			}
		}
		return out
	}
	for name, lit := range map[string]ParametersLiteral{
		"hks_n16": hksShapeParams(), "boot": BootTestParameters(), "test": TestParameters(),
	} {
		lit.LogN = 16
		p, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		moduli := append(append([]modarith.Modulus{}, p.RingQ().Moduli...), p.RingP().Moduli...)
		for _, m := range moduli {
			for logN := 10; logN <= 16; logN++ {
				tag := rng.Uint64()
				want := ref(m.Q, 1<<logN, tag)
				for _, tier := range modarith.AvailableTiers() {
					got := make([]uint64, 1<<logN)
					withKernelTier(t, tier, func() { m.ExpandUniform(got, key, tag, 0) })
					for j, v := range got {
						if v != want[j] || v >= m.Q {
							t.Fatalf("%s q=%d N=2^%d %v: word %d = %d, want %d", name, m.Q, logN, tier, j, v, want[j])
						}
					}
				}
			}
		}
	}
}

// withKernelTier runs fn with every row kernel on tier.
func withKernelTier(t *testing.T, tier modarith.KernelTier, fn func()) {
	t.Helper()
	prev := modarith.ActiveTier()
	if err := modarith.SetKernelTier(tier); err != nil {
		t.Fatal(err)
	}
	defer modarith.SetKernelTier(prev)
	fn()
}

// TestSeededKeyBytes: a key pins its B rows and its seed, half what it pinned
// with A stored. Every key of the logN 11 bootstrap key set — the evaluation
// keys and both encapsulation keys — is D·(ℓ+1+α)·N·8 + 32 bytes, within
// 32 B of half its former 2·D·(ℓ+1+α)·N·8, and the set is half of what its
// evaluation keys take with A stored — Σ 2·D·(ℓ+1+α)·N·8 over them,
// 94 633 984 bytes at α = 6 on the 24-limb chain — plus 32 per key, plus the
// encapsulation pair its bootstrap section carries.
func TestSeededKeyBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bootstrap key set")
	}
	tc := buildTestContext(t, BootTestParameters(), false)
	p := tc.params
	boot, err := tc.bootstrapper(DefaultBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*SwitchingKey{"relinearization": tc.keys.Rlk, "toSparse": boot.toSparse, "toDense": boot.toDense}
	for g, k := range tc.keys.Gal {
		keys[fmt.Sprint("Galois ", g)] = k
	}
	var before int64 // the evaluation keys with A stored
	for name, k := range keys {
		lvl := k.Level()
		rows := int64(p.Digits(lvl)) * int64(lvl+1+p.Alpha()) * int64(p.N()) * 8
		if k != boot.toSparse && k != boot.toDense {
			before += 2 * rows
		}
		got := k.CoeffBytes()
		if got != rows+32 {
			t.Errorf("%s key at level %d: %d bytes, want D·(ℓ+1+α)·N·8 + 32 = %d", name, lvl, got, rows+32)
		}
		if d := got - rows; d < -32 || d > 32 {
			t.Errorf("%s key: %d bytes, %d from half the stored-A key's %d", name, got, d, 2*rows)
		}
	}
	if before != 94633984 {
		t.Errorf("26 Galois keys and the relinearization key take %d bytes with A stored, want 94 633 984", before)
	}
	n := int64(len(tc.keys.Gal) + 1)
	pair := boot.toSparse.CoeffBytes() + boot.toDense.CoeffBytes()
	if got, want := tc.keys.CoeffBytes(), before/2+32*n+pair; got != want {
		t.Errorf("key set %d bytes, want half of %d plus 32 per key plus the encapsulation pair's %d = %d", got, before, pair, want)
	}
	t.Logf("key set %.1f MB in %d keys and the encapsulation pair (%.1f MB with A stored, without the pair); toDense %.2f MB, toSparse %.3f MB",
		float64(tc.keys.CoeffBytes())/1e6, n, float64(before)/1e6, float64(boot.toDense.CoeffBytes())/1e6, float64(boot.toSparse.CoeffBytes())/1e6)
}
