package modarith

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
	"sync"
)

// Uniform expansion: the library's one sampler of uniform residues. A row of
// uniform values in [0, q) is a pure function of a 32-byte seed, a 64-bit row
// tag and the modulus, so a switching key can store the seed instead of its
// uniform half and regenerate each row where the key switch consumes it.
//
// The stream is AES-256 in counter mode. Counter block j of tile t of row tag
// is the 16 bytes LE64(tag) ‖ LE64(t·2^32 + j); its encryption gives two
// little-endian 64-bit words, block after block. A word x maps to [0, q) by
// Lemire's multiply-high: x·q = hi·2^64 + lo, the value is hi, and the word
// is rejected when lo < 2^64 mod q, which leaves every residue exactly
// ⌊2^64/q⌋ preimages. A tile's UniformTile values are the first accepted
// words of its own counter space, so no tile depends on another's
// rejections: a row can be expanded tile by tile, in any order, and a kernel
// tier may generate keystream ahead and discard what a tile does not use.

// UniformTile is the number of values one counter space of ExpandUniform
// yields: the unit a key switch expands into L1-resident scratch per digit
// before its dot consumes them. The same on every kernel tier.
const UniformTile = 256

// StreamKey is an AES-256 key prepared for ExpandUniform: the FIPS-197 round
// keys the assembly tier loads and the crypto/aes block the Go tier encrypts
// with. It is immutable and safe for concurrent use.
type StreamKey struct {
	rk    [15][16]byte
	block cipher.Block
}

// NewStreamKey expands a 32-byte AES-256 key.
func NewStreamKey(seed [32]byte) *StreamKey {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	return &StreamKey{rk: expandAES256(seed), block: block}
}

// TileRef names one tile of one row of the uniform stream: its counter space
// starts at block (tag, tile·2^32).
type TileRef struct {
	tag, block uint64
}

// Tile returns the reference to tile `tile` of row tag.
func Tile(tag uint64, tile int) TileRef { return TileRef{tag, uint64(tile) << 32} }

// ExpandUniform fills dst with row tag of the uniform stream under k, mapped
// to [0, q): dst[0] is the first value of tile `tile`, and dst covers
// ⌈len(dst)/UniformTile⌉ tiles from there, the last possibly partial. Every
// kernel tier writes the same words.
func (m Modulus) ExpandUniform(dst []uint64, k *StreamKey, tag uint64, tile int) {
	expand := active.Load().expandUniform
	refs := tileRefs.Get().(*[tileBatch]TileRef)
	defer tileRefs.Put(refs)
	for len(dst) > 0 {
		// Whole tiles go up to tileBatch a call; a partial last one alone.
		cnt, n := min(len(dst)/UniformTile, tileBatch), UniformTile
		if cnt == 0 {
			cnt, n = 1, len(dst)
		}
		for r := range refs[:cnt] {
			refs[r] = Tile(tag, tile+r)
		}
		expand(m, dst[:cnt*n], k, refs[:cnt], n)
		dst, tile = dst[cnt*n:], tile+cnt
	}
}

// tileBatch is the most tile references ExpandUniform hands the kernel in one
// call: a whole row of N = 2^16.
const tileBatch = 1 << 16 / UniformTile

// tileRefs lends ExpandUniform its tile references. A slice passed through
// the kernel table's function pointer escapes, so a local array would be a
// heap allocation per call.
var tileRefs = sync.Pool{New: func() any { return new([tileBatch]TileRef) }}

// ExpandUniformTiles fills dst with len(tiles) runs of n = len(dst)/len(tiles)
// words, 1 ≤ n ≤ UniformTile, back to back: run r is the first n values of
// tiles[r]. It is how a key switch expands one tile of every digit row of a
// limb in one call.
func (m Modulus) ExpandUniformTiles(dst []uint64, k *StreamKey, tiles []TileRef) {
	n := len(dst) / len(tiles)
	if n < 1 || n > UniformTile || n*len(tiles) != len(dst) {
		panic("modarith: ExpandUniformTiles needs len(tiles) runs of 1 to UniformTile words")
	}
	active.Load().expandUniform(m, dst, k, tiles, n)
}

// Keystream fills dst with the raw words of counter space tag, starting at
// block first: word 2i and 2i+1 are block first+i, LE64(tag) ‖ LE64(first+i),
// encrypted. The callers' streams of secret bits; a row tag of ExpandUniform
// and a Keystream tag must not coincide under one key.
func (k *StreamKey) Keystream(dst []uint64, tag, first uint64) {
	buf := uniformScratch.Get().(*[uniformBlocks * 16]byte)
	defer uniformScratch.Put(buf)
	blk := buf[:16]
	for len(dst) > 0 {
		binary.LittleEndian.PutUint64(blk, tag)
		binary.LittleEndian.PutUint64(blk[8:], first)
		k.block.Encrypt(blk, blk)
		dst[0] = binary.LittleEndian.Uint64(blk)
		if len(dst) > 1 {
			dst[1] = binary.LittleEndian.Uint64(blk[8:])
		}
		dst = dst[min(2, len(dst)):]
		first++
	}
}

// uniformBlocks is the keystream the Go kernel encrypts per batch.
const uniformBlocks = 16

var uniformScratch = sync.Pool{New: func() any { return new([uniformBlocks * 16]byte) }}

// expandUniformGo is the oracle of the expander: crypto/aes on each counter
// block, bits.Mul64 for the map. dst holds len(tiles) runs of n words.
func expandUniformGo(m Modulus, dst []uint64, k *StreamKey, tiles []TileRef, n int) {
	buf := uniformScratch.Get().(*[uniformBlocks * 16]byte)
	defer uniformScratch.Put(buf)
	for r, t := range tiles {
		run, ctr := dst[r*n:][:n], t.block
		for got := 0; got < n; {
			for b := 0; b < uniformBlocks; b++ {
				blk := buf[16*b : 16*b+16]
				binary.LittleEndian.PutUint64(blk, t.tag)
				binary.LittleEndian.PutUint64(blk[8:], ctr)
				k.block.Encrypt(blk, blk)
				ctr++
			}
			for w := 0; w < 2*uniformBlocks && got < n; w++ {
				hi, lo := bits.Mul64(binary.LittleEndian.Uint64(buf[8*w:]), m.Q)
				if lo >= m.rejectBelow {
					run[got] = hi
					got++
				}
			}
		}
	}
}

// sbox is the AES S-box, derived from its definition (FIPS-197 §5.1.1): the
// multiplicative inverse in GF(2^8) followed by the affine map.
var sbox = func() (s [256]byte) {
	var p, q byte = 1, 1
	for {
		// p runs over the multiplicative group by ×3, q over it by ×3⁻¹,
		// so q = p⁻¹ throughout.
		p ^= p<<1 ^ byte(int8(p)>>7)&0x1b
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		q ^= byte(int8(q)>>7) & 0x09
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^ bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}()

// expandAES256 is the FIPS-197 §5.2 key expansion for Nk = 8, Nr = 14: the
// fifteen round keys in state byte order, the layout AESENC reads.
func expandAES256(key [32]byte) (rk [15][16]byte) {
	var w [60]uint32
	for i := 0; i < 8; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	subWord := func(x uint32) uint32 {
		return uint32(sbox[x>>24])<<24 | uint32(sbox[x>>16&0xff])<<16 | uint32(sbox[x>>8&0xff])<<8 | uint32(sbox[x&0xff])
	}
	rcon := uint32(1)
	for i := 8; i < 60; i++ {
		t := w[i-1]
		switch i % 8 {
		case 0:
			t = subWord(bits.RotateLeft32(t, 8)) ^ rcon<<24
			rcon <<= 1
		case 4:
			t = subWord(t)
		}
		w[i] = w[i-8] ^ t
	}
	for i, x := range w {
		binary.BigEndian.PutUint32(rk[i/4][4*(i%4):], x)
	}
	return rk
}
