package ntt

import (
	"encoding/binary"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
)

// fuzzTables are fixed per-logN tables so the fuzzer spends its budget on
// coefficient patterns, not prime generation: fuzzTables[0] on 55-bit primes,
// fuzzTables[1] on 45-bit ones, whose butterflies run on the IFMA kernels
// where the host has them.
var fuzzTables = func() [2][]*Tables {
	var tables [2][]*Tables
	for i, bits := range []int{55, 45} {
		tables[i] = make([]*Tables, 7) // logN 1..6
		for logN := 1; logN <= 6; logN++ {
			primes, err := modarith.GenerateNTTPrimes(bits, logN, 1)
			if err != nil {
				panic(err)
			}
			tbl, err := NewTables(modarith.MustModulus(primes[0]), logN)
			if err != nil {
				panic(err)
			}
			tables[i][logN] = tbl
		}
	}
	return tables
}()

// FuzzNTTRoundTrip feeds arbitrary coefficient vectors (including lazy-domain
// values in [0, 2q)) through every transform variant and cross-checks them:
// exact and lazy round trips must reproduce the input, lazy outputs must stay
// below 2q and agree with the exact outputs modulo q, and the element-wise
// product must match the big.Int schoolbook convolution.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(6), []byte{})
	// logN 4 and 5 (the byte maps to logN = b%6 + 1): the smallest sizes
	// whose span-1/2/4 stages take the vector tail kernels.
	f.Add(uint8(3), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(4), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(4), []byte{})
	// The same two sizes on the 45-bit tables (the byte picks them when
	// b/6 is odd).
	f.Add(uint8(9), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(10), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, logNByte uint8, data []byte) {
		logN := int(logNByte)%6 + 1
		tbl := fuzzTables[int(logNByte)/6%2][logN]
		q := tbl.Mod.Q
		a := make([]uint64, tbl.N)
		b := make([]uint64, tbl.N)
		for i := range a {
			var buf [8]byte
			if (i+1)*8 <= len(data) {
				copy(buf[:], data[i*8:])
			}
			a[i] = binary.LittleEndian.Uint64(buf[:]) % (2 * q) // lazy domain
			b[i] = (a[i]*2654435761 + uint64(i)) % q
		}

		exact := append([]uint64(nil), a...)
		tbl.Forward(exact)
		lazy := append([]uint64(nil), a...)
		tbl.ForwardLazy(lazy)
		for i := range exact {
			if exact[i] >= q {
				t.Fatalf("Forward output %d at %d not < q", exact[i], i)
			}
			if lazy[i] >= 2*q {
				t.Fatalf("ForwardLazy output %d at %d not < 2q", lazy[i], i)
			}
			if tbl.Mod.ReduceTwoQ(lazy[i]) != exact[i] {
				t.Fatalf("lazy/exact forward mismatch at %d: %d !≡ %d", i, lazy[i], exact[i])
			}
		}
		tbl.Inverse(exact)
		tbl.inverseLazy(lazy)
		for i := range exact {
			want := tbl.Mod.ReduceTwoQ(a[i])
			if exact[i] != want {
				t.Fatalf("exact round trip differs at %d: %d != %d", i, exact[i], want)
			}
			if tbl.Mod.ReduceTwoQ(lazy[i]) != want {
				t.Fatalf("lazy round trip differs at %d: %d !≡ %d", i, lazy[i], want)
			}
		}

		ra := make([]uint64, tbl.N)
		for i := range ra {
			ra[i] = tbl.Mod.ReduceTwoQ(a[i])
		}
		want := bigIntNegacyclic(ra, b, q)
		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		tbl.ForwardLazy(fa)
		tbl.Forward(fb)
		c := make([]uint64, tbl.N)
		tbl.Mod.VecMulBarrett(c, fa, fb)
		tbl.Inverse(c)
		for i := range c {
			if c[i] != want[i] {
				t.Fatalf("convolution differs at %d: got %d want %d", i, c[i], want[i])
			}
		}
	})
}
