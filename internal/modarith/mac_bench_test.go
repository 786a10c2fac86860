package modarith

import (
	"math/rand"
	"testing"
)

// Array-shaped MAC benchmarks mirroring the ring kernels' access pattern, so
// the Div64-vs-Barrett comparison reflects throughput (pipelined, cache-hot)
// rather than dependent-chain latency.

func macBenchData(q uint64) (m Modulus, a, b, out []uint64) {
	m = MustModulus(q)
	n := 1 << 13
	a = make([]uint64, n)
	b = make([]uint64, n)
	out = make([]uint64, n)
	r := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = r.Uint64() % q
		b[i] = r.Uint64() % q
		out[i] = r.Uint64() % q
	}
	return
}

func BenchmarkMACDiv64(b *testing.B) {
	m, x, y, out := macBenchData(0x1fffffffffe00001)
	b.SetBytes(int64(len(x) * 8))
	for i := 0; i < b.N; i++ {
		for j := range out {
			out[j] = m.Add(out[j], m.Mul(x[j], y[j]))
		}
	}
}

func BenchmarkMACBarrettLazy(b *testing.B) {
	m, x, y, out := macBenchData(0x1fffffffffe00001)
	b.SetBytes(int64(len(x) * 8))
	for i := 0; i < b.N; i++ {
		for j := range out {
			out[j] = addLazy(m, out[j], m.MulBarrettLazy(x[j], y[j]))
		}
	}
}
