//go:build noasm || !amd64

package modarith

// dotOf returns a table's one-output dot kernel: without assembly, the Go one.
func dotOf(*kernelTable) func(m Modulus, out []uint64, a, b [][]uint64, accumulate bool) {
	return vecDotLazyGo
}
