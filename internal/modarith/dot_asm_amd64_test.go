//go:build !noasm

package modarith

// dotOf returns a table's one-output dot kernel, which a key switch without
// IFMA runs twice: the AVX-512 one on both AVX-512 tables.
func dotOf(t *kernelTable) func(m Modulus, out []uint64, a, b [][]uint64, accumulate bool) {
	if t.tier == TierAVX512 {
		return dotLazyAVX512
	}
	return vecDotLazyGo
}
