//go:build noasm || (!amd64 && !arm64)

package modarith

// asmKernelTables reports no assembly tiers: under the `noasm` build tag or
// on architectures without assembly kernels, TierGo is the only entry in the
// dispatch table and the vec_go.go / wide_go.go kernels run everywhere.
func asmKernelTables() map[KernelTier]kernelTable { return nil }
