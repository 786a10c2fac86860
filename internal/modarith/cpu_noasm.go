//go:build noasm || !amd64

package modarith

// asmKernelTable reports no assembly table: under the `noasm` build tag or
// off amd64 the Go table is the only one, and the vec_go.go / wide_go.go
// kernels run everywhere.
func asmKernelTable() *kernelTable { return nil }
