package rns

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkConvertRow times one target row of a base conversion, ConvertRow
// over α premultiplied source rows, and reports ns per multiply-accumulate
// (ns/MAC = ns per row / (α·N)). Shapes: α ∈ {3, 7} (boot_n12's and
// hks_n16's digit widths) at logN 12 and 16, in two forms — narrow (45-bit
// sources to a 50-bit target, every term on the two-multiply-add path of
// the IFMA kernel) and wide (60-bit sources, boot_n12's P, seven). Each
// iteration converts the next of eight target rows, so the outputs are as
// cold as a limb pipeline finds them. Every row runs once per kernel table:
// go, avx512 and, on an IFMA host, avx512-noifma, the table an AVX-512 host
// without IFMA runs.
func BenchmarkConvertRow(b *testing.B) {
	const nTo = 8
	forEachTable(b, func(table string) {
		b.Run(table, func(b *testing.B) {
			for _, form := range []struct {
				name             string
				fromBits, toBits int
			}{{"narrow", 45, 50}, {"wide", 60, 45}} {
				for _, logN := range []int{12, 16} {
					for _, alpha := range []int{3, 7} {
						n := 1 << logN
						bc, err := NewBasisConverter(mustModuli(b, form.fromBits, logN, alpha), mustModuli(b, form.toBits, logN, nTo))
						if err != nil {
							b.Fatal(err)
						}
						r := rand.New(rand.NewSource(int64(logN * alpha)))
						pre := newRows(alpha, n)
						for i, qi := range bc.From {
							for c := range pre[i] {
								pre[i][c] = r.Uint64() % qi.Q
							}
						}
						out, hi := newRows(nTo, n), make([]uint64, RowTile)
						name := fmt.Sprintf("%s/n%d-a%d", form.name, logN, alpha)
						b.Run(name, func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								j := i % nTo
								bc.ConvertRow(out[j], pre, j, true, hi)
							}
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*alpha*n), "ns/MAC")
						})
					}
				}
			}
		})
	})
}
