package rns

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/modarith"
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
// without IFMA runs. The -g1 … -g4 rows convert g targets a call through
// ConvertRows, one pass over the sources per group, in ns per MAC of the
// g rows. At logN 16 the -cold and -g4-cold rows run the row and the group
// of four on the next of enough source sets to fill coldSourceBytes, twice
// the 32 MiB LLC, so every pass reads its sources from DRAM, as a key
// switch's ModUp and ModDown do; the other rows reuse one set, which stays
// in cache.
func BenchmarkConvertRow(b *testing.B) {
	const nTo = 8
	for _, k := range modarith.KernelTables() {
		b.Run(k.String(), func(b *testing.B) {
			for _, form := range []struct {
				name             string
				fromBits, toBits int
			}{{"narrow", 45, 50}, {"wide", 60, 45}} {
				for _, logN := range []int{12, 16} {
					for _, alpha := range []int{3, 7} {
						n := 1 << logN
						bc, err := NewBasisConverter(onTable(b, mustModuli(b, form.fromBits, logN, alpha), k), onTable(b, mustModuli(b, form.toBits, logN, nTo), k))
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
						for g := 1; g <= modarith.ConvertGroup; g++ {
							js, outs := make([]int, g), make([][]uint64, g)
							b.Run(fmt.Sprintf("%s-g%d", name, g), func(b *testing.B) {
								for i := 0; i < b.N; i++ {
									for t := range js {
										js[t] = (i*g + t) % nTo
										outs[t] = out[js[t]]
									}
									bc.ConvertRows(outs, pre, js, true, hi)
								}
								b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g*alpha*n), "ns/MAC")
							})
						}
						if logN == 16 {
							benchConvertCold(b, bc, name, out, hi)
						}
					}
				}
			}
		})
	}
}

// coldSourceBytes is how many bytes of source rows the -cold rows of
// BenchmarkConvertRow rotate through.
const coldSourceBytes = 64 << 20

// benchConvertCold runs the -cold row (one target a call) and the -g4-cold
// row (ConvertGroup targets a call) of BenchmarkConvertRow over fresh source
// sets of bc's shape.
func benchConvertCold(b *testing.B, bc *BasisConverter, name string, out [][]uint64, hi []uint64) {
	alpha, n := len(bc.From), len(out[0])
	sets := make([][][]uint64, (coldSourceBytes+alpha*n*8-1)/(alpha*n*8))
	r := rand.New(rand.NewSource(int64(alpha * n)))
	for s := range sets {
		sets[s] = newRows(alpha, n)
		for i, qi := range bc.From {
			for c := range sets[s][i] {
				sets[s][i][c] = r.Uint64() % qi.Q
			}
		}
	}
	b.Run(name+"-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(out)
			bc.ConvertRow(out[j], sets[i%len(sets)], j, true, hi)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*alpha*n), "ns/MAC")
	})
	g := modarith.ConvertGroup
	js, outs := make([]int, g), make([][]uint64, g)
	b.Run(fmt.Sprintf("%s-g%d-cold", name, g), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := range js {
				js[t] = (i*g + t) % len(out)
				outs[t] = out[js[t]]
			}
			bc.ConvertRows(outs, sets[i%len(sets)], js, true, hi)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g*alpha*n), "ns/MAC")
	})
}
