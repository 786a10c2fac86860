package par

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachChunkCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		var sum atomic.Int64
		var calls atomic.Int64
		seen := make([]atomic.Bool, n)
		ForEachChunk(n, func(lo, hi int) {
			calls.Add(1)
			if lo >= hi && n > 0 {
				t.Errorf("n=%d: empty chunk [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if seen[i].Swap(true) {
					t.Errorf("n=%d: index %d visited twice", n, i)
				}
				sum.Add(int64(i))
			}
		})
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if sum.Load() != want {
			t.Fatalf("n=%d: sum=%d want %d", n, sum.Load(), want)
		}
		if w := int64(Workers()); n > 0 && calls.Load() > w {
			t.Fatalf("n=%d: %d chunks for pool width %d", n, calls.Load(), w)
		}
	}
}

func TestForEachChunkContiguous(t *testing.T) {
	// Every chunk must be a contiguous range; collectively they tile [0, n).
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var mu sync.Mutex
	var ranges [][2]int
	ForEachChunk(41, func(lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	next := 0
	for _, r := range ranges {
		if r[0] != next {
			t.Fatalf("gap or overlap at %d: ranges %v", next, ranges)
		}
		next = r[1]
	}
	if next != 41 {
		t.Fatalf("ranges end at %d, want 41: %v", next, ranges)
	}
}

func TestForEachChunkNested(t *testing.T) {
	var count atomic.Int64
	ForEachChunk(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForEachChunk(16, func(lo2, hi2 int) {
				count.Add(int64(hi2 - lo2))
			})
		}
	})
	if count.Load() != 8*16 {
		t.Fatalf("nested count=%d want %d", count.Load(), 8*16)
	}
}

func TestSetWorkersSerial(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var calls [][2]int // no lock needed: width 1 means serial execution
	ForEachChunk(5, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	if len(calls) != 1 || calls[0] != [2]int{0, 5} {
		t.Fatalf("width 1 ran %v, want the one range [0, 5)", calls)
	}
}
