package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// holdWorkers parks every pool worker on a task of its own until the
// returned function is called, so that ForEachChunk meanwhile runs every
// range inline.
func holdWorkers() (release func()) {
	ch, _ := ensure()
	mu.Lock()
	n := started
	mu.Unlock()
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		ch <- func() { <-stop } // an unbuffered send: taken by a worker
	}
	return func() { close(stop) }
}

// onCaller reports whether the range calling it runs inline, on
// ForEachChunk's own goroutine, rather than on a pool worker.
func onCaller() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if f.Function == "github.com/anaheim-sim/anaheim/internal/par.ForEachChunk" {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestForEachChunkRaisesPanicOnCaller: at width 2, a range that panics on a
// pool worker or inline reaches the caller's recover, only after the other
// range finished, and the pool keeps working afterwards. Without the
// re-raise a worker's panic ends the process, and an inline one returns
// while the other range may still run.
func TestForEachChunkRaisesPanicOnCaller(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	// run has range 0 panic and range 1 finish late, and reports whether
	// range 0 ran inline.
	run := func(name string) (inline bool) {
		var finished atomic.Bool
		got := func() (r any) {
			defer func() { r = recover() }()
			ForEachChunk(2, func(lo, hi int) {
				if lo == 0 {
					inline = onCaller()
					panic("range 0")
				}
				time.Sleep(20 * time.Millisecond)
				finished.Store(true)
			})
			return nil
		}()
		if got != "range 0" {
			t.Errorf("%s: caller recovered %v, want the range's panic", name, got)
		}
		if !finished.Load() {
			t.Errorf("%s: the panic reached the caller before the other range finished", name)
		}
		return inline
	}
	for i := 0; run("pool idle"); i++ {
		if i == 100 {
			t.Fatal("range 0 never ran on a pool worker")
		}
		time.Sleep(time.Millisecond) // let the workers reach the task channel
	}
	release := holdWorkers()
	if !run("pool held") {
		t.Error("range 0 ran on a pool worker held by another task")
	}
	release()

	var sum atomic.Int64
	ForEachChunk(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if sum.Load() != 4950 {
		t.Fatalf("after the panics the pool summed %d, want 4950", sum.Load())
	}
}
