// Package par provides the process-wide worker pool that the RNS limb-level
// kernels share through ring.Pipeline.Run, the one limb executor. Limbs of an
// RNS polynomial are independent, so spreading them across cores is always
// safe; what needs care is doing it without spawning goroutines per call and
// without deadlocking when parallel sections nest (e.g. an engine job worker
// calling into a parallel limb chain).
//
// The pool keeps a fixed set of long-lived workers fed by an unbuffered task
// channel. Submission never blocks: if no worker is idle, the submitting
// goroutine runs the chunk inline. Under nesting this degrades gracefully
// toward serial execution instead of deadlocking, and an idle machine gets
// full fan-out.
package par

import (
	"runtime"
	"sync"
)

var (
	mu      sync.Mutex
	size    int         // configured width; 0 = GOMAXPROCS at first use
	tasks   chan func() // unbuffered: a send succeeds only if a worker is idle
	started int         // workers spawned so far
)

// Workers returns the configured pool width.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	if size == 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return size
}

// SetWorkers fixes the pool width and returns the previous value. n <= 1
// forces serial execution. It is a test hook with no production caller (CI's
// lint job enforces that), exported only because the width-sweep tests of
// ckks, ntt and ring live in other packages; a process sets its width with
// GOMAXPROCS. Already-running workers beyond the new width drain naturally
// (they only matter if a task is submitted to them).
func SetWorkers(n int) int {
	mu.Lock()
	defer mu.Unlock()
	prev := size
	if prev == 0 {
		prev = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	size = n
	return prev
}

// ensure spawns workers up to the configured width and returns the task
// channel along with the effective width.
func ensure() (chan func(), int) {
	mu.Lock()
	defer mu.Unlock()
	if size == 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if tasks == nil {
		tasks = make(chan func())
	}
	for ; started < size; started++ {
		go func(ch chan func()) {
			for f := range ch {
				f()
			}
		}(tasks)
	}
	return tasks, size
}

// ForEachChunk partitions [0, n) into at most pool-width contiguous ranges
// and runs f(lo, hi) for each on the shared pool, returning after every
// range completed. Contiguous ranges keep each worker's memory accesses
// sequential — the right split for limb loops over a polynomial's single
// backing array. With a pool width of 1 it is exactly f(0, n).
//
// A panic in any range, on a pool worker or inline, is recovered; once every
// range has finished, the first one recovered is raised again on the calling
// goroutine. So a caller's recover sees it, and no range is still writing
// when that recover runs.
func ForEachChunk(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	ch, width := ensure()
	if width > n {
		width = n
	}
	if width <= 1 {
		f(0, n)
		return
	}
	var run struct { // one allocation for what the ranges share
		wg       sync.WaitGroup
		once     sync.Once
		panicked any
	}
	run.wg.Add(width)
	chunk, rem := n/width, n%width
	lo := 0
	for w := 0; w < width; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		lo0, hi0 := lo, hi
		task := func() {
			defer run.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					run.once.Do(func() { run.panicked = r })
				}
			}()
			f(lo0, hi0)
		}
		select {
		case ch <- task:
		default:
			task() // no idle worker: run inline (nesting-safe)
		}
		lo = hi
	}
	run.wg.Wait()
	if run.panicked != nil {
		panic(run.panicked)
	}
}
