// Package par provides the worker pool that the RNS limb-level kernels share
// through ring.Pipeline.Run, the one limb executor. Limbs of an RNS
// polynomial are independent, so spreading them across cores is always safe;
// what needs care is doing it without spawning goroutines per call and
// without deadlocking when parallel sections nest (e.g. an engine job worker
// calling into a parallel limb chain).
//
// The pool keeps long-lived workers, as many as the widest call has asked
// for, fed by an unbuffered task channel. The width is the caller's: a ring
// carries its own (GOMAXPROCS when it is built), so rings of different
// widths share the one pool side by side. Submission never blocks: if no
// worker is idle, the submitting goroutine runs the chunk inline. Under
// nesting this degrades gracefully toward serial execution instead of
// deadlocking, and an idle machine gets full fan-out.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	tasks   = make(chan func()) // unbuffered: a send succeeds only if a worker is idle
	started atomic.Int64        // workers spawned so far
)

// Workers returns the default pool width, GOMAXPROCS: the width ForEachChunk
// runs at and a new ring takes.
func Workers() int { return runtime.GOMAXPROCS(0) }

// grow spawns workers until the pool holds at least width of them.
func grow(width int) {
	for s := started.Load(); s < int64(width); s = started.Load() {
		if started.CompareAndSwap(s, s+1) {
			go func() {
				for f := range tasks {
					f()
				}
			}()
		}
	}
}

// ForEachChunk is ForEachChunkAt at the default width, Workers().
func ForEachChunk(n int, f func(lo, hi int)) { ForEachChunkAt(Workers(), n, f) }

// ForEachChunkAt partitions [0, n) into at most width contiguous ranges and
// runs f(lo, hi) for each on the shared pool, returning after every range
// completed. Contiguous ranges keep each worker's memory accesses sequential
// — the right split for limb loops over a polynomial's single backing array.
// With a width of 1 it is exactly f(0, n).
//
// A panic in any range, on a pool worker or inline, is recovered; once every
// range has finished, the first one recovered is raised again on the calling
// goroutine. So a caller's recover sees it, and no range is still writing
// when that recover runs.
func ForEachChunkAt(width, n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	width = min(width, n)
	if width <= 1 {
		f(0, n)
		return
	}
	grow(width)
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
		case tasks <- task:
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
