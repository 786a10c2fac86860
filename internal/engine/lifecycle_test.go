package engine

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Value lifecycle and terminal-job retention: what a job holds while it runs,
// what it keeps once it is done, and when the engine lets go of it.

// chainOps builds a linear chain of n ops of one kind over input "x":
// c0(x) -> c1(c0) -> ... The last id is returned with the ops.
func chainOps(n int, kind string, k int) ([]OpSpec, string) {
	ops := make([]OpSpec, n)
	prev := "x"
	for i := range ops {
		id := fmt.Sprintf("c%d", i)
		ops[i] = OpSpec{ID: id, Op: kind, Args: []string{prev}, K: k, Val: 0.5}
		prev = id
	}
	return ops, prev
}

// liveNames returns the names a job currently holds, sorted.
func liveNames(j *Job) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	names := make([]string, 0, len(j.values))
	for n := range j.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func peakLive(j *Job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.peakLive
}

// fakeClock replaces an engine's clock; advancing it is the only thing that
// ages retained jobs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func installFakeClock(e *Engine) *fakeClock {
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	e.mu.Lock()
	e.now = func() time.Time {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.t
	}
	e.mu.Unlock()
	return c
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (e *Engine) tableSizes() (jobs, retained int, bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.jobs), e.retained.Len(), e.retainedBytes
}

// finished submits a job and waits for it to end without error.
func finished(t testing.TB, e *Engine, spec JobSpec) *Job {
	t.Helper()
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return job
}

// TestValuesFreedAtLastUse pins the in-flight half of the lifecycle: a value
// leaves the job at its last use — not before (a later op would fail to
// resolve it) and not after (the widest live set would grow).
func TestValuesFreedAtLastUse(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	// One worker: the ops run one at a time in DAG order, so the widest live
	// set is a property of the DAG, not of the schedule. No DAG here has a
	// foldable add ladder or linear combination (checked at the end), so the
	// jobs run exactly the ops they were submitted with.
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{0.5, -0.25, 0.125}
	ct := client.encrypt(t, x)
	released := func() float64 { return reg.Snapshot().Counters["engine_values_released_total"] }

	t.Run("chain", func(t *testing.T) {
		ops, last := chainOps(40, "addconst", 0)
		before := released()
		inputs := map[string]*ckks.Ciphertext{"x": ct, "unused": ct}
		job := finished(t, e, JobSpec{SessionID: sess.ID, Inputs: inputs, Ops: ops, Outputs: []string{last}})
		if p := peakLive(job); p > 3 {
			t.Errorf("40-op chain: widest live set %d, want <= 3", p)
		}
		if got := liveNames(job); got != last {
			t.Errorf("done job holds %q, want only its output %q", got, last)
		}
		// x and the 39 intermediates; the never-read input was never held.
		if got := released() - before; got != 40 {
			t.Errorf("released %v values, want 40", got)
		}
		if len(inputs) != 2 || inputs["x"] != ct {
			t.Errorf("caller's input map was modified: %v", inputs)
		}
		out, err := job.Results()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(x))
		for i := range x {
			want[i] = x[i] + 40*0.5
		}
		checkSlots(t, client.decrypt(out[last]), want, len(x), 1e-4, "chain")
		t.Logf("40-op chain: widest live set %d, released %v", peakLive(job), released()-before)
	})

	t.Run("diamond", func(t *testing.T) {
		// x -> a; a -> b, a -> c; b, c -> d. With a held until c has run the
		// live set peaks at {a,b,c}; freed one op too late it would reach
		// {a,b,c,d}, one op too early c could not resolve it.
		job := finished(t, e, JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops: []OpSpec{
				{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 1},
				{ID: "b", Op: "addconst", Args: []string{"a"}, Val: 2},
				{ID: "c", Op: "addconst", Args: []string{"a"}, Val: 3},
				{ID: "d", Op: "add", Args: []string{"b", "c"}},
			},
			Outputs: []string{"d"},
		})
		if p := peakLive(job); p != 3 {
			t.Errorf("diamond: widest live set %d, want 3", p)
		}
		if got := liveNames(job); got != "d" {
			t.Errorf("done job holds %q, want d", got)
		}
		out, _ := job.Results()
		want := make([]complex128, len(x))
		for i := range x {
			want[i] = 2*x[i] + 7
		}
		checkSlots(t, client.decrypt(out["d"]), want, len(x), 1e-4, "diamond")
	})

	t.Run("input used twice", func(t *testing.T) {
		// x feeds a and, later, b (twice over: as both arguments' ancestor
		// and directly). It must outlive a.
		job := finished(t, e, JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops: []OpSpec{
				{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 1},
				{ID: "b", Op: "add", Args: []string{"a", "x"}},
				{ID: "c", Op: "add", Args: []string{"b", "b"}},
			},
			Outputs: []string{"c"},
		})
		if p := peakLive(job); p != 3 { // {x,a,b} as b finishes
			t.Errorf("widest live set %d, want 3", p)
		}
		out, _ := job.Results()
		want := make([]complex128, len(x))
		for i := range x {
			want[i] = 2 * (2*x[i] + 1)
		}
		checkSlots(t, client.decrypt(out["c"]), want, len(x), 1e-4, "input used twice")
	})

	t.Run("output that is also an intermediate", func(t *testing.T) {
		job := finished(t, e, JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops: []OpSpec{
				{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 1},
				{ID: "b", Op: "addconst", Args: []string{"a"}, Val: 1},
				{ID: "c", Op: "addconst", Args: []string{"b"}, Val: 1},
			},
			Outputs: []string{"a", "c", "a"},
		})
		if got := liveNames(job); got != "a,c" {
			t.Errorf("done job holds %q, want a,c", got)
		}
		out, err := job.Results()
		if err != nil {
			t.Fatal(err)
		}
		for id, add := range map[string]float64{"a": 1, "c": 3} {
			want := make([]complex128, len(x))
			for i := range x {
				want[i] = x[i] + complex(add, 0)
			}
			checkSlots(t, client.decrypt(out[id]), want, len(x), 1e-4, id)
		}
	})

	t.Run("failed job drops everything", func(t *testing.T) {
		job, err := e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops: []OpSpec{
				{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 1},
				{ID: "r", Op: "rotate", Args: []string{"a"}, K: 3}, // no Galois key for 3
				{ID: "b", Op: "add", Args: []string{"r", "x"}},
			},
			Outputs: []string{"a", "b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err == nil {
			t.Fatal("job with a missing Galois key succeeded")
		}
		if got := liveNames(job); got != "" {
			t.Errorf("failed job still holds %q", got)
		}
		if _, err := job.Results(); err == nil {
			t.Error("Results of a failed job succeeded")
		}
	})
}

// TestComputedValuesReturnToPool: on the success path a value an op of the job
// computed goes back to the session's ring pool at its last use (or at once,
// if nothing reads it); an input — here shared by every job — and a listed
// output never do. The session's pools are poisoned, so a value handed back
// while something still needed it would decrypt to garbage.
func TestComputedValuesReturnToPool(t *testing.T) {
	client := newTestClient(t, 1)
	client.params.RingQ().PoisonPool()
	client.params.RingP().PoisonPool()
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{0.5, -0.25, 0.125, 0.75}
	ct := client.encrypt(t, x)
	ctBytes, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ops := []OpSpec{
		{ID: "sq", Op: "mul", Args: []string{"x", "x"}},
		{ID: "rot", Op: "rotate", Args: []string{"sq"}, K: 1},
		{ID: "sum", Op: "add", Args: []string{"rot", "sq"}}, // sq read twice
		{ID: "dead", Op: "addconst", Args: []string{"x"}, Val: 1},
		{ID: "out", Op: "mulconst", Args: []string{"sum"}, Val: 2},
	}
	sq := func(i int) complex128 { // slot i of x², zero past the values set
		if i < len(x) {
			return x[i] * x[i]
		}
		return 0
	}
	want, wantSq := make([]complex128, len(x)), make([]complex128, len(x))
	for i := range x {
		want[i], wantSq[i] = 2*(sq(i+1)+sq(i)), sq(i)
	}

	puts := obs.Default.Counter("ring_pool_puts_total")
	run := func(outputs ...string) (*Job, float64) {
		before := puts.Value()
		job := finished(t, e, JobSpec{SessionID: sess.ID, Inputs: map[string]*ckks.Ciphertext{"x": ct}, Ops: ops, Outputs: outputs})
		return job, puts.Value() - before
	}
	// With every op listed nothing may be released: what is put back is the
	// ops' own scratch.
	all, scratch := run("sq", "rot", "sum", "dead", "out")
	first, released := run("out")
	if got := released - scratch; got != 2*4 {
		t.Errorf("a job keeping only its output put back %v polynomials more than one keeping all five results, want 8", got)
	}
	second, _ := run("out") // runs out of what the first job put back
	for _, job := range []*Job{all, first, second} {
		res, err := job.Results()
		if err != nil {
			t.Fatal(err)
		}
		checkSlots(t, client.decrypt(res["out"]), want, len(x), 1e-4, "out")
	}
	res, _ := all.Results()
	checkSlots(t, client.decrypt(res["sq"]), wantSq, len(x), 1e-4, "listed intermediate")
	if after, _ := ct.MarshalBinary(); !bytes.Equal(after, ctBytes) {
		t.Fatal("the shared input was written to")
	}
}

// TestEngineMemoryStaysFlat is the soak gate of ROADMAP item 0(i): under a
// closed loop of jobs nobody ever deletes, the engine's table and the heap
// stop growing once the retention budget is full.
func TestEngineMemoryStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	client := newTestClient(t)
	const budget = 8 << 20
	reg := obs.NewRegistry()
	e := New(Config{Workers: 2, RetainedResultBytes: budget, Obs: reg, Tracer: obs.NewTracer(256)})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	w := client.encrypt(t, []complex128{0.5, 0.25})
	ops := []OpSpec{
		{ID: "m", Op: "mul", Args: []string{"x", "w"}},
		{ID: "s", Op: "square", Args: []string{"m"}},
		{ID: "o", Op: "mulconst", Args: []string{"s"}, Val: 0.25},
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}

	// A retained job is charged its result's capacity: two polynomials of at
	// least the output level's limbs (mul, square and mulconst each drop one
	// from the top), more when the pool served them from a larger backing.
	// The least charge bounds how many jobs the budget can retain.
	p := client.params
	minCost := int64(2 * (p.MaxLevel() - 3 + 1) * p.N() * 8)

	const clients, total, early = 4, 3000, 500
	var at500 float64
	done := 0
	for done < total {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				job, err := e.Submit(JobSpec{
					SessionID: sess.ID,
					Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1, 2}), "w": w},
					Ops:       ops,
					Outputs:   []string{"o"},
				})
				if err == nil {
					err = job.Wait(context.Background())
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		done += clients
		jobs, retained, bytes := e.tableSizes()
		if bound := int(budget/minCost) + 1; retained > bound || jobs > int(e.activeJobs.Load())+bound {
			t.Fatalf("after %d jobs: table holds %d (%d retained, %d bytes), bound %d retained", done, jobs, retained, bytes, bound)
		}
		if done == early {
			at500 = heap()
		}
	}
	at3000 := heap()
	jobs, retained, bytes := e.tableSizes()
	snap := reg.Snapshot()
	t.Logf("GOMAXPROCS=%d: %d jobs done; table %d jobs, retained %d jobs / %d bytes (budget %d); reaped budget=%v ttl=%v; values released %v",
		runtime.GOMAXPROCS(0), done, jobs, retained, bytes, budget,
		snap.Counters[`engine_jobs_reaped_total{reason="budget"}`], snap.Counters[`engine_jobs_reaped_total{reason="ttl"}`],
		snap.Counters["engine_values_released_total"])
	t.Logf("HeapAlloc after GC: %.2f MB at job %d, %.2f MB at job %d", at500, early, at3000, total)
	if d := at3000 - at500; d > 0.10*at500 || d < -0.10*at500 {
		t.Errorf("heap went from %.2f MB (job %d) to %.2f MB (job %d), want within 10%%", at500, early, at3000, total)
	}
	if got := snap.Gauges["engine_jobs_retained"]; int(got) != retained {
		t.Errorf("engine_jobs_retained %v, table says %d", got, retained)
	}
	if got := snap.Gauges["engine_retained_result_bytes"]; int64(got) != bytes {
		t.Errorf("engine_retained_result_bytes %v, table says %d", got, bytes)
	}
}

// TestEngineMemoryStaysFlatWhenFetched is TestEngineMemoryStaysFlat's loop
// with every result fetched: a delivered job leaves the engine, so the table
// is empty after every round, and the heap stays flat below the unfetched
// loop's, whose retained set fills the same 8 MiB budget.
func TestEngineMemoryStaysFlatWhenFetched(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	client := newTestClient(t)
	const budget = 8 << 20
	reg := obs.NewRegistry()
	e := New(Config{Workers: 2, RetainedResultBytes: budget, Obs: reg, Tracer: obs.NewTracer(256)})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	w := client.encrypt(t, []complex128{0.5, 0.25})
	ops := []OpSpec{
		{ID: "m", Op: "mul", Args: []string{"x", "w"}},
		{ID: "s", Op: "square", Args: []string{"m"}},
		{ID: "o", Op: "mulconst", Args: []string{"s"}, Val: 0.25},
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	const clients, total, early = 4, 3000, 500
	round := func(fetch bool) {
		x := client.encrypt(t, []complex128{1, 2}) // read-only: the round's jobs share it
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				job, err := e.Submit(JobSpec{
					SessionID: sess.ID,
					Inputs:    map[string]*ckks.Ciphertext{"x": x, "w": w},
					Ops:       ops,
					Outputs:   []string{"o"},
				})
				if err == nil {
					err = job.Wait(context.Background())
				}
				if err == nil && fetch {
					_, err = job.Results()
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	var at500 float64
	for done := clients; done <= total; done += clients {
		round(true)
		if jobs, retained, bytes := e.tableSizes(); jobs != 0 || retained != 0 || bytes != 0 {
			t.Fatalf("after %d fetched jobs: table %d jobs, retained %d / %d bytes, want none", done, jobs, retained, bytes)
		}
		if done == early {
			at500 = heap()
		}
	}
	fetched := heap()
	t.Logf("GOMAXPROCS=%d: HeapAlloc after GC with every result fetched: %.2f MB at job %d, %.2f MB at job %d",
		runtime.GOMAXPROCS(0), at500, early, fetched, total)
	if d := fetched - at500; d > 0.10*at500 || d < -0.10*at500 {
		t.Errorf("heap went from %.2f MB (job %d) to %.2f MB (job %d), want within 10%%", at500, early, fetched, total)
	}

	// The unfetched loop on the same engine, until the budget has reaped.
	for reg.Snapshot().Counters[`engine_jobs_reaped_total{reason="budget"}`] == 0 {
		round(false)
	}
	unfetched := heap()
	_, retained, bytes := e.tableSizes()
	t.Logf("unfetched: %d jobs / %d bytes retained, HeapAlloc after GC %.2f MB", retained, bytes, unfetched)
	if fetched >= unfetched {
		t.Errorf("heap with every result fetched %.2f MB, not below the unfetched loop's %.2f MB", fetched, unfetched)
	}
}

// TestRetentionBounds drives both bounds of the terminal-job table with a
// fake clock: bytes reap oldest first and spare the newest, age spares
// nothing, and a held handle survives either.
func TestRetentionBounds(t *testing.T) {
	client := newTestClient(t)
	// A square job is charged its result's capacity — two polynomials of the
	// level below the top, in backings of that many limbs or, when the pool
	// served them from a top-level one, one more — plus the fixed overhead.
	// Two and a half of the largest charge retain exactly two jobs, since
	// three of the smallest exceed it.
	p := client.params
	cost := int64(2*(p.MaxLevel()+1)*p.N()*8) + retainedJobOverhead
	charged := func(jobs ...*Job) int64 {
		var n int64
		for _, j := range jobs {
			n += retainedJobOverhead
			outs, err := j.results() // Results would deliver the job
			if err != nil {
				t.Fatal(err)
			}
			for _, ct := range outs {
				n += ct.CoeffBytes()
			}
		}
		return n
	}

	reaped := func(reg *obs.Registry, reason string) float64 {
		return reg.Snapshot().Counters[`engine_jobs_reaped_total{reason="`+reason+`"}`]
	}

	t.Run("byte budget", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := New(Config{Workers: 1, RetainedResultBytes: 2*cost + cost/2, Obs: reg})
		defer e.Close()
		installFakeClock(e) // never advanced: age plays no part
		sess, _ := e.AttachSession(client.params, client.keys)
		var jobs []*Job
		for i := 0; i < 5; i++ {
			jobs = append(jobs, finished(t, e, squareJob(t, client, sess.ID, "")))
		}
		if n, retained, bytes := e.tableSizes(); n != 2 || retained != 2 || bytes != charged(jobs[3:]...) {
			t.Fatalf("table %d jobs, retained %d / %d bytes; want 2, 2, %d", n, retained, bytes, charged(jobs[3:]...))
		}
		for i, j := range jobs {
			_, err := e.Job(j.ID)
			if want := i < 3; errors.Is(err, ErrJobGone) != want || (!want && err != nil) {
				t.Errorf("job %d (%s): lookup error %v, want gone=%v", i, j.ID, err, want)
			}
			if _, err := j.Results(); err != nil {
				t.Errorf("job %d: held handle lost its result: %v", i, err)
			}
		}
		if got := reaped(reg, "budget"); got != 3 {
			t.Errorf("reaped{budget} = %v, want 3", got)
		}
		if got := reaped(reg, "ttl"); got != 0 {
			t.Errorf("reaped{ttl} = %v, want 0", got)
		}
	})

	t.Run("newest kept over budget", func(t *testing.T) {
		e := New(Config{Workers: 1, RetainedResultBytes: 1, Obs: obs.NewRegistry()})
		defer e.Close()
		sess, _ := e.AttachSession(client.params, client.keys)
		a := finished(t, e, squareJob(t, client, sess.ID, ""))
		if _, err := e.Job(a.ID); err != nil {
			t.Fatalf("the only terminal job was reaped: %v", err)
		}
		b := finished(t, e, squareJob(t, client, sess.ID, ""))
		if _, err := e.Job(a.ID); !errors.Is(err, ErrJobGone) {
			t.Errorf("older job: %v, want ErrJobGone", err)
		}
		if _, err := e.Job(b.ID); err != nil {
			t.Errorf("newest job: %v", err)
		}
	})

	t.Run("ttl", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := New(Config{Workers: 1, RetainFor: time.Minute, Obs: reg})
		defer e.Close()
		clock := installFakeClock(e)
		sess, _ := e.AttachSession(client.params, client.keys)
		a := finished(t, e, squareJob(t, client, sess.ID, ""))
		clock.advance(30 * time.Second)
		b := finished(t, e, squareJob(t, client, sess.ID, ""))
		clock.advance(29 * time.Second)
		for _, j := range []*Job{a, b} {
			if _, err := e.Job(j.ID); err != nil {
				t.Fatalf("%s reaped before its TTL: %v", j.ID, err)
			}
		}
		clock.advance(time.Second) // a is now exactly RetainFor old
		if _, err := e.Job(a.ID); !errors.Is(err, ErrJobGone) {
			t.Errorf("a after 60s: %v, want ErrJobGone", err)
		}
		if _, err := e.Job(b.ID); err != nil {
			t.Errorf("b after 30s: %v", err)
		}
		if got := reaped(reg, "ttl"); got != 1 {
			t.Errorf("reaped{ttl} = %v, want 1", got)
		}
		// Nothing but a Submit touches the table now: it reaps b too, the
		// newest terminal job included — age spares nothing.
		clock.advance(time.Hour)
		c, err := e.Submit(squareJob(t, client, sess.ID, ""))
		if err != nil {
			t.Fatal(err)
		}
		if got := reaped(reg, "ttl"); got != 2 {
			t.Errorf("reaped{ttl} after Submit = %v, want 2", got)
		}
		if err := c.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := reaped(reg, "budget"); got != 0 {
			t.Errorf("reaped{budget} = %v, want 0", got)
		}
		if _, err := a.Results(); err != nil {
			t.Errorf("held handle of a reaped job: %v", err)
		}
	})
}

func doRequest(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: status %d, body %q: %v", method, path, rec.Code, rec.Body.String(), err)
	}
	return rec.Code, out
}

// TestReapedJobIsGone: over HTTP a fetched, reaped or released id answers
// 410, an id that was never issued 404, and the embedded caller's handle
// outlives them all.
func TestReapedJobIsGone(t *testing.T) {
	client := newTestClient(t, 1)
	reg := obs.NewRegistry()
	// A one-byte budget keeps exactly the newest terminal job.
	e := New(Config{Workers: 1, RetainedResultBytes: 1, MaxJobsPerTenant: 4, Obs: reg})
	defer e.Close()
	h := NewHTTPHandler(e)
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	first := finished(t, e, squareJob(t, client, sess.ID, ""))
	if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+first.ID+"/result", ""); code != http.StatusOK {
		t.Fatalf("result of the newest terminal job: %d", code)
	}
	second := finished(t, e, squareJob(t, client, sess.ID, ""))

	for _, path := range []string{"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "/result"} {
		if code, body := doRequest(t, h, "GET", path, ""); code != http.StatusGone {
			t.Errorf("GET %s (delivered): %d %v, want 410", path, code, body)
		}
	}
	// Never issued: beyond the counter, zero, non-canonical spellings of an
	// issued number, a session id, garbage.
	for _, id := range []string{"job-999", "job-0", "job-01", "job-+1", "job-", "sess-1", "nope"} {
		for _, suffix := range []string{"", "/result"} {
			if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+id+suffix, ""); code != http.StatusNotFound {
				t.Errorf("GET /v1/jobs/%s%s (never issued): %d, want 404", id, suffix, code)
			}
		}
		if code, _ := doRequest(t, h, "DELETE", "/v1/jobs/"+id, ""); code != http.StatusNotFound {
			t.Errorf("DELETE /v1/jobs/%s (never issued): %d, want 404", id, code)
		}
	}
	out, err := first.Results()
	if err != nil {
		t.Fatalf("held handle of a delivered job: %v", err)
	}
	checkSlots(t, client.decrypt(out["a"]), []complex128{1, 0.25}, 2, 1e-4, "delivered job's result")

	// DELETE: terminal -> removed at once, then 410.
	if code, body := doRequest(t, h, "DELETE", "/v1/jobs/"+second.ID, ""); code != http.StatusOK || body["status"] != "released" {
		t.Fatalf("DELETE terminal job: %d %v", code, body)
	}
	if code, _ := doRequest(t, h, "DELETE", "/v1/jobs/"+second.ID, ""); code != http.StatusGone {
		t.Errorf("second DELETE: %d, want 410", code)
	}
	if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+second.ID, ""); code != http.StatusGone {
		t.Errorf("GET after DELETE: %d, want 410", code)
	}
	if _, retained, bytes := e.tableSizes(); retained != 0 || bytes != 0 {
		t.Errorf("after DELETE: %d retained / %d bytes, want none", retained, bytes)
	}

	// DELETE: running -> cancelled, then removed. The chain is about a second
	// of rotations on the one worker; the DELETE lands microseconds in.
	ops, last := chainOps(2000, "rotate", 1)
	running, err := e.Submit(JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
		Ops:       ops,
		Outputs:   []string{last},
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := doRequest(t, h, "DELETE", "/v1/jobs/"+running.ID, ""); code != http.StatusOK {
		t.Fatalf("DELETE running job: %d %v", code, body)
	}
	if err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("deleted running job ended with %v, want context.Canceled", err)
	}
	if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+running.ID, ""); code != http.StatusGone {
		t.Errorf("GET deleted running job: %d, want 410", code)
	}
	// Its admission slot is back and it was never retained.
	if jobs, retained, _ := e.tableSizes(); jobs != 0 || retained != 0 || e.activeJobs.Load() != 0 {
		t.Errorf("after deleting everything: table %d, retained %d, active %d", jobs, retained, e.activeJobs.Load())
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`engine_jobs_reaped_total{reason="deleted"}`]; got != 2 {
		t.Errorf("reaped{deleted} = %v, want 2", got)
	}
	// The fetch took first out of the table before second finished, so the
	// one-byte budget never had two jobs to choose between.
	if got := snap.Counters[`engine_jobs_reaped_total{reason="delivered"}`]; got != 1 {
		t.Errorf("reaped{delivered} = %v, want 1", got)
	}
	if got := snap.Counters[`engine_jobs_reaped_total{reason="budget"}`]; got != 0 {
		t.Errorf("reaped{budget} = %v, want 0", got)
	}
}

// TestForget covers the embedded spelling of DELETE.
func TestForget(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	job := finished(t, e, squareJob(t, client, sess.ID, ""))
	if err := e.Forget(job.ID); err != nil {
		t.Fatalf("Forget terminal job: %v", err)
	}
	if err := e.Forget(job.ID); !errors.Is(err, ErrJobGone) {
		t.Errorf("Forget twice: %v, want ErrJobGone", err)
	}
	if err := e.Forget("job-77"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Forget never-issued id: %v, want ErrUnknownJob", err)
	}
	if _, err := job.Results(); err != nil {
		t.Errorf("held handle after Forget: %v", err)
	}
}

// failingWriter is a ResponseWriter whose body never fully reaches the
// client: every Write fails or, with tailOnly, only the final flush does.
type failingWriter struct {
	header   http.Header
	tailOnly bool
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) FlushError() error   { return errors.New("connection reset") }
func (w *failingWriter) Write(b []byte) (int, error) {
	if w.tailOnly {
		return len(b), nil
	}
	return 0, w.FlushError()
}

// TestResultDeliveredOnce: taking a result ends the engine's hold on the job
// — embedded, or over HTTP once the body was written — and the id answers
// 410 from then on; the held handle keeps answering, a failed transfer can be
// retried, and a failed job's refused Results drops nothing.
func TestResultDeliveredOnce(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	h := NewHTTPHandler(e)
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	delivered := func() float64 {
		return reg.Snapshot().Counters[`engine_jobs_reaped_total{reason="delivered"}`]
	}
	// table checks the table's sizes and that the gauges agree with them.
	table := func(wantJobs, wantRetained int) {
		t.Helper()
		jobs, retained, bytes := e.tableSizes()
		if jobs != wantJobs || retained != wantRetained || (retained == 0) != (bytes == 0) {
			t.Errorf("table %d jobs, retained %d / %d bytes; want %d jobs, %d retained", jobs, retained, bytes, wantJobs, wantRetained)
		}
		snap := reg.Snapshot()
		if got := snap.Gauges["engine_jobs_retained"]; int(got) != retained {
			t.Errorf("engine_jobs_retained %v, table says %d", got, retained)
		}
		if got := snap.Gauges["engine_retained_result_bytes"]; int64(got) != bytes {
			t.Errorf("engine_retained_result_bytes %v, table says %d", got, bytes)
		}
	}
	want := []complex128{1, 0.25}

	t.Run("embedded", func(t *testing.T) {
		job := finished(t, e, squareJob(t, client, sess.ID, ""))
		table(1, 1)
		out, err := job.Results()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Job(job.ID); !errors.Is(err, ErrJobGone) {
			t.Errorf("lookup after Results: %v, want ErrJobGone", err)
		}
		table(0, 0)
		again, err := job.Results()
		if err != nil {
			t.Fatalf("held handle after delivery: %v", err)
		}
		sameBytes(t, again["a"], out["a"], "second Results")
		checkSlots(t, client.decrypt(again["a"]), want, len(want), 1e-4, "delivered result")
		if got := delivered(); got != 1 {
			t.Errorf("reaped{delivered} = %v, want 1", got)
		}
	})

	t.Run("http", func(t *testing.T) {
		job := finished(t, e, squareJob(t, client, sess.ID, ""))
		held, err := job.results()
		if err != nil {
			t.Fatal(err)
		}
		path := "/v1/jobs/" + job.ID + "/result"
		code, body := doRequest(t, h, "GET", path, "")
		if code != http.StatusOK {
			t.Fatalf("first fetch: %d %v", code, body)
		}
		raw, err := base64.StdEncoding.DecodeString(body["outputs"].(map[string]any)["a"].(string))
		if err != nil {
			t.Fatal(err)
		}
		if heldRaw, _ := held["a"].MarshalBinary(); !bytes.Equal(raw, heldRaw) {
			t.Error("fetched output differs from the handle's")
		}
		for _, p := range []string{path, "/v1/jobs/" + job.ID} {
			if code, body := doRequest(t, h, "GET", p, ""); code != http.StatusGone {
				t.Errorf("GET %s after the fetch: %d %v, want 410", p, code, body)
			}
		}
		table(0, 0)
		if got := delivered(); got != 2 {
			t.Errorf("reaped{delivered} = %v, want 2", got)
		}
	})

	t.Run("failed transfer", func(t *testing.T) {
		job := finished(t, e, squareJob(t, client, sess.ID, ""))
		path := "/v1/jobs/" + job.ID + "/result"
		for _, tailOnly := range []bool{false, true} {
			h.ServeHTTP(&failingWriter{header: http.Header{}, tailOnly: tailOnly}, httptest.NewRequest("GET", path, nil))
			if _, err := e.Job(job.ID); err != nil {
				t.Fatalf("a fetch whose body failed (tail only: %v) dropped the job: %v", tailOnly, err)
			}
			table(1, 1)
		}
		if code, body := doRequest(t, h, "GET", path, ""); code != http.StatusOK {
			t.Fatalf("retried fetch: %d %v", code, body)
		}
		table(0, 0)
		if got := delivered(); got != 3 {
			t.Errorf("reaped{delivered} = %v, want 3", got)
		}
	})

	t.Run("failed job", func(t *testing.T) {
		job, err := e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, want)},
			Ops:       []OpSpec{{ID: "r", Op: "rotate", Args: []string{"x"}, K: 3}}, // no Galois key
			Outputs:   []string{"r"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err == nil {
			t.Fatal("want the job to fail on the missing rotation key")
		}
		if _, err := job.Results(); err == nil {
			t.Fatal("Results of a failed job must error")
		}
		if code, _ := doRequest(t, h, "GET", "/v1/jobs/"+job.ID+"/result", ""); code != http.StatusConflict {
			t.Errorf("result of a failed job: %d, want 409", code)
		}
		if _, err := e.Job(job.ID); err != nil {
			t.Errorf("a refused Results dropped the failed job: %v", err)
		}
		table(1, 1)
		if got := delivered(); got != 3 {
			t.Errorf("reaped{delivered} = %v, want 3", got)
		}
	})
}

// TestDeliveryRacesRetain: clients take each result the moment its job turns
// Done, racing finishJob's retain. A job whose result was taken before
// retain ran must stay out of the FIFO, or retainedBytes drifts.
func TestDeliveryRacesRetain(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 2, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	x := client.encrypt(t, []complex128{1})
	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				job, err := e.Submit(JobSpec{
					SessionID: sess.ID,
					Inputs:    map[string]*ckks.Ciphertext{"x": x},
					Ops:       []OpSpec{{ID: "a", Op: "addconst", Args: []string{"x"}, Val: 0.5}},
					Outputs:   []string{"a"},
				})
				if err != nil {
					t.Error(err)
					return
				}
				for st, _ := job.Status(); st != StatusDone; st, _ = job.Status() {
					if st == StatusFailed {
						t.Errorf("job %s failed", job.ID)
						return
					}
					runtime.Gosched()
				}
				if _, err := job.Results(); err != nil {
					t.Error(err)
					return
				}
				if _, _, bytes := e.tableSizes(); bytes < 0 {
					t.Errorf("retained bytes went negative: %d", bytes)
				}
				// Wait returns once finishJob, retain included, is over.
				if err := job.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if jobs, retained, bytes := e.tableSizes(); jobs != 0 || retained != 0 || bytes != 0 {
		t.Errorf("every result taken, yet the table holds %d jobs, %d retained / %d bytes", jobs, retained, bytes)
	}
	if got := reg.Snapshot().Counters[`engine_jobs_reaped_total{reason="delivered"}`]; got != clients*perClient {
		t.Errorf("reaped{delivered} = %v, want %d", got, clients*perClient)
	}
}

// TestTierQueueClearsTakenSlots: an op popped or pruned from a tier queue
// leaves its backing array too, so a finished job — and the outputs it holds
// for its client — is not kept reachable by a slot the slice no longer covers.
func TestTierQueueClearsTakenSlots(t *testing.T) {
	q := newTierQueues()
	done := &Job{tier: "standard", status: StatusDone}
	running := &Job{tier: "standard", status: StatusRunning}
	for _, j := range []*Job{done, running, running} {
		q.push(&opTask{job: j})
	}
	backing := q.ops["standard"][:3]
	if task := q.pop(); task == nil || task.job != running {
		t.Fatalf("pop returned %v, want the running job's op", task)
	}
	for i, task := range backing[:2] {
		if task != nil {
			t.Errorf("slot %d still holds an op after the pop", i)
		}
	}
	if len(q.ops["standard"]) != 1 {
		t.Errorf("queue holds %d ops, want 1", len(q.ops["standard"]))
	}
}

// TestUnknownSessionIsTyped: the 404 for a missing session comes from the
// error's type, not from its text — a client-chosen name that happens to
// contain the phrase stays a 400.
func TestUnknownSessionIsTyped(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	h := NewHTTPHandler(e)
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(squareJob(t, client, "sess-404", "")); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Submit to a missing session: %v, want ErrUnknownSession", err)
	}
	body := `{"ops":[{"id":"a","op":"square","args":["x"]}],"outputs":["a"]}`
	if code, _ := doRequest(t, h, "POST", "/v1/sessions/sess-404/jobs", body); code != http.StatusNotFound {
		t.Errorf("job for a missing session: %d, want 404", code)
	}
	for name, body := range map[string]string{
		"op id":          `{"ops":[{"id":"unknown session","op":"nope","args":[]}],"outputs":["unknown session"]}`,
		"transform name": `{"ops":[{"id":"a","op":"lintrans","name":"unknown session","args":["missing"]}],"outputs":["a"]}`,
		"argument name":  `{"ops":[{"id":"a","op":"square","args":["unknown session"]}],"outputs":["a"]}`,
	} {
		code, resp := doRequest(t, h, "POST", "/v1/sessions/"+sess.ID+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s containing the phrase: %d %v, want 400", name, code, resp)
		}
	}
}

// TestNoAbortWakeupsOnNormalFinish: a job that finishes normally runs no
// deadline/cancel abort and costs the process no goroutine.
func TestNoAbortWakeupsOnNormalFinish(t *testing.T) {
	client := newTestClient(t, 1)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, MaxActiveJobs: 256, MaxJobsPerTenant: 64, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	finished(t, e, squareJob(t, client, sess.ID, "")) // warm lazy pools
	ct := client.encrypt(t, []complex128{1})
	ops, last := chainOps(8, "rotate", 1)

	before := runtime.NumGoroutine()
	jobs := make([]*Job, 64)
	for i := range jobs {
		if jobs[i], err = e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops:       ops,
			Outputs:   []string{last},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// 512 rotations queued behind one worker: the jobs are in flight now.
	if inflight := e.activeJobs.Load(); inflight < 32 {
		t.Fatalf("only %d jobs in flight, the goroutine reading below means nothing", inflight)
	}
	if during := runtime.NumGoroutine(); during > before+2 {
		t.Errorf("goroutines went from %d to %d with 64 jobs in flight, want flat", before, during)
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine_job_abort_events_total"]; got != 0 {
		t.Errorf("%v abort events for 65 jobs that finished normally, want 0", got)
	}
	if got := snap.Counters["engine_jobs_done_total"]; got != 65 {
		t.Errorf("jobs done = %v, want 65", got)
	}
}

// BenchmarkSubmitChainDAG times admission of a 2 000-op chain (validation,
// the dependency state, the hand-off to the scheduler): linear in the DAG
// since the name index is built once. The job is cancelled as soon as it is
// admitted, outside the timed region.
func BenchmarkSubmitChainDAG(b *testing.B) {
	client := newTestClient(b)
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()}) // the addconst chain has nothing to fold
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		b.Fatal(err)
	}
	ops, last := chainOps(2000, "addconst", 0)
	spec := JobSpec{
		SessionID: sess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(b, []complex128{1})},
		Ops:       ops,
		Outputs:   []string{last},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := e.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		job.cancel()
		<-job.done
		b.StartTimer()
	}
}
