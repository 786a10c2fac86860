package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// squareJob is a one-op job spec against sess.
func squareJob(t *testing.T, client *testClient, sid, tier string) JobSpec {
	t.Helper()
	return JobSpec{
		SessionID: sid,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1, 0.5})},
		Ops:       []OpSpec{{ID: "a", Op: "square", Args: []string{"x"}}},
		Outputs:   []string{"a"},
		Tier:      tier,
	}
}

func TestTierValidation(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(squareJob(t, client, sess.ID, "extreme")); err == nil ||
		!strings.Contains(err.Error(), "unknown tier") {
		t.Fatalf("unknown tier: got %v", err)
	}
	// Empty tier normalizes to standard.
	job, err := e.Submit(squareJob(t, client, sess.ID, ""))
	if err != nil {
		t.Fatal(err)
	}
	if job.tier != TierStandard {
		t.Fatalf("empty tier normalized to %q", job.tier)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionReasons drives each rejection layer and checks the typed
// reason: tier capacity share, then per-tenant limit.
func TestAdmissionReasons(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1, MaxActiveJobs: 14})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	overloadReason := func(err error) string {
		t.Helper()
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("got %v (%T), want *OverloadError", err, err)
		}
		if !errors.Is(err, ErrBusy) {
			t.Fatal("OverloadError must unwrap to ErrBusy")
		}
		return oe.Reason
	}

	// Tier share: weights 8/4/2 over 14 slots give the batch tier 2.
	e.mu.Lock()
	e.tierActive[TierBatch] = e.tierCaps[TierBatch]
	e.mu.Unlock()
	_, err = e.Submit(squareJob(t, client, sess.ID, TierBatch))
	if got := overloadReason(err); got != "tier_full" {
		t.Fatalf("reason = %q, want tier_full", got)
	}
	e.mu.Lock()
	e.tierActive[TierBatch] = 0
	e.mu.Unlock()

	// Per-tenant cap.
	e.mu.Lock()
	e.tenantActive[sess.ID] = e.cfg.MaxJobsPerTenant
	e.mu.Unlock()
	_, err = e.Submit(squareJob(t, client, sess.ID, TierLatency))
	if got := overloadReason(err); got != "tenant_limit" {
		t.Fatalf("reason = %q, want tenant_limit", got)
	}
	e.mu.Lock()
	delete(e.tenantActive, sess.ID)
	e.mu.Unlock()

	// Rejections must not leak session pins: the session stays evictable.
	if got := e.sessions.Len(); got != 1 {
		t.Fatalf("sessions resident = %d, want 1", got)
	}
}

// TestTierIsolation is the admission-control acceptance gate: a saturating
// batch-tier tenant must not starve the latency tier. The assertion is
// ordering-based (robust under -race slowdown): every latency job completes
// while the batch backlog is still draining, and none is rejected for
// capacity the batch tenant consumed.
func TestTierIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("tier isolation test is slow")
	}
	client := newTestClient(t, 1)
	e := New(Config{Workers: 2, MaxActiveJobs: 32, MaxJobsPerTenant: 24, DefaultDeadline: time.Minute})
	defer e.Close()
	batchSess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	latSess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	// The latency jobs are built (inputs encrypted) before the flood starts:
	// the premise below is a race between the backlog and the latency jobs,
	// and client-side encryption on this goroutine must not be part of it.
	var latSpecs []JobSpec
	for i := 0; i < 4; i++ {
		latSpecs = append(latSpecs, squareJob(t, client, latSess.ID, TierLatency))
	}

	// Flood: deep sequential chains on the batch tier, filling its share.
	// Rotations spend a key switch and no level, so the chain can be as long
	// as the premise needs: each ready op goes straight to a worker, and four
	// admitted chains of 256 leave a backlog of ~256 key switches per latency
	// job on any core count.
	ct := client.encrypt(t, []complex128{0.5, 0.25})
	deepSpec := JobSpec{
		SessionID: batchSess.ID,
		Inputs:    map[string]*ckks.Ciphertext{"x": ct},
		Tier:      TierBatch,
	}
	prev := "x"
	for i := 0; i < 256; i++ {
		op := OpSpec{ID: fmt.Sprintf("op%d", i), Op: "rotate", Args: []string{prev}, K: 1}
		deepSpec.Ops = append(deepSpec.Ops, op)
		prev = op.ID
	}
	deepSpec.Outputs = []string{prev}

	var flood []*Job
	for i := 0; i < 16; i++ {
		job, err := e.Submit(deepSpec)
		if errors.Is(err, ErrBusy) {
			continue // the batch tier saturating its own share is the premise
		}
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, job)
	}
	if len(flood) == 0 {
		t.Fatal("no flood jobs admitted")
	}

	// Latency jobs submitted into the saturated engine: all must admit
	// (their tier share is reserved) and complete ahead of the backlog.
	for i, spec := range latSpecs {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("latency job %d rejected under batch flood: %v", i, err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatalf("latency job %d: %v", i, err)
		}
	}
	pending := 0
	for _, job := range flood {
		if !job.terminal() {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("batch backlog fully drained before latency jobs finished: saturation premise failed")
	}
	for _, job := range flood {
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpiredNeverDispatched is the deadline/backpressure stress gate: jobs
// that expire while queued behind a busy worker must terminate with the
// deadline error, their ops must never reach the evaluator, and the engine
// must shut down without leaking goroutines (the PR 2 leak gate).
func TestExpiredNeverDispatched(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test is slow")
	}
	client := newTestClient(t, 1)

	// Warm process-wide lazy pools through a throwaway engine so the
	// goroutine baseline captures only this test's engine.
	func() {
		e := New(Config{Workers: 1})
		defer e.Close()
		sess, err := e.AttachSession(client.params, client.keys)
		if err != nil {
			t.Fatal(err)
		}
		job, err := e.Submit(squareJob(t, client, sess.ID, ""))
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	baseline := runtime.NumGoroutine()

	// One worker; blockers and victims share the standard tier, so its queue
	// is first in first out between them and a victim queued behind a
	// blocker cannot reach the worker before that blocker has run.
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, MaxActiveJobs: 112, MaxJobsPerTenant: 32, Obs: reg})
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	// Blockers: standard-tier squares keep the single worker saturated.
	// topUp keeps about 20 ms of them admitted — more than a scheduler time
	// slice, so at GOMAXPROCS=1 the worker cannot drain the backlog before
	// this goroutine runs again.
	ct := client.encrypt(t, []complex128{1})
	var blockers []*Job
	topUp := func() {
		live := 0
		for _, job := range blockers {
			if !job.terminal() {
				live++
			}
		}
		for ; live < 20; live++ {
			job, err := e.Submit(JobSpec{
				SessionID: sess.ID,
				Inputs:    map[string]*ckks.Ciphertext{"x": ct},
				Ops:       []OpSpec{{ID: "s", Op: "square", Args: []string{"x"}}},
				Outputs:   []string{"s"},
			})
			if errors.Is(err, ErrBusy) {
				return // the standard tier's admission share is full
			}
			if err != nil {
				t.Fatal(err)
			}
			blockers = append(blockers, job)
		}
	}
	topUp()

	// Victims: rotate-only standard-tier jobs with deadlines far shorter
	// than one square. "rotate" appears in no other job, so its per-op
	// execution counter staying at zero proves no expired op touched the
	// evaluator. Each victim goes in only while the worker is busy and at
	// least two blockers wait in the standard queue: a victim never runs, so
	// every queued entry beyond the victims admitted so far is a blocker
	// ahead of the new one, and even if the worker takes one of them before
	// the Submit lands, it runs the other whole before it can reach the
	// victim. A victim offered to an idle worker would finish inside its
	// deadline.
	standard := `engine_tier_queue_depth{tier="standard"}`
	var victims []*Job
	for i := 0; i < 8; i++ {
		for start := time.Now(); ; {
			g := reg.Snapshot().Gauges
			if g["engine_workers_busy"] >= 1 && int(g[standard]) >= len(victims)+2 {
				break
			}
			if time.Since(start) > 10*time.Second {
				t.Fatalf("never saw the worker busy with two blockers queued: %v", g)
			}
			topUp()
			time.Sleep(20 * time.Microsecond)
		}
		job, err := e.Submit(JobSpec{
			SessionID: sess.ID,
			Inputs:    map[string]*ckks.Ciphertext{"x": ct},
			Ops:       []OpSpec{{ID: "r", Op: "rotate", Args: []string{"x"}, K: 1}},
			Outputs:   []string{"r"},
			Deadline:  200 * time.Microsecond,
		})
		if errors.Is(err, ErrBusy) {
			continue // full backpressure shedding some victims is fine
		}
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, job)
	}
	if len(victims) == 0 {
		t.Fatal("no victim jobs admitted")
	}
	for _, job := range victims {
		err := job.Wait(context.Background())
		if err == nil || (!errors.Is(err, context.DeadlineExceeded) && !strings.Contains(err.Error(), "deadline")) {
			t.Errorf("victim: want deadline error, got %v", err)
		}
	}
	for _, job := range blockers {
		if err := job.Wait(context.Background()); err != nil {
			t.Fatalf("blocker: %v", err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`engine_ops_total{op="rotate"}`]; got != 0 {
		t.Errorf("expired rotate ops executed %v times, want 0", got)
	}

	e.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			n := runtime.NumGoroutine()
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: %d after close, baseline %d\n%s", n, baseline, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startLongOp submits a batch-tier job of one long op — a lincomb over 4 096
// copies of one input, over a hundred milliseconds of work that no other op
// can interrupt — and returns once the engine's one worker is running it.
func startLongOp(t *testing.T, e *Engine, reg *obs.Registry, client *testClient, sid string) *Job {
	t.Helper()
	const copies = 4096
	long := OpSpec{ID: "long", Op: "lincomb"}
	for i := 0; i < copies; i++ {
		long.Args = append(long.Args, "x")
		long.Vals = append(long.Vals, 1.0/copies)
	}
	job, err := e.Submit(JobSpec{
		SessionID: sid,
		Inputs:    map[string]*ckks.Ciphertext{"x": client.encrypt(t, []complex128{1})},
		Ops:       []OpSpec{long},
		Outputs:   []string{"long"},
		Tier:      TierBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); reg.Snapshot().Gauges["engine_workers_busy"] < 1; time.Sleep(50 * time.Microsecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the worker never took the long op")
		}
	}
	return job
}

// TestLatencyOpTakesTheFreeWorker: a worker takes its next op from the tier
// queues only when it is free, so a latency job that becomes ready after four
// standard ones, while the one worker is busy, still runs before all four.
func TestLatencyOpTakesTheFreeWorker(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	var standard []JobSpec
	for i := 0; i < 4; i++ {
		standard = append(standard, squareJob(t, client, sess.ID, TierStandard))
	}
	latency := squareJob(t, client, sess.ID, TierLatency)

	blocker := startLongOp(t, e, reg, client, sess.ID)
	var jobs []*Job
	for _, spec := range standard {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	lat, err := e.Submit(latency)
	if err != nil {
		t.Fatal(err)
	}
	if blocker.terminal() {
		t.Fatal("the long op finished before the latency job was submitted: premise failed")
	}
	for _, job := range append([]*Job{blocker, lat}, jobs...) {
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, job := range jobs {
		if !lat.finishedAt.Before(job.finishedAt) {
			t.Errorf("standard job %d finished %v after the long op, the latency job %v: want the latency job first",
				i, job.finishedAt.Sub(blocker.finishedAt), lat.finishedAt.Sub(blocker.finishedAt))
		}
	}
}

// TestAbortDoesNotWaitForTheWorker: a queued job whose deadline passes, or
// that the client releases, fails at once while the one worker is still busy
// on another job's op; Close fails every job still tracked before it returns.
func TestAbortDoesNotWaitForTheWorker(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		squareJob(t, client, sess.ID, ""),
		squareJob(t, client, sess.ID, ""),
		squareJob(t, client, sess.ID, ""),
	}
	specs[0].Deadline = 5 * time.Millisecond

	blocker := startLongOp(t, e, reg, client, sess.ID)
	var jobs []*Job
	for _, spec := range specs {
		job, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	expiring, forgotten, closed := jobs[0], jobs[1], jobs[2]
	if err := e.Forget(forgotten.ID); err != nil {
		t.Fatal(err)
	}
	if err := expiring.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired job: %v, want context.DeadlineExceeded", err)
	}
	if err := forgotten.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("forgotten job: %v, want context.Canceled", err)
	}
	if blocker.terminal() {
		t.Error("the long op finished before the aborts: they waited for the worker")
	}
	e.Close()
	for name, job := range map[string]*Job{"running": blocker, "queued": closed} {
		if st, err := job.Status(); st != StatusFailed || !errors.Is(err, context.Canceled) {
			t.Errorf("%s job after Close: %s %v, want failed with context.Canceled", name, st, err)
		}
	}
}

// TestEngineRunsOnlyItsWorkers: New starts exactly Workers goroutines — the
// workers schedule ops themselves — and Close ends them.
func TestEngineRunsOnlyItsWorkers(t *testing.T) {
	for _, n := range []int{1, 3} {
		// Another test's goroutines may still be exiting: a reading is taken
		// as soon as one attempt sees no such drift.
		var rise int
		for attempt := 0; attempt < 5; attempt++ {
			before := runtime.NumGoroutine()
			e := New(Config{Workers: n, Obs: obs.NewRegistry()})
			rise = runtime.NumGoroutine() - before
			e.Close()
			if rise == n {
				break
			}
		}
		if rise != n {
			t.Errorf("New(Config{Workers: %d}) started %d goroutines, want %d", n, rise, n)
		}
	}
}

// TestSessionDetachAndClose covers the session lifetime fixes: detach
// removes key bytes from the cache, running jobs survive a detach, and
// Close releases every session's key material deterministically.
func TestSessionDetachAndClose(t *testing.T) {
	client := newTestClient(t)
	e := New(Config{Workers: 1})
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	if sess.KeyBytes() <= 0 {
		t.Fatal("session key bytes not measured")
	}
	if got := e.sessions.Bytes(); got != sess.KeyBytes() {
		t.Fatalf("cache bytes = %d, want %d", got, sess.KeyBytes())
	}

	job, err := e.Submit(squareJob(t, client, sess.ID, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !e.DetachSession(sess.ID) {
		t.Fatal("DetachSession on live session reported not found")
	}
	if e.DetachSession(sess.ID) {
		t.Fatal("second DetachSession reported found")
	}
	// The in-flight job keeps its reference and still completes.
	if err := job.Wait(context.Background()); err != nil {
		t.Fatalf("job after detach: %v", err)
	}
	if _, err := e.Submit(squareJob(t, client, sess.ID, "")); err == nil ||
		!strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("submit on detached session: got %v", err)
	}

	sess2, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if sess2.Keys != nil || sess2.Eval != nil {
		t.Fatal("Close did not release session key material")
	}
	if e.sessions.Len() != 0 {
		t.Fatalf("sessions resident after close: %d", e.sessions.Len())
	}
	if _, err := e.Submit(squareJob(t, client, sess2.ID, "")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestSessionBudgetIsExact is keycache's TestBudgetIsExact through the engine:
// SessionCacheBytes is one budget over all sessions, so fourteen key sets stay
// resident under a budget of fourteen and a half, and the fifteenth evicts
// exactly the least recently used one — whose next job is an unknown session.
func TestSessionBudgetIsExact(t *testing.T) {
	client := newTestClient(t)
	size := client.keys.CoeffBytes()
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, SessionCacheBytes: 14*size + size/2, Obs: reg})
	defer e.Close()
	var ids []string
	for i := 0; i < 14; i++ {
		sess, err := e.AttachSession(client.params, client.keys)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.ID)
	}
	if got := e.sessions.Len(); got != 14 || e.sessions.Bytes() != 14*size {
		t.Fatalf("14 sessions under a 14.5-session budget: %d resident / %d bytes, want 14 / %d",
			got, e.sessions.Bytes(), 14*size)
	}
	if _, ok := e.Session(ids[0]); !ok { // ids[1] is now the least recently used
		t.Fatalf("%s not resident", ids[0])
	}
	if _, err := e.AttachSession(client.params, client.keys); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if _, ok := e.Session(id); ok == (i == 1) {
			t.Errorf("%s resident = %v after the 15th attach", id, ok)
		}
	}
	if got := reg.Counter("engine_sessions_evicted_total").Value(); got != 1 {
		t.Fatalf("%v sessions evicted, want exactly 1", got)
	}
	if _, err := e.Submit(squareJob(t, client, ids[1], "")); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("submit on the evicted session: got %v, want ErrUnknownSession", err)
	}
}

// TestAttachDuringClose: a session attached while Close runs either fails with
// ErrClosed or is cleared by Close; its keys never outlive the engine.
func TestAttachDuringClose(t *testing.T) {
	client := newTestClient(t)
	for i := 0; i < 200; i++ {
		e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := e.AttachSession(client.params, client.keys); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("attach: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
		if n := e.sessions.Len(); n != 0 {
			t.Fatalf("iteration %d: %d sessions resident after Close", i, n)
		}
	}
}

// TestServingMetricsExported is the export-shape gate for the serving
// capacity gauge family and the key cache's series.
func TestServingMetricsExported(t *testing.T) {
	client := newTestClient(t)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(squareJob(t, client, sess.ID, TierLatency))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"engine_sessions_live 1",
		"engine_evalkey_resident_bytes",
		`engine_tier_queue_depth{tier="latency"}`,
		`engine_tier_queue_depth{tier="standard"}`,
		`engine_tier_queue_depth{tier="batch"}`,
		`engine_tier_active_jobs{tier="latency"}`,
		`engine_tier_jobs_admitted_total{tier="latency"} 1`,
		"engine_ops_expired_total",
		`keycache_resident_bytes{cache="sessions"}`,
		`keycache_hits_total{cache="sessions"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
}
