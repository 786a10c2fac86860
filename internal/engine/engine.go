// Package engine is the concurrent FHE serving runtime that sits between
// the public facade and the ckks evaluator. It owns four things:
//
//   - a session cache: per-tenant CKKS contexts (compiled parameters +
//     uploaded evaluation keys + evaluator) held in one size-bounded LRU
//     (internal/keycache) with exact byte accounting and pinning for
//     in-flight jobs — evaluation-key sets are by far the largest per-tenant
//     object, so the session store behaves like a cache, not a map;
//
//   - a job scheduler: clients submit encrypted-compute jobs — DAGs of
//     homomorphic ops over named ciphertext handles — and the scheduler
//     tracks dependencies under one lock, queueing each op in its job's tier
//     as soon as its inputs exist; a free worker takes the next op from the
//     tier queues itself;
//
//   - admission control: weighted priority tiers (latency | standard |
//     batch) with per-tier capacity shares and per-tenant in-flight limits,
//     shedding load with typed OverloadErrors that the HTTP layer maps to
//     429 + Retry-After (see tiers.go);
//
//   - value lifetime: a running job holds each ciphertext only until its
//     last use — what one of its ops computed then goes back to the session's
//     ring pool for the next op to reuse — a finished one only its outputs,
//     a fetched one nothing, and finished jobs nobody has fetched stay in the
//     table within a byte budget and a TTL (see retain.go): the engine's
//     memory follows the live set, not the history.
//
// The layering mirrors how the Cheddar GPU library (the substrate of the
// Anaheim paper) gets its throughput: streams and kernel queues above the
// math kernels, buffer reuse below them (the ring-level poly pool).
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/keycache"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Config sizes the runtime.
type Config struct {
	// Workers is the number of op-executing goroutines. Defaults to
	// GOMAXPROCS.
	Workers int
	// MaxActiveJobs bounds admitted (queued or running) jobs; Submit fails
	// fast with an OverloadError beyond it. Defaults to 64.
	MaxActiveJobs int
	// MaxJobsPerTenant bounds one tenant's admitted jobs so a single
	// session cannot consume the whole admission budget. Defaults to 16.
	MaxJobsPerTenant int
	// SessionCacheBytes bounds the resident evaluation-key bytes across all
	// sessions; least-recently-used sessions are evicted beyond it (pinned
	// sessions of in-flight jobs are never evicted) and an evicted session is
	// gone: its next job is an unknown-session error. Defaults to 1 GiB.
	SessionCacheBytes int64
	// DefaultDeadline applies to jobs that do not set one. Defaults to 2
	// minutes.
	DefaultDeadline time.Duration
	// RetainedResultBytes bounds what finished jobs keep alive for clients
	// that have not fetched their result yet: the output coefficient bytes
	// (plus a fixed per-job charge, so failed jobs count too) of all terminal
	// jobs in the table. A fetched result is no longer in the table, so it
	// counts for nothing. Beyond it the oldest are reaped first; the newest
	// terminal job is always kept. Defaults to 64 MiB.
	RetainedResultBytes int64
	// RetainFor is how long an unfetched terminal job stays fetchable by ID
	// before it is reaped. Defaults to DefaultDeadline.
	RetainFor time.Duration
	// MaxBodyBytes caps HTTP request bodies accepted by NewHTTPHandler;
	// oversized POSTs get 413 instead of OOMing the server. Defaults to
	// 64 MiB (evaluation-key uploads are the largest legitimate payloads).
	MaxBodyBytes int64
	// Obs receives the engine's metrics (counters, gauges, latency
	// histograms). Defaults to obs.Default.
	Obs *obs.Registry
	// Tracer records per-job/per-op spans. Defaults to obs.DefaultTracer.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 64
	}
	if c.MaxJobsPerTenant <= 0 {
		c.MaxJobsPerTenant = 16
	}
	if c.SessionCacheBytes <= 0 {
		c.SessionCacheBytes = 1 << 30
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.RetainedResultBytes <= 0 {
		c.RetainedResultBytes = 64 << 20
	}
	if c.RetainFor <= 0 {
		c.RetainFor = c.DefaultDeadline
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer
	}
	return c
}

// ErrBusy is the base backpressure error: Submit rejections wrap it (see
// OverloadError for the typed form carrying reason and retry hint).
// Clients should retry with backoff; the HTTP layer maps it to 429.
var ErrBusy = errors.New("engine: job queue full")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is the serving runtime. Create with New, stop with Close.
type Engine struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	sessions *keycache.Cache[*Session]

	mu            sync.Mutex
	closed        bool
	jobs          map[string]*Job // in-flight jobs plus the retained terminal ones
	retained      *list.List      // terminal jobs in finish order, oldest first
	retainedBytes int64           // sum of their cost
	now           func() time.Time
	tierActive    map[string]int // admitted jobs per tier
	tenantActive  map[string]int // admitted jobs per tenant (session ID)

	tierCaps map[string]int // per-tier admission capacity (weight shares)

	activeJobs atomic.Int64  // admitted (queued or running) jobs
	seq        atomic.Uint64 // session ids
	jobSeq     atomic.Uint64 // job ids; every id up to it was issued (see lookupLocked)

	metrics *engineMetrics
	tracer  *obs.Tracer

	// Scheduler state, under sched (taken before mu, never after): the DAG
	// of every running job and the tier queues of ready ops. wake signals a
	// queued op or the engine closing to idle workers.
	sched  sync.Mutex
	wake   sync.Cond
	states map[*Job]*jobState
	queues tierQueues
	wg     sync.WaitGroup
}

type opTask struct {
	job     *Job
	op      *OpSpec
	idx     int       // position of op in the job's DAG
	readyAt time.Time // when the op's dependencies were met (queue-wait origin)
}

// New starts the worker pool and scheduler.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:          cfg,
		ctx:          ctx,
		cancel:       cancel,
		jobs:         make(map[string]*Job),
		retained:     list.New(),
		now:          time.Now,
		tierActive:   make(map[string]int),
		tenantActive: make(map[string]int),
		tierCaps:     tierCapacities(cfg.MaxActiveJobs),
		metrics:      newEngineMetrics(cfg.Obs),
		tracer:       cfg.Tracer,
		states:       make(map[*Job]*jobState),
		queues:       newTierQueues(),
	}
	e.wake.L = &e.sched
	e.sessions = keycache.New[*Session](keycache.Config{
		BudgetBytes: cfg.SessionCacheBytes,
		Name:        "sessions",
		Obs:         cfg.Obs,
	}, func(_ string, s *Session) { e.metrics.sessionsEvicted.Inc() })
	// Sampled-at-scrape gauges; when several engines share a registry the
	// most recently started one wins, which is what a serving process wants.
	cfg.Obs.GaugeFunc("engine_active_jobs", func() float64 { return float64(e.activeJobs.Load()) })
	cfg.Obs.GaugeFunc("engine_sessions_live", func() float64 { return float64(e.sessions.Len()) })
	cfg.Obs.GaugeFunc("engine_evalkey_resident_bytes", func() float64 { return float64(e.sessions.Bytes()) })
	cfg.Obs.GaugeFunc("engine_jobs_retained", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.retained.Len())
	})
	cfg.Obs.GaugeFunc("engine_retained_result_bytes", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.retainedBytes)
	})
	for _, t := range tierOrder {
		t := t
		cfg.Obs.GaugeFunc(fmt.Sprintf(`engine_tier_queue_depth{tier="%s"}`, t),
			func() float64 {
				e.sched.Lock()
				defer e.sched.Unlock()
				return float64(len(e.queues.ops[t]))
			})
		cfg.Obs.GaugeFunc(fmt.Sprintf(`engine_tier_active_jobs{tier="%s"}`, t),
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(e.tierActive[t])
			})
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the runtime and releases per-session key material
// deterministically: in-flight jobs fail with context.Canceled, and every
// cached session is dropped and cleared so evaluation keys become
// collectable without waiting for cache churn.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.cancel()
	// Fail whatever is still tracked so waiters wake up, and send idle
	// workers home.
	e.sched.Lock()
	for j := range e.states {
		e.finishJob(j, context.Canceled)
	}
	e.wake.Broadcast()
	e.sched.Unlock()
	e.wg.Wait()
	e.sessions.Clear(func(_ string, s *Session) { s.release() })
}

// ---------------------------------------------------------------------------
// Workers

func (e *Engine) worker() {
	defer e.wg.Done()
	for t := e.next(); t != nil; t = e.next() {
		e.metrics.workersBusy.Add(1)
		res, err := e.runTask(t)
		e.metrics.workersBusy.Add(-1)
		e.opDone(t, res, err)
	}
}

// next blocks until the tier queues yield an op, which it takes off them,
// or the engine closes (nil).
func (e *Engine) next() *opTask {
	e.sched.Lock()
	defer e.sched.Unlock()
	for e.ctx.Err() == nil {
		if t := e.queues.pop(); t != nil {
			return t
		}
		e.wake.Wait()
	}
	return nil
}

// runTask runs one op with its per-op instrumentation. Ops of jobs that
// already expired or aborted are skipped without touching the evaluator
// (counted under engine_ops_expired_total).
func (e *Engine) runTask(t *opTask) (*ckks.Ciphertext, error) {
	if err := t.job.expired(); err != nil {
		e.metrics.opsExpired.Inc()
		return nil, err
	}
	m := e.metrics.op(t.op.Op)
	m.queueWait.Observe(time.Since(t.readyAt).Seconds())
	sp := e.tracer.Start("op:"+t.op.Op, t.job.spanID())
	sp.Annotate("id=" + t.op.ID + " job=" + t.job.ID)
	start := time.Now()
	res, err := e.executeTask(t)
	sp.End()
	m.exec.Observe(time.Since(start).Seconds())
	m.total.Inc()
	if err != nil {
		m.failures.Inc()
	}
	return res, err
}

// executeTask runs one op, converting evaluator panics (scale mismatches,
// level exhaustion) into job failures rather than process crashes.
func (e *Engine) executeTask(t *opTask) (ct *ckks.Ciphertext, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op %q (%s): panic: %v", t.op.ID, t.op.Op, r)
		}
	}()
	if err := t.job.expired(); err != nil {
		return nil, err
	}
	return t.job.sess.evalOp(t.op, t.job.arg)
}

// ---------------------------------------------------------------------------
// Scheduler

// jobInput is the producer of a value the client supplied.
const jobInput = -1

// jobState is one job's validated op DAG and the scheduler's bookkeeping
// over it. validate builds it once per admitted spec; from start on it is
// guarded by Engine.sched, and it dies when the job finishes — a terminal Job
// keeps none of it.
type jobState struct {
	ops        []OpSpec
	waiting    []int          // per op: dependencies still to finish
	dependents [][]int        // per op: the ops it unblocks
	uses       map[string]int // per value name: consuming ops still to run, plus its listings as a requested output
	producer   map[string]int // per value name: position of the op that computes it, or jobInput
	remaining  int
	stopAbort  func() bool // unregisters the job's deadline/cancel abort
}

// enqueue puts one op whose dependencies are met on its tier queue and wakes
// a worker for it. e.sched must be held.
func (e *Engine) enqueue(j *Job, st *jobState, op int) {
	e.queues.push(&opTask{job: j, op: &st.ops[op], idx: op, readyAt: time.Now()})
	e.wake.Signal()
}

// start hands an admitted job to the scheduler: it queues the ops that read
// only job inputs and arms the job's deadline/cancel abort. It reports false,
// tracking nothing, once the engine is closing.
func (e *Engine) start(j *Job, st *jobState) bool {
	e.sched.Lock()
	defer e.sched.Unlock()
	if e.ctx.Err() != nil {
		return false
	}
	e.states[j] = st
	j.setRunning()
	// Jobs whose remaining ops never reach a worker (e.g. expired while
	// queued) still terminate. Armed under the lock that tracks the job, so
	// the abort cannot overtake the start, and stopped by finishJob, so a
	// normal finish costs nothing.
	st.stopAbort = context.AfterFunc(j.ctx, func() {
		e.sched.Lock()
		defer e.sched.Unlock()
		e.metrics.abortEvents.Inc()
		if e.states[j] != nil {
			e.finishJob(j, j.ctx.Err())
		}
	})
	for i := range st.ops {
		if st.waiting[i] == 0 {
			e.enqueue(j, st, i)
		}
	}
	return true
}

// opDone records a finished op: its result and arguments enter or leave the
// job's live set, its dependents that have every input now join their tier
// queue, and the job finishes with its last op or its first failure.
func (e *Engine) opDone(t *opTask, ct *ckks.Ciphertext, err error) {
	e.sched.Lock()
	defer e.sched.Unlock()
	j, op := t.job, t.op
	st := e.states[j]
	if st == nil {
		return // job already finished (failed or aborted)
	}
	if err != nil {
		e.finishJob(j, fmt.Errorf("op %q: %w", op.ID, err))
		return
	}
	// The result enters the live set only if something will read it, and
	// every argument leaves it at its last use: the job's footprint is its
	// widest live set, not the sum of its DAG. What an op of this job
	// computed goes back to the ring pool there — no op still reads it and
	// no result shares a row with it.
	if st.uses[op.ID] > 0 {
		j.store(op.ID, ct)
	} else {
		j.sess.Eval.Release(ct)
	}
	for _, a := range op.Args {
		if st.uses[a]--; st.uses[a] == 0 {
			j.release(a, st.producer[a] != jobInput)
			e.metrics.valuesReleased.Inc()
		}
	}
	st.remaining--
	for _, dep := range st.dependents[t.idx] {
		if st.waiting[dep]--; st.waiting[dep] == 0 {
			e.enqueue(j, st, dep)
		}
	}
	if st.remaining == 0 {
		e.finishJob(j, nil)
	}
}

// finishJob transitions a job to its terminal state, releases its admission
// slot, tier/tenant accounting and session pin, and moves it from the
// in-flight set to the bounded retained one. Waiters wake last, so a client
// that resubmits the moment Wait returns finds its slot free and the table
// settled. e.sched must be held.
func (e *Engine) finishJob(j *Job, err error) {
	e.states[j].stopAbort()
	delete(e.states, j)
	outputBytes := j.finish(err)
	j.cancel()
	e.releaseJob(j)
	e.retain(j, outputBytes)
	e.metrics.finished(err,
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled))
	close(j.done)
}

// releaseJob returns a terminal job's admission slot: global count, tier
// and tenant accounting, and the session pin taken at Submit.
func (e *Engine) releaseJob(j *Job) {
	e.mu.Lock()
	e.tierActive[j.tier]--
	if e.tenantActive[j.tenant] <= 1 {
		delete(e.tenantActive, j.tenant)
	} else {
		e.tenantActive[j.tenant]--
	}
	e.mu.Unlock()
	e.sessions.Unpin(j.tenant)
	e.activeJobs.Add(-1)
}

// ---------------------------------------------------------------------------
// Submission

// Submit validates and admits a job. Admission control is three-layered —
// global MaxActiveJobs, the tier's capacity share, and the tenant's
// in-flight cap — and rejections are typed OverloadErrors (wrapping ErrBusy)
// carrying the reason and a Retry-After hint, giving HTTP clients an
// explicit backpressure signal instead of unbounded queueing.
//
// The job takes a reference to each input it will read and drops it after
// the input's last use; the caller's Inputs map and ciphertexts are never
// written, so one spec (or one ciphertext) may be submitted many times.
func (e *Engine) Submit(spec JobSpec) (*Job, error) {
	tier, err := normalizeTier(spec.Tier)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.reapLocked()
	e.mu.Unlock()
	// Resolve and pin the session before admission so a concurrent eviction
	// cannot drop its keys between validation and execution.
	sess, ok := e.sessions.Acquire(spec.SessionID)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, spec.SessionID)
	}
	unpin := func() { e.sessions.Unpin(spec.SessionID) }
	st, err := validate(&spec, sess.Params)
	if err != nil {
		unpin()
		return nil, err
	}

	// Admission control (backpressure + tier shares + tenant caps).
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		unpin()
		return nil, ErrClosed
	}
	reason := ""
	switch {
	case e.activeJobs.Load() >= int64(e.cfg.MaxActiveJobs):
		reason = "engine_full"
	case e.tierActive[tier] >= e.tierCaps[tier]:
		reason = "tier_full"
	case e.tenantActive[spec.SessionID] >= e.cfg.MaxJobsPerTenant:
		reason = "tenant_limit"
	}
	if reason != "" {
		admitted := e.tierActive[tier]
		e.mu.Unlock()
		unpin()
		e.metrics.jobsRejected.Inc()
		e.metrics.tier(tier).rejected.Inc()
		return nil, &OverloadError{Tier: tier, Reason: reason, RetryAfter: e.retryAfter(admitted)}
	}
	e.tierActive[tier]++
	e.tenantActive[spec.SessionID]++
	e.activeJobs.Add(1)
	e.mu.Unlock()

	deadline := spec.Deadline
	if deadline <= 0 {
		deadline = e.cfg.DefaultDeadline
	}
	ctx, cancel := context.WithTimeout(e.ctx, deadline)
	j := &Job{
		ID:      fmt.Sprintf("job-%d", e.jobSeq.Add(1)),
		eng:     e,
		sess:    sess,
		outputs: spec.Outputs,
		tier:    tier,
		tenant:  spec.SessionID,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		values:  make(map[string]*ckks.Ciphertext, len(spec.Inputs)+1),
		done:    make(chan struct{}),
	}
	for name, ct := range spec.Inputs {
		if st.uses[name] > 0 { // an input no op reads is never held
			j.values[name] = ct
		}
	}
	j.peakLive = len(j.values)
	j.span = e.tracer.Start("job", 0)
	j.span.Annotate("id=" + j.ID + " sess=" + spec.SessionID + " tier=" + tier)
	e.mu.Lock()
	e.jobs[j.ID] = j
	e.mu.Unlock()

	if !e.start(j, st) {
		e.releaseJob(j)
		cancel()
		e.mu.Lock()
		delete(e.jobs, j.ID)
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.metrics.jobsAdmitted.Inc()
	e.metrics.tier(tier).admitted.Inc()
	return j, nil
}

// retryAfter estimates when tier capacity frees up from the tier's admitted
// jobs: one second per admitted job per worker, capped at 30s.
func (e *Engine) retryAfter(tierActive int) time.Duration {
	d := time.Duration(1+tierActive/e.cfg.Workers) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// validate checks the job spec shape before admission — inputs that pass
// params.CheckCiphertext (an error wrapping ckks.ErrShape), known op kinds,
// resolvable references, unique IDs, droplevel targets within the session's
// [0, MaxLevel], agreeing scales where a summing op adds job inputs, an
// acyclic dependency graph — and returns the dependency
// state the scheduler will run the job from. Every name is resolved through
// one index built here, so admission is linear in the size of the DAG.
func validate(spec *JobSpec, params *ckks.Parameters) (*jobState, error) {
	if len(spec.Ops) == 0 {
		return nil, fmt.Errorf("engine: job has no ops")
	}
	index := make(map[string]int, len(spec.Inputs)+len(spec.Ops)) // name -> op position, or jobInput
	for in, ct := range spec.Inputs {
		if in == "" {
			return nil, fmt.Errorf("engine: empty input name")
		}
		if err := params.CheckCiphertext(ct); err != nil {
			return nil, fmt.Errorf("engine: input %q: %w", in, err)
		}
		index[in] = jobInput
	}
	for i := range spec.Ops {
		op := &spec.Ops[i]
		if op.ID == "" {
			return nil, fmt.Errorf("engine: op %d has no id", i)
		}
		if _, dup := index[op.ID]; dup {
			return nil, fmt.Errorf("engine: duplicate name %q", op.ID)
		}
		index[op.ID] = i
		if err := checkOp(op, params.MaxLevel()); err != nil {
			return nil, err
		}
	}
	st := &jobState{
		ops:        spec.Ops,
		waiting:    make([]int, len(spec.Ops)),
		dependents: make([][]int, len(spec.Ops)),
		uses:       make(map[string]int, len(index)),
		producer:   index,
		remaining:  len(spec.Ops),
	}
	for i := range spec.Ops {
		if err := checkInputScales(&spec.Ops[i], spec.Inputs); err != nil {
			return nil, err
		}
		for _, a := range spec.Ops[i].Args {
			src, ok := index[a]
			if !ok {
				return nil, fmt.Errorf("engine: op %q references unknown name %q", spec.Ops[i].ID, a)
			}
			st.uses[a]++
			if src != jobInput {
				st.waiting[i]++
				st.dependents[src] = append(st.dependents[src], i)
			}
		}
	}
	if len(spec.Outputs) == 0 {
		return nil, fmt.Errorf("engine: job has no outputs")
	}
	for _, o := range spec.Outputs {
		if src, ok := index[o]; !ok || src == jobInput {
			return nil, fmt.Errorf("engine: output %q is not an op id", o)
		}
		st.uses[o]++ // never counted down: a requested output outlives the DAG
	}
	// Cycle detection: Kahn's algorithm over the op-to-op edges, on a copy
	// of the in-degrees so the state stays ready to run.
	deg := append([]int(nil), st.waiting...)
	queue := make([]int, 0, len(spec.Ops))
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for seen := 0; seen < len(queue); seen++ {
		for _, dep := range st.dependents[queue[seen]] {
			if deg[dep]--; deg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(queue) != len(spec.Ops) {
		return nil, fmt.Errorf("engine: op dependency cycle")
	}
	return st, nil
}

// checkInputScales refuses a summing op (scaleChecked) whose arguments that
// are job inputs disagree in scale: a malformed request, answered at
// admission like a droplevel target outside the session's levels. Arguments
// computed by other ops are checked when the op runs.
func checkInputScales(op *OpSpec, inputs map[string]*ckks.Ciphertext) error {
	if !scaleChecked[op.Op] {
		return nil
	}
	var cts []*ckks.Ciphertext
	for _, a := range op.Args {
		if ct := inputs[a]; ct != nil {
			cts = append(cts, ct)
		}
	}
	if err := ckks.CheckScales(cts...); err != nil {
		return fmt.Errorf("engine: op %q (%s): %w", op.ID, op.Op, err)
	}
	return nil
}
