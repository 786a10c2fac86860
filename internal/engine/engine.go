// Package engine is the concurrent FHE serving runtime that sits between
// the public facade and the ckks evaluator. It owns four things:
//
//   - a session cache: per-tenant CKKS contexts (compiled parameters +
//     uploaded evaluation keys + evaluator) held in a sharded, size-bounded
//     LRU (internal/keycache) with byte accounting, singleflight
//     rematerialization, and pinning for in-flight jobs — evaluation-key
//     sets are by far the largest per-tenant object, so the session store
//     behaves like a cache, not a map;
//
//   - a job scheduler: clients submit encrypted-compute jobs — DAGs of
//     homomorphic ops over named ciphertext handles — and the scheduler
//     tracks dependencies, dispatching each op as soon as its inputs exist;
//
//   - cross-session batch dispatch: ready ops from different tenants that
//     share a kernel class (op family × ring degree × level) are staged for
//     a short window and dispatched to the worker pool as one group — the
//     Go-worker-pool analog of the paper's Alg 1 / PolyGroups amortization
//     (see batch.go);
//
//   - admission control: weighted priority tiers (latency | standard |
//     batch) with per-tier capacity shares and per-tenant in-flight limits,
//     shedding load with typed OverloadErrors that the HTTP layer maps to
//     429 + Retry-After.
//
// The layering mirrors how the Cheddar GPU library (the substrate of the
// Anaheim paper) gets its throughput: streams and kernel queues above the
// math kernels, buffer reuse below them (the ring-level poly pool).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/anaheim-sim/anaheim/internal/keycache"
	"github.com/anaheim-sim/anaheim/internal/obs"
	"github.com/anaheim-sim/anaheim/internal/par"
)

// Config sizes the runtime.
type Config struct {
	// Workers is the number of op-executing goroutines. Defaults to
	// GOMAXPROCS.
	Workers int
	// QueueSize bounds the ready-op queue between scheduler and workers.
	// Defaults to 4×Workers.
	QueueSize int
	// MaxActiveJobs bounds admitted (queued or running) jobs; Submit fails
	// fast with an OverloadError beyond it. Defaults to 64.
	MaxActiveJobs int
	// MaxJobsPerTenant bounds one tenant's admitted jobs so a single
	// session cannot consume the whole admission budget. Defaults to 16.
	MaxJobsPerTenant int
	// TierWeights sets each tier's share of admission capacity and of the
	// ready-queue dispatch bandwidth. Defaults to latency 8, standard 4,
	// batch 2. Unknown tiers in the map are ignored.
	TierWeights map[string]int
	// BatchWindow enables cross-session batch dispatch: ready ops of the
	// same kernel class are staged up to this long (or until MaxBatch) and
	// dispatched as one group. 0 disables batching. Latency-tier ops are
	// never staged.
	BatchWindow time.Duration
	// MaxBatch caps the ops in one batched dispatch group. Defaults to 8.
	MaxBatch int
	// SessionCacheBytes bounds the resident evaluation-key bytes across all
	// sessions; least-recently-used sessions are evicted beyond it (pinned
	// sessions of in-flight jobs are never evicted). Defaults to 1 GiB.
	SessionCacheBytes int64
	// SessionCacheShards is the session cache's shard count. Defaults to 8.
	SessionCacheShards int
	// SessionLoader rematerializes an evicted session from durable storage
	// (or regenerates it). Concurrent requests for the same evicted session
	// coalesce onto one load. Nil means evicted sessions are gone and
	// Submit returns an unknown-session error.
	SessionLoader func(id string) (*Session, error)
	// DefaultDeadline applies to jobs that do not set one. Defaults to 2
	// minutes.
	DefaultDeadline time.Duration
	// MaxBodyBytes caps HTTP request bodies accepted by NewHTTPHandler;
	// oversized POSTs get 413 instead of OOMing the server. Defaults to
	// 64 MiB (evaluation-key uploads are the largest legitimate payloads).
	MaxBodyBytes int64
	// DisableFusion turns off the admission-time op-DAG rewrite (add-ladder
	// and linear-combination folding); jobs then execute exactly the ops
	// they were submitted with.
	DisableFusion bool
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
	if c.QueueSize <= 0 {
		c.QueueSize = 4 * c.Workers
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 64
	}
	if c.MaxJobsPerTenant <= 0 {
		c.MaxJobsPerTenant = 16
	}
	if c.TierWeights == nil {
		c.TierWeights = map[string]int{TierLatency: 8, TierStandard: 4, TierBatch: 2}
	}
	for _, t := range tierOrder {
		if c.TierWeights[t] <= 0 {
			c.TierWeights[t] = 1
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.SessionCacheBytes <= 0 {
		c.SessionCacheBytes = 1 << 30
	}
	if c.SessionCacheShards <= 0 {
		c.SessionCacheShards = 8
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
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

	mu           sync.Mutex
	closed       bool
	jobs         map[string]*Job
	tierActive   map[string]int // admitted jobs per tier
	tenantActive map[string]int // admitted jobs per tenant (session ID)

	tierCaps  map[string]int // per-tier admission capacity (weight shares)
	tierDepth map[string]*atomic.Int64

	active atomic.Int64 // admitted (queued or running) jobs
	seq    atomic.Uint64

	metrics *engineMetrics
	tracer  *obs.Tracer

	events chan event
	ready  chan *dispatchGroup
	wg     sync.WaitGroup
}

type eventKind int

const (
	evSubmit eventKind = iota
	evOpDone
	evJobAbort
)

type event struct {
	kind   eventKind
	job    *Job
	task   *opTask
	result *result
	err    error
}

type opTask struct {
	job     *Job
	op      *OpSpec
	readyAt time.Time // when the op's dependencies were met (queue-wait origin)
}

// tierCapacities partitions the admission budget by tier weight. Every tier
// gets at least one slot; a saturating batch tier therefore can never
// occupy the capacity reserved for the latency tier.
func tierCapacities(maxActive int, weights map[string]int) map[string]int {
	sum := 0
	for _, t := range tierOrder {
		sum += weights[t]
	}
	caps := make(map[string]int, len(tierOrder))
	for _, t := range tierOrder {
		c := maxActive * weights[t] / sum
		if c < 1 {
			c = 1
		}
		caps[t] = c
	}
	return caps
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
		tierActive:   make(map[string]int),
		tenantActive: make(map[string]int),
		tierCaps:     tierCapacities(cfg.MaxActiveJobs, cfg.TierWeights),
		tierDepth:    make(map[string]*atomic.Int64),
		metrics:      newEngineMetrics(cfg.Obs),
		tracer:       cfg.Tracer,
		events:       make(chan event),
		ready:        make(chan *dispatchGroup, cfg.QueueSize),
	}
	e.sessions = keycache.New[*Session](keycache.Config{
		Shards:      cfg.SessionCacheShards,
		BudgetBytes: cfg.SessionCacheBytes,
		Name:        "sessions",
		Obs:         cfg.Obs,
	}, func(_ string, s *Session) { e.metrics.sessionsEvicted.Inc() })
	// Sampled-at-scrape gauges; when several engines share a registry the
	// most recently started one wins, which is what a serving process wants.
	cfg.Obs.GaugeFunc("engine_active_jobs", func() float64 { return float64(e.active.Load()) })
	cfg.Obs.GaugeFunc("engine_ready_queue_depth", func() float64 { return float64(len(e.ready)) })
	cfg.Obs.GaugeFunc("engine_sessions_live", func() float64 { return float64(e.sessions.Len()) })
	cfg.Obs.GaugeFunc("engine_evalkey_resident_bytes", func() float64 { return float64(e.sessions.Bytes()) })
	for _, t := range tierOrder {
		t := t
		d := &atomic.Int64{}
		e.tierDepth[t] = d
		cfg.Obs.GaugeFunc(fmt.Sprintf(`engine_tier_queue_depth{tier="%s"}`, t),
			func() float64 { return float64(d.Load()) })
		cfg.Obs.GaugeFunc(fmt.Sprintf(`engine_tier_active_jobs{tier="%s"}`, t),
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(e.tierActive[t])
			})
	}
	e.wg.Add(1)
	go e.dispatch()
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
	e.wg.Wait()
	e.sessions.Clear(func(_ string, s *Session) { s.release() })
}

func (e *Engine) newID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, e.seq.Add(1))
}

// ---------------------------------------------------------------------------
// Workers

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.ctx.Done():
			return
		case g := <-e.ready:
			if len(g.tasks) == 1 {
				e.runSingle(g.tasks[0])
			} else {
				e.runBatch(g)
			}
		}
	}
}

// runSingle executes an unbatched op and reports its completion.
func (e *Engine) runSingle(t *opTask) {
	e.metrics.workersBusy.Add(1)
	res, err := e.runTask(t, t.job.spanID())
	e.metrics.workersBusy.Add(-1)
	e.postDone(t, res, err)
}

// runBatch executes a fused dispatch group: the members fan out over the
// shared par pool together (one wide dispatch instead of len(tasks) narrow
// ones), sharing the batch span and a single scheduler round-trip. Per-op
// metrics still tick individually.
func (e *Engine) runBatch(g *dispatchGroup) {
	n := len(g.tasks)
	e.metrics.batchesDispatched.Inc()
	e.metrics.batchedOps.Add(float64(n))
	e.metrics.batchOccupancy.Observe(float64(n))
	sp := e.tracer.Start("batch:"+g.class, 0)
	sp.Annotate(fmt.Sprintf("class=%s ops=%d", g.class, n))
	e.metrics.workersBusy.Add(1)
	results := make([]*result, n)
	errs := make([]error, n)
	par.ForEach(n, func(i int) {
		results[i], errs[i] = e.runTask(g.tasks[i], sp.ID())
	})
	e.metrics.workersBusy.Add(-1)
	sp.End()
	for i, t := range g.tasks {
		if !e.postDone(t, results[i], errs[i]) {
			return
		}
	}
}

// runTask runs one op with its per-op instrumentation. Ops of jobs that
// already expired or aborted are skipped without touching the evaluator
// (counted under engine_ops_expired_total).
func (e *Engine) runTask(t *opTask, parentSpan uint64) (*result, error) {
	if err := t.job.ctx.Err(); err != nil {
		e.metrics.opsExpired.Inc()
		return nil, err
	}
	m := e.metrics.op(t.op.Op)
	m.queueWait.Observe(time.Since(t.readyAt).Seconds())
	sp := e.tracer.Start("op:"+t.op.Op, parentSpan)
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

// postDone reports one op completion to the dispatcher; false means the
// engine is shutting down.
func (e *Engine) postDone(t *opTask, res *result, err error) bool {
	select {
	case e.events <- event{kind: evOpDone, job: t.job, task: t, result: res, err: err}:
		return true
	case <-e.ctx.Done():
		return false
	}
}

// executeTask runs one op, converting evaluator panics (scale mismatches,
// level exhaustion) into job failures rather than process crashes.
func (e *Engine) executeTask(t *opTask) (res *result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op %q (%s): panic: %v", t.op.ID, t.op.Op, r)
		}
	}()
	if err := t.job.ctx.Err(); err != nil {
		return nil, err
	}
	return t.job.sess.apply(t.job, t.op)
}

// ---------------------------------------------------------------------------
// Scheduler

// jobState is dispatcher-private dependency bookkeeping for one job.
type jobState struct {
	waiting    map[string]int      // opID -> unmet dependency count
	dependents map[string][]string // opID -> ops unblocked by it
	byID       map[string]*OpSpec
	remaining  int
}

func (e *Engine) dispatch() {
	defer e.wg.Done()
	states := make(map[*Job]*jobState)
	queues := newTierQueues(e.cfg.TierWeights, e.tierDepth)
	staged := newStaging(e.cfg.BatchWindow, e.cfg.MaxBatch)
	flushTimer := time.NewTimer(time.Hour)
	defer flushTimer.Stop()

	enqueueReady := func(j *Job, st *jobState, opID string) {
		t := &opTask{job: j, op: st.byID[opID], readyAt: time.Now()}
		e.tierDepth[j.tier].Add(1)
		if e.cfg.BatchWindow > 0 {
			if class, ok := e.batchClass(j, t.op); ok {
				if g := staged.add(class, j.tier, t, t.readyAt); g != nil {
					queues.push(g) // batch filled before its window expired
				}
				return
			}
		}
		queues.push(&dispatchGroup{tasks: []*opTask{t}, tier: j.tier})
	}

	handle := func(ev event) {
		j := ev.job
		switch ev.kind {
		case evSubmit:
			st := newJobState(&j.spec)
			states[j] = st
			j.setStatus(StatusRunning, nil)
			for _, op := range j.spec.Ops {
				if st.waiting[op.ID] == 0 {
					enqueueReady(j, st, op.ID)
				}
			}
		case evOpDone:
			st := states[j]
			if st == nil {
				return // job already finished (failed or aborted)
			}
			if ev.err != nil {
				e.finishJob(j, states, fmt.Errorf("op %q: %w", ev.task.op.ID, ev.err))
				return
			}
			j.storeResult(ev.task.op.ID, ev.result)
			st.remaining--
			for _, dep := range st.dependents[ev.task.op.ID] {
				st.waiting[dep]--
				if st.waiting[dep] == 0 {
					enqueueReady(j, st, dep)
				}
			}
			if st.remaining == 0 {
				e.finishJob(j, states, nil)
			}
		case evJobAbort:
			if states[j] != nil {
				e.finishJob(j, states, j.ctx.Err())
			}
		}
	}

	for {
		// Arm the flush timer to the earliest staged-batch deadline.
		if !flushTimer.Stop() {
			select {
			case <-flushTimer.C:
			default:
			}
		}
		var timerCh <-chan time.Time
		if due, ok := staged.earliest(); ok {
			flushTimer.Reset(time.Until(due))
			timerCh = flushTimer.C
		}

		var readyCh chan *dispatchGroup
		tier, head, ok := queues.head()
		if ok {
			readyCh = e.ready
		}

		select {
		case <-e.ctx.Done():
			// Fail whatever is still tracked so waiters wake up.
			for j := range states {
				j.setStatus(StatusFailed, context.Canceled)
				j.cancel()
				e.releaseJob(j)
				e.metrics.jobsCancelled.Inc()
			}
			return
		case ev := <-e.events:
			handle(ev)
		case <-timerCh:
			for _, g := range staged.due(time.Now()) {
				queues.push(g)
			}
		case readyCh <- head:
			queues.pop(tier, head)
		}
	}
}

// finishJob transitions a job to its terminal state and releases its
// admission slot, tier/tenant accounting, and session pin.
func (e *Engine) finishJob(j *Job, states map[*Job]*jobState, err error) {
	delete(states, j)
	if err != nil {
		j.setStatus(StatusFailed, err)
	} else {
		j.setStatus(StatusDone, nil)
	}
	j.cancel()
	e.releaseJob(j)
	e.metrics.finished(err,
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled))
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
	e.sessions.Unpin(j.spec.SessionID)
	e.active.Add(-1)
}

// newJobState builds the dependency graph (validated at Submit).
func newJobState(spec *JobSpec) *jobState {
	st := &jobState{
		waiting:    make(map[string]int),
		dependents: make(map[string][]string),
		byID:       make(map[string]*OpSpec),
		remaining:  len(spec.Ops),
	}
	for i := range spec.Ops {
		op := &spec.Ops[i]
		st.byID[op.ID] = op
		for _, a := range op.Args {
			if _, isOp := opArg(spec, a); isOp {
				st.waiting[op.ID]++
				st.dependents[a] = append(st.dependents[a], op.ID)
			}
		}
	}
	return st
}

// opArg reports whether an argument name refers to an op (vs an input).
func opArg(spec *JobSpec, name string) (*OpSpec, bool) {
	for i := range spec.Ops {
		if spec.Ops[i].ID == name {
			return &spec.Ops[i], true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Submission

// Submit validates and admits a job. Admission control is three-layered —
// global MaxActiveJobs, the tier's capacity share, and the tenant's
// in-flight cap — and rejections are typed OverloadErrors (wrapping ErrBusy)
// carrying the reason and a Retry-After hint, giving HTTP clients an
// explicit backpressure signal instead of unbounded queueing.
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
	e.mu.Unlock()
	// Resolve and pin the session before admission so a concurrent eviction
	// cannot drop its keys between validation and execution.
	sess, err := e.acquireSession(spec.SessionID)
	if err != nil {
		return nil, err
	}
	unpin := func() { e.sessions.Unpin(spec.SessionID) }
	if err := validate(&spec); err != nil {
		unpin()
		return nil, err
	}
	if !e.cfg.DisableFusion {
		e.applyFusion(&spec)
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
	case e.active.Load() >= int64(e.cfg.MaxActiveJobs):
		reason = "engine_full"
	case e.tierActive[tier] >= e.tierCaps[tier]:
		reason = "tier_full"
	case e.tenantActive[spec.SessionID] >= e.cfg.MaxJobsPerTenant:
		reason = "tenant_limit"
	}
	if reason != "" {
		depth := e.tierActive[tier]
		e.mu.Unlock()
		unpin()
		e.metrics.jobsRejected.Inc()
		e.metrics.tier(tier).rejected.Inc()
		return nil, &OverloadError{Tier: tier, Reason: reason, RetryAfter: e.retryAfter(depth)}
	}
	e.tierActive[tier]++
	e.tenantActive[spec.SessionID]++
	e.active.Add(1)
	e.mu.Unlock()

	deadline := spec.Deadline
	if deadline <= 0 {
		deadline = e.cfg.DefaultDeadline
	}
	ctx, cancel := context.WithTimeout(e.ctx, deadline)
	j := &Job{
		ID:      e.newID("job"),
		sess:    sess,
		spec:    spec,
		tier:    tier,
		tenant:  spec.SessionID,
		ctx:     ctx,
		cancel:  cancel,
		status:  StatusQueued,
		results: make(map[string]*result, len(spec.Ops)),
		done:    make(chan struct{}),
	}
	j.span = e.tracer.Start("job", 0)
	j.span.Annotate("id=" + j.ID + " sess=" + spec.SessionID + " tier=" + tier)
	e.mu.Lock()
	e.jobs[j.ID] = j
	e.mu.Unlock()

	// Deadline/cancellation watcher: wakes the dispatcher so jobs whose
	// remaining ops never reach a worker (e.g. expired while queued) still
	// terminate.
	go func() {
		<-ctx.Done()
		select {
		case e.events <- event{kind: evJobAbort, job: j}:
		case <-e.ctx.Done():
		}
	}()

	select {
	case e.events <- event{kind: evSubmit, job: j}:
	case <-e.ctx.Done():
		e.releaseJob(j)
		cancel()
		return nil, ErrClosed
	}
	e.metrics.jobsAdmitted.Inc()
	e.metrics.tier(tier).admitted.Inc()
	return j, nil
}

// retryAfter estimates when tier capacity frees up from its queue depth:
// one second per queued job ahead per worker, capped at 30s.
func (e *Engine) retryAfter(tierDepth int) time.Duration {
	d := time.Duration(1+tierDepth/e.cfg.Workers) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Job returns a submitted job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// validate checks the job spec shape before admission: known op kinds,
// resolvable references, unique IDs, and an acyclic dependency graph.
func validate(spec *JobSpec) error {
	if len(spec.Ops) == 0 {
		return fmt.Errorf("engine: job has no ops")
	}
	names := make(map[string]bool, len(spec.Inputs)+len(spec.Ops))
	for in := range spec.Inputs {
		if in == "" {
			return fmt.Errorf("engine: empty input name")
		}
		names[in] = true
	}
	for i := range spec.Ops {
		op := &spec.Ops[i]
		if op.ID == "" {
			return fmt.Errorf("engine: op %d has no id", i)
		}
		if names[op.ID] {
			return fmt.Errorf("engine: duplicate name %q", op.ID)
		}
		names[op.ID] = true
		if err := checkOp(op); err != nil {
			return err
		}
	}
	for i := range spec.Ops {
		for _, a := range spec.Ops[i].Args {
			if !names[a] {
				return fmt.Errorf("engine: op %q references unknown name %q", spec.Ops[i].ID, a)
			}
		}
	}
	if len(spec.Outputs) == 0 {
		return fmt.Errorf("engine: job has no outputs")
	}
	for _, o := range spec.Outputs {
		if _, isOp := opArg(spec, o); !isOp {
			return fmt.Errorf("engine: output %q is not an op id", o)
		}
	}
	// Cycle detection: Kahn's algorithm over the op-to-op edges.
	st := newJobState(spec)
	queue := make([]string, 0, len(spec.Ops))
	for _, op := range spec.Ops {
		if st.waiting[op.ID] == 0 {
			queue = append(queue, op.ID)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, dep := range st.dependents[id] {
			st.waiting[dep]--
			if st.waiting[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if seen != len(spec.Ops) {
		return fmt.Errorf("engine: op dependency cycle")
	}
	return nil
}
