package engine

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// OpSpec is one node of a job's op DAG. Args name either job inputs or
// other ops; an op becomes runnable when every op it references has
// produced its result.
type OpSpec struct {
	ID   string    `json:"id"`
	Op   string    `json:"op"`             // add|sub|mul|square|rotate|conjugate|addconst|mulconst|rescale|droplevel|lintrans|bootstrap|lincomb
	Args []string  `json:"args"`           // input names or op ids
	K    int       `json:"k,omitempty"`    // rotation amount / target level
	Val  float64   `json:"val,omitempty"`  // constant for addconst/mulconst
	Vals []float64 `json:"vals,omitempty"` // per-arg constants for lincomb
	Name string    `json:"name,omitempty"` // registered linear-transform name
}

// arity of each op kind (number of ciphertext arguments); the variadic
// lincomb uses -1 and accepts two or more.
var opArity = map[string]int{
	"add": 2, "sub": 2, "mul": 2,
	"square": 1, "rotate": 1, "conjugate": 1,
	"addconst": 1, "mulconst": 1,
	"rescale": 1, "droplevel": 1,
	"lintrans": 1, "bootstrap": 1,
	"lincomb": -1,
}

// scaleChecked lists the op kinds that sum their arguments, whose scales must
// agree (ckks.CheckScales): checked at admission where the arguments are job
// inputs, and again before the evaluator runs where they are not.
var scaleChecked = map[string]bool{"add": true, "sub": true, "lincomb": true}

func checkOp(op *OpSpec, maxLevel int) error {
	want, ok := opArity[op.Op]
	if !ok {
		return fmt.Errorf("engine: op %q: unknown kind %q", op.ID, op.Op)
	}
	if want < 0 {
		if len(op.Args) < 2 {
			return fmt.Errorf("engine: op %q (%s): want at least 2 args, got %d", op.ID, op.Op, len(op.Args))
		}
	} else if len(op.Args) != want {
		return fmt.Errorf("engine: op %q (%s): want %d args, got %d", op.ID, op.Op, want, len(op.Args))
	}
	if op.Op == "lincomb" && len(op.Vals) != len(op.Args) {
		return fmt.Errorf("engine: op %q: lincomb wants one constant per arg, got %d for %d args",
			op.ID, len(op.Vals), len(op.Args))
	}
	// A target outside every level of the session is a malformed request,
	// answered at admission rather than by a failed job.
	if op.Op == "droplevel" && (op.K < 0 || op.K > maxLevel) {
		return fmt.Errorf("engine: op %q: droplevel target %d outside [0, %d]: %w", op.ID, op.K, maxLevel, ckks.ErrLevel)
	}
	if op.Op == "lintrans" && op.Name == "" {
		return fmt.Errorf("engine: op %q: lintrans needs a transform name", op.ID)
	}
	// A NaN or infinite constant has no fixed-point encoding; the evaluator
	// would panic on it inside a worker.
	for _, v := range append([]float64{op.Val}, op.Vals...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("engine: op %q (%s): constant %v is not finite", op.ID, op.Op, v)
		}
	}
	return nil
}

// JobSpec describes an encrypted-compute job: named input ciphertexts, an
// op DAG over them, and which op results to return.
type JobSpec struct {
	SessionID string
	Inputs    map[string]*ckks.Ciphertext
	Ops       []OpSpec
	Outputs   []string
	// Deadline bounds the job's wall-clock time from admission; 0 uses the
	// engine default.
	Deadline time.Duration
	// Tier is the priority tier ("latency", "standard", "batch"); empty
	// means standard. The tier sets the job's admission share and the order
	// its ready ops dequeue in: latency first, batch last (weights 8 / 4 / 2).
	Tier string
}

// Status is a job lifecycle state.
type Status string

// Job lifecycle: Queued -> Running -> Done | Failed.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is an admitted job handle. It owns a reference to every value of the
// job that something still has to read — an input or intermediate until its
// last consuming op finished, a requested output for as long as the handle
// lives — and to nothing else: the op DAG and the use counts belong to the
// scheduler and die when the job finishes. The engine's table holds a done
// job only until its results are taken (Results, or the HTTP result fetch);
// a handle keeps answering Status, Wait and Results after the engine has
// let go of the job.
type Job struct {
	ID string

	eng     *Engine
	sess    *Session
	outputs []string // requested op ids
	tier    string   // normalized priority tier
	tenant  string   // session ID: admission accounting and the session pin
	ctx     context.Context
	cancel  context.CancelFunc
	span    *obs.Span // root span; op spans are its children

	mu       sync.Mutex
	status   Status
	err      error
	values   map[string]*ckks.Ciphertext // live values by name (inputs and op results)
	peakLive int                         // widest len(values) the job reached
	done     chan struct{}

	// Retention bookkeeping, guarded by Engine.mu (see retain.go).
	retained   *list.Element // position in Engine.retained once terminal
	cost       int64         // bytes charged against Config.RetainedResultBytes
	finishedAt time.Time
}

// Status returns the lifecycle state and, for failed jobs, the error.
func (j *Job) Status() (Status, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.err
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.mu.Unlock()
}

// finish moves the job to its terminal state: a done job holds exactly its
// requested outputs by now, a failed one drops every value it still
// referenced. It returns the coefficient bytes the terminal job keeps alive.
// Waiters are woken separately (finishJob closes done last).
func (j *Job) finish(err error) (outputBytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.status, j.err, j.values = StatusFailed, err, nil
	} else {
		j.status = StatusDone
	}
	for _, ct := range j.values {
		outputBytes += ct.CoeffBytes()
	}
	j.span.Annotate(fmt.Sprintf("id=%s status=%s peak_live=%d", j.ID, j.status, j.peakLive))
	j.span.End()
	return outputBytes
}

// spanID returns the job's root span ID for parenting op spans.
func (j *Job) spanID() uint64 { return j.span.ID() }

// expired is the job context's error, or DeadlineExceeded once the deadline
// has passed even if the context's timer has not fired yet: that timer runs
// only when the scheduler does, and on a busy P the worker reaches the next
// op first.
func (j *Job) expired() error {
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if d, ok := j.ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed
}

// store records an op result some later op or the client will read.
func (j *Job) store(name string, ct *ckks.Ciphertext) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.values[name] = ct
	if n := len(j.values); n > j.peakLive {
		j.peakLive = n
	}
}

// release drops the job's reference to a value after its last use. A value
// an op of this job computed belongs to the job alone and goes back to the
// session's ring pool; an input stays caller-owned (one may be shared across
// jobs) and is left alone. A failed job never gets here: it drops everything
// to the collector, because one of its ops may still be reading.
func (j *Job) release(name string, computed bool) {
	j.mu.Lock()
	ct := j.values[name]
	delete(j.values, name)
	j.mu.Unlock()
	if computed {
		j.sess.Eval.Release(ct)
	}
}

// arg resolves a name to a live ciphertext (input or prior op result).
func (j *Job) arg(name string) (*ckks.Ciphertext, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ct, ok := j.values[name]; ok {
		return ct, nil
	}
	return nil, fmt.Errorf("engine: argument %q not materialized", name)
}

// Wait blocks until the job reaches a terminal state (returning its error,
// if any) or ctx expires. Every admitted job terminates: its last op or its
// first failure finishes it, deadline expiry and cancellation abort it, and
// engine shutdown fails all tracked jobs.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		_, err := j.Status()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Results returns the requested output ciphertexts of a Done job and hands
// them to the caller: the engine drops the job from its table, so a lookup
// by ID answers ErrJobGone from then on. The handle keeps answering.
func (j *Job) Results() (map[string]*ckks.Ciphertext, error) {
	out, err := j.results()
	if err == nil {
		j.eng.deliver(j)
	}
	return out, err
}

// results reads the outputs of a Done job without delivering it.
func (j *Job) results() (map[string]*ckks.Ciphertext, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return nil, fmt.Errorf("engine: job %s is %s, not done", j.ID, j.status)
	}
	out := make(map[string]*ckks.Ciphertext, len(j.outputs))
	for _, o := range j.outputs {
		ct, ok := j.values[o]
		if !ok {
			return nil, fmt.Errorf("engine: output %q missing", o)
		}
		out[o] = ct
	}
	return out, nil
}
