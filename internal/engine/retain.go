package engine

import (
	"errors"
	"strconv"
	"strings"
)

// Terminal-job retention.
//
// A finished job stays in the engine's table only so a client that has not
// fetched its result yet can still find it by ID. Taking the result ends
// that: a successful Job.Results, or a result body the HTTP handler wrote in
// full, drops the job at once (reaped as "delivered"). What nobody has taken
// is bounded two ways — Config.RetainedResultBytes over what the terminal
// jobs keep alive, Config.RetainFor over how long each stays — and both
// bounds are checked lazily, under e.mu, whenever the table is touched (a
// job finishing, a Submit, a lookup): there is no sweeper goroutine.
// Terminal jobs sit in a FIFO in finish order, so the oldest is always the
// next to go.
//
// Dropping only removes the engine's reference. A *Job handle the embedded
// caller still holds keeps answering Status, Wait and Results. Over HTTP the
// id is all a client has, so a reaped id must be told apart from one that
// was never issued: job ids come from their own counter, every "job-N" with
// N at or below it was issued, and one that is no longer in the table was
// therefore reaped — no tombstone per job.

// ErrUnknownJob is returned for a job id this engine never issued (HTTP 404).
var ErrUnknownJob = errors.New("engine: unknown job")

// ErrJobGone is returned for a job id that was issued but has since been
// delivered, reaped or forgotten (HTTP 410).
var ErrJobGone = errors.New("engine: job gone (result fetched, retention expired or released)")

// retainedJobOverhead is charged per retained job on top of its output
// bytes: the handle, its context, span and error. It makes a flood of failed
// jobs (no outputs) count against the byte budget instead of only the TTL.
const retainedJobOverhead = 1 << 10

// retain moves a job that just finished into the retained FIFO and reaps
// whatever that pushes over the bounds. A job already forgotten or delivered
// (its results can be taken before this runs) stays out of it.
func (e *Engine) retain(j *Job, outputBytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobs[j.ID] != j {
		return
	}
	j.cost = outputBytes + retainedJobOverhead
	j.finishedAt = e.now()
	j.retained = e.retained.PushBack(j)
	e.retainedBytes += j.cost
	e.reapLocked()
}

// reapLocked drops terminal jobs from the front of the FIFO while the oldest
// has outlived RetainFor or the retained bytes exceed the budget (the newest
// terminal job is never reaped for bytes). e.mu must be held.
func (e *Engine) reapLocked() {
	now := e.now()
	for front := e.retained.Front(); front != nil; front = e.retained.Front() {
		j := front.Value.(*Job)
		var reason string
		switch {
		case now.Sub(j.finishedAt) >= e.cfg.RetainFor:
			reason = "ttl"
		case e.retainedBytes > e.cfg.RetainedResultBytes && e.retained.Len() > 1:
			reason = "budget"
		default:
			return
		}
		e.dropLocked(j, reason)
	}
}

// dropLocked removes a job from the table (and the FIFO, if it is in it).
func (e *Engine) dropLocked(j *Job, reason string) {
	delete(e.jobs, j.ID)
	if j.retained != nil {
		e.retained.Remove(j.retained)
		j.retained = nil
		e.retainedBytes -= j.cost
	}
	e.metrics.reapedBy[reason].Inc()
}

// deliver drops a job whose results were handed over; a job no longer in
// the table (delivered before, reaped, forgotten) is left alone.
func (e *Engine) deliver(j *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobs[j.ID] == j {
		e.dropLocked(j, "delivered")
	}
}

// lookupLocked resolves a job id: the job, ErrJobGone for an id that was
// issued and is no longer held, ErrUnknownJob otherwise.
func (e *Engine) lookupLocked(id string) (*Job, error) {
	e.reapLocked()
	if j, ok := e.jobs[id]; ok {
		return j, nil
	}
	if num, ok := strings.CutPrefix(id, "job-"); ok {
		n, err := strconv.ParseUint(num, 10, 64)
		if err == nil && n >= 1 && n <= e.jobSeq.Load() && num == strconv.FormatUint(n, 10) {
			return nil, ErrJobGone
		}
	}
	return nil, ErrUnknownJob
}

// Job returns a submitted job by ID, ErrJobGone if the engine no longer
// holds it (its results taken, reaped by the retention bounds, or
// forgotten), or ErrUnknownJob if the id was never issued.
func (e *Engine) Job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lookupLocked(id)
}

// Forget releases a job the client is done with instead of waiting for the
// retention bounds to reap it: a terminal job leaves the table at once, a
// running one is cancelled first (it fails with context.Canceled and is not
// retained). Errors are those of Job. A handle the caller still holds
// keeps working.
func (e *Engine) Forget(id string) error {
	e.mu.Lock()
	j, err := e.lookupLocked(id)
	if err == nil {
		e.dropLocked(j, "deleted")
	}
	e.mu.Unlock()
	if err == nil {
		j.cancel() // no-op for a terminal job
	}
	return err
}
