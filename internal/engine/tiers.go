package engine

import (
	"fmt"
	"time"
)

// Priority tiers and admission control.
//
// Every job belongs to a tier (latency | standard | batch). A tier's weight
// is both its share of the admission budget (tierCapacities) and its share of
// the ops workers take once the tier queues back up (tierQueues), so bulk
// traffic can run next to latency-sensitive traffic without starving it.

// Job priority tiers.
const (
	TierLatency  = "latency"
	TierStandard = "standard"
	TierBatch    = "batch"
)

// tierOrder lists tiers from highest to lowest dequeue priority.
var tierOrder = []string{TierLatency, TierStandard, TierBatch}

// tierWeights is each tier's share of admission capacity and of the workers'
// dispatches.
var tierWeights = map[string]int{TierLatency: 8, TierStandard: 4, TierBatch: 2}

// tierCapacities partitions the admission budget by tier weight. Every tier
// gets at least one slot; a saturating batch tier therefore can never
// occupy the capacity reserved for the latency tier.
func tierCapacities(maxActive int) map[string]int {
	sum := 0
	for _, t := range tierOrder {
		sum += tierWeights[t]
	}
	caps := make(map[string]int, len(tierOrder))
	for _, t := range tierOrder {
		caps[t] = max(1, maxActive*tierWeights[t]/sum)
	}
	return caps
}

// normalizeTier maps the JobSpec tier (empty = standard) onto a known tier.
func normalizeTier(t string) (string, error) {
	switch t {
	case "":
		return TierStandard, nil
	case TierLatency, TierStandard, TierBatch:
		return t, nil
	}
	return "", fmt.Errorf("engine: unknown tier %q (want latency, standard, or batch)", t)
}

// OverloadError is the typed load-shed rejection returned by Submit when
// admission control refuses a job. It unwraps to ErrBusy so existing
// errors.Is(err, ErrBusy) checks keep working, and carries the reason plus a
// retry hint derived from the tier's admitted jobs, which the HTTP layer
// surfaces as a 429 with a Retry-After header.
type OverloadError struct {
	// Tier the rejected job targeted.
	Tier string
	// Reason is one of "engine_full" (global admission limit),
	// "tier_full" (the tier's capacity share is exhausted), or
	// "tenant_limit" (the tenant's in-flight job cap).
	Reason string
	// RetryAfter estimates when capacity frees up: one second per job the
	// tier has admitted per worker, capped at 30s. A heuristic, not a promise.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded (%s, tier=%s), retry after %s", e.Reason, e.Tier, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrBusy) true for every overload rejection.
func (e *OverloadError) Unwrap() error { return ErrBusy }

// tierQueues holds the ready ops of each tier and picks the next one by
// weighted round-robin: each refill grants every tier its weight in credits,
// and tiers are drained in priority order while they have credit. A saturated
// batch tier therefore gets at most weight_batch of every sum(weights)
// dispatches once higher tiers have work. Guarded by Engine.sched; a worker
// takes its next op from here only when it is free, so the weights decide
// every dispatch.
type tierQueues struct {
	ops    map[string][]*opTask
	credit map[string]int
}

func newTierQueues() tierQueues {
	q := tierQueues{ops: make(map[string][]*opTask), credit: make(map[string]int)}
	q.refill()
	return q
}

func (q *tierQueues) refill() {
	for _, t := range tierOrder {
		q.credit[t] = tierWeights[t]
	}
}

// push appends a ready op to its job's tier queue.
func (q *tierQueues) push(t *opTask) {
	q.ops[t.job.tier] = append(q.ops[t.job.tier], t)
}

// pop removes and returns the op that should be served next, spending one of
// its tier's credits and pruning ops of terminal (failed/expired) jobs as it
// goes, or returns nil when every queue is empty.
func (q *tierQueues) pop() *opTask {
	for pass := 0; pass < 2; pass++ {
		for _, t := range tierOrder {
			if q.credit[t] <= 0 && pass == 0 {
				continue
			}
			if task := q.prunedHead(t); task != nil {
				q.ops[t][0] = nil // see prunedHead
				q.ops[t] = q.ops[t][1:]
				if q.credit[t] > 0 {
					q.credit[t]--
				}
				return task
			}
		}
		// Either no tier with credit has work, or no tier has work at all.
		// Refill credits and take strict priority order on the second pass.
		q.refill()
	}
	return nil
}

// prunedHead drops dead ops from the front of one tier queue and returns its
// live head, if any. A dropped slot is cleared: the backing array outlives
// the reslice and would keep the op's job, outputs included, reachable.
func (q *tierQueues) prunedHead(t string) *opTask {
	queue := q.ops[t]
	for len(queue) > 0 && queue[0].job.terminal() {
		queue[0] = nil
		queue = queue[1:]
	}
	q.ops[t] = queue
	if len(queue) == 0 {
		return nil
	}
	return queue[0]
}
