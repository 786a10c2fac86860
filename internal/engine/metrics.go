package engine

import (
	"sync"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// engineMetrics is the scheduler's view into the observability registry:
// job lifecycle counters, worker-pool occupancy, and per-op-kind queue-wait
// and execution histograms.
type engineMetrics struct {
	reg *obs.Registry

	jobsAdmitted  *obs.Counter
	jobsRejected  *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsExpired   *obs.Counter
	jobsCancelled *obs.Counter
	workersBusy   *obs.Gauge

	opsExpired      *obs.Counter            // ops skipped because their job expired before they ran
	sessionsEvicted *obs.Counter            // sessions dropped by the key cache for space
	valuesReleased  *obs.Counter            // job values dropped at their last use
	abortEvents     *obs.Counter            // deadline/cancel aborts that ran (zero for jobs that finish first)
	reapedBy        map[string]*obs.Counter // jobs removed from the table, by reason

	mu      sync.Mutex
	perOp   map[string]*opMetrics
	perTier map[string]*tierMetrics
}

// tierMetrics is one priority tier's admission instrument set.
type tierMetrics struct {
	admitted *obs.Counter
	rejected *obs.Counter
}

// opMetrics is one op kind's instrument set.
type opMetrics struct {
	total     *obs.Counter
	failures  *obs.Counter
	queueWait *obs.Histogram
	exec      *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		reg:           reg,
		jobsAdmitted:  reg.Counter("engine_jobs_admitted_total"),
		jobsRejected:  reg.Counter("engine_jobs_rejected_total"),
		jobsDone:      reg.Counter("engine_jobs_done_total"),
		jobsFailed:    reg.Counter("engine_jobs_failed_total"),
		jobsExpired:   reg.Counter("engine_jobs_expired_total"),
		jobsCancelled: reg.Counter("engine_jobs_cancelled_total"),
		workersBusy:   reg.Gauge("engine_workers_busy"),

		opsExpired:      reg.Counter("engine_ops_expired_total"),
		sessionsEvicted: reg.Counter("engine_sessions_evicted_total"),
		valuesReleased:  reg.Counter("engine_values_released_total"),
		abortEvents:     reg.Counter("engine_job_abort_events_total"),
		reapedBy: map[string]*obs.Counter{
			"budget":    reg.Counter(`engine_jobs_reaped_total{reason="budget"}`),
			"ttl":       reg.Counter(`engine_jobs_reaped_total{reason="ttl"}`),
			"deleted":   reg.Counter(`engine_jobs_reaped_total{reason="deleted"}`),
			"delivered": reg.Counter(`engine_jobs_reaped_total{reason="delivered"}`),
		},

		perOp:   make(map[string]*opMetrics),
		perTier: make(map[string]*tierMetrics),
	}
}

// tier returns (creating on first use) the instrument set for one tier.
func (m *engineMetrics) tier(name string) *tierMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	tm, ok := m.perTier[name]
	if !ok {
		label := `{tier="` + name + `"}`
		tm = &tierMetrics{
			admitted: m.reg.Counter("engine_tier_jobs_admitted_total" + label),
			rejected: m.reg.Counter("engine_tier_jobs_rejected_total" + label),
		}
		m.perTier[name] = tm
	}
	return tm
}

// op returns (creating on first use) the instrument set for one op kind.
func (m *engineMetrics) op(kind string) *opMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	om, ok := m.perOp[kind]
	if !ok {
		label := `{op="` + kind + `"}`
		om = &opMetrics{
			total:     m.reg.Counter("engine_ops_total" + label),
			failures:  m.reg.Counter("engine_op_failures_total" + label),
			queueWait: m.reg.Histogram("engine_op_queue_wait_seconds" + label),
			exec:      m.reg.Histogram("engine_op_exec_seconds" + label),
		}
		m.perOp[kind] = om
	}
	return om
}

// finished classifies one terminal job into exactly one lifecycle counter.
func (m *engineMetrics) finished(err error, expired, cancelled bool) {
	switch {
	case err == nil:
		m.jobsDone.Inc()
	case expired:
		m.jobsExpired.Inc()
	case cancelled:
		m.jobsCancelled.Inc()
	default:
		m.jobsFailed.Inc()
	}
}
