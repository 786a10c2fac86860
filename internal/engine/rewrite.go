package engine

import (
	"github.com/anaheim-sim/anaheim/internal/fusion"
)

// applyFusion rewrites an already-validated job spec through the op-DAG
// fusion passes: ADD ladders collapse into one variadic "addn" and sums of
// single-use constant multiplies into one "lincomb", both of which the
// evaluator executes with single-pass fused ring kernels. Requested outputs
// are protected, so every result a client asked for keeps its identity.
//
// The rewritten spec is re-validated before it replaces the original; if the
// rewrite ever produces an invalid graph the job falls back to its submitted
// form (counted, never fatal) — fusion is an optimization, not a gate. It
// returns the rewritten spec's dependency state, or nil when the spec is
// unchanged.
func (e *Engine) applyFusion(spec *JobSpec) *jobState {
	protected := make(map[string]bool, len(spec.Outputs))
	for _, o := range spec.Outputs {
		protected[o] = true
	}
	ops := make([]fusion.Op, len(spec.Ops))
	for i, op := range spec.Ops {
		ops[i] = fusion.Op{
			ID: op.ID, Kind: op.Op, Args: op.Args,
			K: op.K, Val: op.Val, Vals: op.Vals, Name: op.Name,
		}
	}
	rewritten, stats := fusion.RewriteDAG(ops, protected)
	fused := 0
	for _, s := range stats {
		fused += s.Fused
	}
	if fused == 0 {
		return nil
	}
	out := make([]OpSpec, len(rewritten))
	for i, op := range rewritten {
		out[i] = OpSpec{
			ID: op.ID, Op: op.Kind, Args: op.Args,
			K: op.K, Val: op.Val, Vals: op.Vals, Name: op.Name,
		}
	}
	candidate := *spec
	candidate.Ops = out
	st, err := validate(&candidate)
	if err != nil {
		e.metrics.fusionFallbacks.Inc()
		return nil
	}
	spec.Ops = out
	e.metrics.fusionOpsFused.Add(float64(fused))
	return st
}
