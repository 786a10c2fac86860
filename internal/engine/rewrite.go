package engine

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
	out, fused := rewriteDAG(spec.Ops, protected)
	if fused == 0 {
		return nil
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

// rewriteDAG applies the op-DAG fusion passes in order: ADD ladders collapse
// into one variadic "addn" (executed by the single-pass ckks.AddMany), then
// sums whose operands are all single-use constant multiplies collapse into
// one "lincomb" (ckks.MulConstAccum). Ops whose IDs appear in protected (job
// outputs) are never absorbed, so every requested result keeps its identity.
// Only ops listed before their consumer fold into it, so a job in topological
// order folds fully and any other order is still rewritten correctly. The
// input is not written and the output preserves its order; the count is the
// ops the passes absorbed.
func rewriteDAG(ops []OpSpec, protected map[string]bool) ([]OpSpec, int) {
	out, addFused := foldAddLadders(ops, protected)
	out, lcFused := foldLinComb(out, protected)
	return out, addFused + lcFused
}

// useCounts returns, per op ID, how many times other ops reference it.
func useCounts(ops []OpSpec) map[string]int {
	uses := make(map[string]int)
	for _, op := range ops {
		for _, a := range op.Args {
			uses[a]++
		}
	}
	return uses
}

// foldAddLadders collapses chains and trees of binary adds whose
// intermediates are single-use and unprotected into one variadic sum.
// Addition is associative and the evaluator's scale/level rules agree
// (AddMany checks the same scale compatibility pairwise adds would, and
// truncates to the minimum level like a chain does), so flattening is
// semantics-preserving.
func foldAddLadders(ops []OpSpec, protected map[string]bool) ([]OpSpec, int) {
	uses := useCounts(ops)
	flat := make(map[string][]string) // add-like op ID -> flattened arg list
	absorbed := make(map[string]bool)

	for _, op := range ops {
		if op.Op != "add" && op.Op != "addn" {
			continue
		}
		args := make([]string, 0, len(op.Args))
		for _, a := range op.Args {
			if f, ok := flat[a]; ok && uses[a] == 1 && !protected[a] {
				args = append(args, f...)
				absorbed[a] = true
			} else {
				args = append(args, a)
			}
		}
		flat[op.ID] = args
	}

	out := make([]OpSpec, 0, len(ops))
	for _, op := range ops {
		if absorbed[op.ID] {
			continue
		}
		if f, ok := flat[op.ID]; ok && len(f) > len(op.Args) {
			op.Op = "addn"
			op.Args = f
		}
		out = append(out, op)
	}
	return out, len(absorbed)
}

// foldLinComb rewrites a sum whose operands are all single-use, unprotected
// constant multiplies into one linear-combination op carrying the constants:
// addn(mulconst(x₀,c₀), …) → lincomb([x₀,…], [c₀,…]). The engine executes
// it as one rescale over a fused multiply-accumulate instead of one rescale
// and one full traversal per term.
func foldLinComb(ops []OpSpec, protected map[string]bool) ([]OpSpec, int) {
	uses := useCounts(ops)
	byID := make(map[string]*OpSpec, len(ops))
	for i := range ops {
		byID[ops[i].ID] = &ops[i]
	}

	absorbed := make(map[string]bool)
	out := make([]OpSpec, 0, len(ops))
	for _, op := range ops {
		if op.Op == "add" || op.Op == "addn" {
			terms := make([]*OpSpec, 0, len(op.Args))
			ok := true
			for _, a := range op.Args {
				mc := byID[a]
				if mc == nil || mc.Op != "mulconst" || uses[a] != 1 || protected[a] {
					ok = false
					break
				}
				terms = append(terms, mc)
			}
			// Duplicate args (add(x, x)) have uses >= 2 and fail the
			// single-use check, so each term is distinct here.
			if ok && len(terms) >= 2 {
				args := make([]string, len(terms))
				vals := make([]float64, len(terms))
				for i, mc := range terms {
					args[i] = mc.Args[0]
					vals[i] = mc.Val
					absorbed[mc.ID] = true
				}
				op.Op = "lincomb"
				op.Args = args
				op.Vals = vals
			}
		}
		out = append(out, op)
	}
	// The absorbed mulconsts precede their consumer in topological order,
	// so they were appended before being marked; filter them out now.
	final := out[:0]
	for _, op := range out {
		if !absorbed[op.ID] {
			final = append(final, op)
		}
	}
	return final, len(absorbed)
}
