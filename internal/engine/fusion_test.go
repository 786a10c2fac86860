package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// runJob submits a job and returns the decrypted requested outputs.
func runJob(t *testing.T, client *testClient, e *Engine, sess *Session, spec JobSpec) map[string][]complex128 {
	t.Helper()
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	cts, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]complex128, len(cts))
	for id, ct := range cts {
		out[id] = client.decrypt(ct)
	}
	return out
}

// TestFusionRewriteCrafted drives a DAG with a known foldable shape — a
// three-term constant linear combination and a four-term add ladder —
// through one engine twice: first with every op listed as an output, which
// protects each intermediate and so blocks the rewrite, then with only the
// two sinks listed. The outputs must agree within CKKS precision, and the
// engine's metrics must show the rewrite fired on the second job only.
func TestFusionRewriteCrafted(t *testing.T) {
	client := newTestClient(t, 1)

	reg := obs.NewRegistry()
	e := New(Config{Workers: 2, Obs: reg})
	defer e.Close()
	eliminated := func() float64 { return reg.Counter("engine_fusion_ops_eliminated_total").Value() }

	consts := []float64{0.75, -0.5, 0.25}
	ops := []OpSpec{
		{ID: "m0", Op: "mulconst", Args: []string{"in0"}, Val: consts[0]},
		{ID: "m1", Op: "mulconst", Args: []string{"in1"}, Val: consts[1]},
		{ID: "m2", Op: "mulconst", Args: []string{"in2"}, Val: consts[2]},
		{ID: "s0", Op: "add", Args: []string{"m0", "m1"}},
		{ID: "s1", Op: "add", Args: []string{"s0", "m2"}}, // -> lincomb(in0,in1,in2)
		{ID: "a0", Op: "add", Args: []string{"in0", "in1"}},
		{ID: "a1", Op: "add", Args: []string{"a0", "in2"}},
		{ID: "a2", Op: "add", Args: []string{"a1", "in0"}}, // -> addn(in0,in1,in2,in0)
	}
	outputs := []string{"s1", "a2"}
	allOps := make([]string, len(ops))
	for i, op := range ops {
		allOps[i] = op.ID
	}

	slots := client.params.Slots()
	vals := make(map[string][]complex128, 3)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		v := make([]complex128, slots)
		for s := range v {
			v[s] = complex(2*r.Float64()-1, 2*r.Float64()-1) / 2
		}
		vals[fmt.Sprintf("in%d", i)] = v
	}
	want := map[string][]complex128{"s1": make([]complex128, slots), "a2": make([]complex128, slots)}
	for s := 0; s < slots; s++ {
		for i := 0; i < 3; i++ {
			in := vals[fmt.Sprintf("in%d", i)][s]
			want["s1"][s] += in * complex(consts[i], 0)
			want["a2"][s] += in
		}
		want["a2"][s] += vals["in0"][s]
	}

	run := func(listed []string) map[string][]complex128 {
		sess, err := e.AttachSession(client.params, client.keys)
		if err != nil {
			t.Fatal(err)
		}
		cts := make(map[string]*ckks.Ciphertext, len(vals))
		for id, v := range vals {
			cts[id] = client.encrypt(t, v)
		}
		specOps := make([]OpSpec, len(ops))
		copy(specOps, ops)
		return runJob(t, client, e, sess, JobSpec{
			SessionID: sess.ID, Inputs: cts, Ops: specOps, Outputs: listed,
		})
	}

	plainOut := run(allOps)
	if got := eliminated(); got != 0 {
		t.Errorf("the rewrite absorbed %.0f protected ops", got)
	}
	fusedOut := run(outputs)
	for _, id := range outputs {
		// The lincomb rescales the accumulated sum where the chain rescales
		// each term, so the rounding differs slightly; both must still track
		// the exact unfused result far inside scheme precision.
		checkSlots(t, fusedOut[id], plainOut[id], slots, 1e-3, id+" fused vs unfused engine")
		checkSlots(t, fusedOut[id], want[id], slots, 1e-2, id+" fused vs plaintext model")
	}

	if got := eliminated(); got < 5 {
		// 3 mulconsts + s0 fold into s1; a0 + a1 fold into a2.
		t.Errorf("fused job eliminated %.0f ops, want >= 5", got)
	}
}

// fusionSuffix appends a deterministic foldable tail over the job inputs so
// every random DAG exercises both rewrites regardless of what the generator
// drew. The tail only reads inputs, so it cannot perturb the random body.
func fusionSuffix(dag *diffDAG, slots int) {
	consts := []float64{1.5, -0.25, 0.625}
	suffix := []OpSpec{
		{ID: "fx.m0", Op: "mulconst", Args: []string{"in0"}, Val: consts[0]},
		{ID: "fx.m1", Op: "mulconst", Args: []string{"in1"}, Val: consts[1]},
		{ID: "fx.m2", Op: "mulconst", Args: []string{"in2"}, Val: consts[2]},
		{ID: "fx.s0", Op: "add", Args: []string{"fx.m0", "fx.m1"}},
		{ID: "fx.s1", Op: "add", Args: []string{"fx.s0", "fx.m2"}},
		{ID: "fx.a0", Op: "add", Args: []string{"in0", "in1"}},
		{ID: "fx.a1", Op: "add", Args: []string{"fx.a0", "in2"}},
	}
	dag.ops = append(dag.ops, suffix...)
	lc := make([]complex128, slots)
	ladder := make([]complex128, slots)
	for s := 0; s < slots; s++ {
		for i, in := range []string{"in0", "in1", "in2"} {
			lc[s] += dag.inputs[in][s] * complex(consts[i], 0)
			ladder[s] += dag.inputs[in][s]
		}
	}
	scaled := func(in string, c float64) []complex128 {
		v := make([]complex128, slots)
		for s := range v {
			v[s] = dag.inputs[in][s] * complex(c, 0)
		}
		return v
	}
	dag.want["fx.m0"] = scaled("in0", consts[0])
	dag.want["fx.m1"] = scaled("in1", consts[1])
	dag.want["fx.m2"] = scaled("in2", consts[2])
	dag.want["fx.s0"] = nil // absorbed intermediates are never outputs
	dag.want["fx.s1"] = lc
	dag.want["fx.a0"] = nil
	dag.want["fx.a1"] = ladder
}

// sinks returns the ops no other op consumes — the natural output set of a
// job, and the one that leaves the rewrite free to absorb intermediates.
func sinks(ops []OpSpec) []string {
	used := make(map[string]bool)
	for _, op := range ops {
		for _, a := range op.Args {
			used[a] = true
		}
	}
	var out []string
	for _, op := range ops {
		if !used[op.ID] {
			out = append(out, op.ID)
		}
	}
	return out
}

// TestDifferentialFusionRandomDAGs is the fused variant of the differential
// property test: random op DAGs with sinks-only outputs (so the admission
// rewrite is free to fold interior ops) run through the fusion-enabled
// scheduler, and the results must agree with a sequential walk of the
// ORIGINAL unrewritten ops and with the plaintext model. The rewrite must
// actually fire — every DAG carries a foldable tail — so this is fused
// execution versus unfused execution, not a vacuous pass.
func TestDifferentialFusionRandomDAGs(t *testing.T) {
	client := newTestClient(t, 1, 2, 3)
	reg := obs.NewRegistry()
	e := New(Config{Workers: 4, Obs: reg})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}
	slots := client.params.Slots()

	totalFused := 0
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dag := genDAG(r, client.params, 10)
			fusionSuffix(&dag, slots)

			// Count what the rewrite will do to this exact job (the engine
			// applies the same passes at admission).
			outs := sinks(dag.ops)
			protected := make(map[string]bool, len(outs))
			for _, o := range outs {
				protected[o] = true
			}
			_, fused := rewriteDAG(dag.ops, protected)
			totalFused += fused

			cts := make(map[string]*ckks.Ciphertext, len(dag.inputs))
			for id, vals := range dag.inputs {
				cts[id] = client.encrypt(t, vals)
			}
			viaEngine := runJob(t, client, e, sess, JobSpec{
				SessionID: sess.ID, Inputs: cts, Ops: dag.ops, Outputs: outs,
			})

			// Reference: sequential walk over the original, unrewritten ops.
			direct := make(map[string]*ckks.Ciphertext, len(dag.ops)+len(cts))
			for id, ct := range cts {
				direct[id] = ct
			}
			arg := func(name string) (*ckks.Ciphertext, error) {
				ct, ok := direct[name]
				if !ok {
					return nil, fmt.Errorf("unresolved arg %q", name)
				}
				return ct, nil
			}
			for i := range dag.ops {
				out, err := sess.evalOp(&dag.ops[i], arg)
				if err != nil {
					t.Fatalf("direct eval of %s (%s): %v", dag.ops[i].ID, dag.ops[i].Op, err)
				}
				direct[dag.ops[i].ID] = out
			}

			for _, id := range outs {
				ge := viaEngine[id]
				gd := client.decrypt(direct[id])
				// Fused lincomb rescales once where the chain rescales per
				// term; the rounding difference is far below scheme noise.
				checkSlots(t, ge, gd, slots, 1e-3, id+" fused engine vs direct")
				checkSlots(t, ge, dag.want[id], slots, 1e-2, id+" fused engine vs plaintext model")
			}
		})
	}
	if totalFused == 0 {
		t.Fatal("fusion rewrite never fired on any seed")
	}
	if got := reg.Counter("engine_fusion_ops_eliminated_total").Value(); got != float64(totalFused) {
		t.Errorf("engine counted %.0f fused ops, rewrite analysis says %d", got, totalFused)
	}
	t.Logf("fusion rewrite eliminated %d ops across 4 random DAGs", totalFused)
}
