package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// The differential test drives randomly generated op DAGs through two
// independent execution paths — the concurrent scheduler (Submit/Wait) and
// a sequential walk over Session.evalOp — and demands the decrypted outputs
// agree. The scheduler adds worker pools, queues, and completion plumbing
// on top of the evaluator; any divergence (lost op, wrong arg resolution,
// result aliasing between concurrent ops) shows up as a slot mismatch here.
// Both paths also have to agree with a plaintext model of the DAG within
// CKKS precision, so "both paths equally wrong" cannot slip through. The
// same job listing only its sinks must return them byte for byte: what a job
// lists as outputs never changes how its ops run.

// diffNode tracks what the generator knows about one DAG value: its CKKS
// level/scale (mirroring the evaluator's own arithmetic, so scale-compat
// checks match what Add would enforce) and its plaintext slots.
type diffNode struct {
	id    string
	level int
	scale float64
	vals  []complex128
}

type diffDAG struct {
	inputs map[string][]complex128
	ops    []OpSpec
	want   map[string][]complex128 // op id -> plaintext model of its value
}

// genDAG builds a random valid job over nOps ops. Every op's precondition
// (level budget for mul/rescale-like ops, scale compatibility for add/sub,
// available rotation keys) is enforced by construction, so the job must
// execute cleanly end to end.
func genDAG(r *rand.Rand, params *ckks.Parameters, nOps int) diffDAG {
	slots := params.Slots()
	q := func(lvl int) float64 { return float64(params.RingQ().Moduli[lvl].Q) }

	randVals := func() []complex128 {
		v := make([]complex128, slots)
		for i := range v {
			v[i] = complex(2*r.Float64()-1, 2*r.Float64()-1) / 2
		}
		return v
	}

	dag := diffDAG{inputs: map[string][]complex128{}, want: map[string][]complex128{}}
	var nodes []diffNode
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("in%d", i)
		vals := randVals()
		dag.inputs[id] = vals
		nodes = append(nodes, diffNode{id: id, level: params.MaxLevel(), scale: params.DefaultScale(), vals: vals})
	}

	pick := func() diffNode { return nodes[r.Intn(len(nodes))] }
	// pickLeveled returns a node that can still afford a level drop.
	pickLeveled := func() (diffNode, bool) {
		cands := nodes[:0:0]
		for _, n := range nodes {
			if n.level >= 1 {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			return diffNode{}, false
		}
		return cands[r.Intn(len(cands))], true
	}
	// pickPair returns two nodes whose scales are close enough for the
	// evaluator's add-time scale check; the same node twice always is.
	pickPair := func() (diffNode, diffNode) {
		for tries := 0; tries < 8; tries++ {
			a, b := pick(), pick()
			if d := a.scale/b.scale - 1; d < 1e-4 && d > -1e-4 {
				return a, b
			}
		}
		n := pick()
		return n, n
	}

	kinds := []string{"add", "sub", "mul", "square", "rotate", "addconst", "mulconst", "droplevel"}
	for i := 0; i < nOps; i++ {
		id := fmt.Sprintf("op%d", i)
		var op OpSpec
		var out diffNode
		switch kind := kinds[r.Intn(len(kinds))]; kind {
		case "mul", "square":
			a, ok := pickLeveled()
			if !ok {
				continue
			}
			b := a
			if kind == "mul" {
				// The partner can be any node: Mul truncates to the
				// min level, which a's level>=1 keeps rescalable only if
				// the partner also has level>=1.
				if b2, ok := pickLeveled(); ok {
					b = b2
				}
			}
			lvl := min(a.level, b.level)
			op = OpSpec{ID: id, Op: kind, Args: []string{a.id}}
			if kind == "mul" {
				op.Args = []string{a.id, b.id}
			}
			out = diffNode{id: id, level: lvl - 1, scale: a.scale * b.scale / q(lvl)}
			out.vals = make([]complex128, slots)
			for s := 0; s < slots; s++ {
				out.vals[s] = a.vals[s] * b.vals[s]
			}
		case "add", "sub":
			a, b := pickPair()
			op = OpSpec{ID: id, Op: kind, Args: []string{a.id, b.id}}
			out = diffNode{id: id, level: min(a.level, b.level), scale: a.scale}
			out.vals = make([]complex128, slots)
			for s := 0; s < slots; s++ {
				if kind == "add" {
					out.vals[s] = a.vals[s] + b.vals[s]
				} else {
					out.vals[s] = a.vals[s] - b.vals[s]
				}
			}
		case "rotate":
			a := pick()
			k := 1 + r.Intn(3)
			op = OpSpec{ID: id, Op: "rotate", Args: []string{a.id}, K: k}
			out = diffNode{id: id, level: a.level, scale: a.scale}
			out.vals = make([]complex128, slots)
			for s := 0; s < slots; s++ {
				out.vals[s] = a.vals[(s+k)%slots]
			}
		case "addconst":
			a := pick()
			c := r.Float64() - 0.5
			op = OpSpec{ID: id, Op: "addconst", Args: []string{a.id}, Val: c}
			out = diffNode{id: id, level: a.level, scale: a.scale}
			out.vals = make([]complex128, slots)
			for s := 0; s < slots; s++ {
				out.vals[s] = a.vals[s] + complex(c, 0)
			}
		case "mulconst":
			a, ok := pickLeveled()
			if !ok {
				continue
			}
			c := 2*r.Float64() - 1
			op = OpSpec{ID: id, Op: "mulconst", Args: []string{a.id}, Val: c}
			// MultConst encodes c at scale q[level]; the following Rescale
			// divides by the same prime, restoring the scale.
			out = diffNode{id: id, level: a.level - 1, scale: a.scale * q(a.level) / q(a.level)}
			out.vals = make([]complex128, slots)
			for s := 0; s < slots; s++ {
				out.vals[s] = a.vals[s] * complex(c, 0)
			}
		case "droplevel":
			a, ok := pickLeveled()
			if !ok {
				continue
			}
			op = OpSpec{ID: id, Op: "droplevel", Args: []string{a.id}, K: a.level - 1}
			out = diffNode{id: id, level: a.level - 1, scale: a.scale, vals: a.vals}
		}
		dag.ops = append(dag.ops, op)
		dag.want[id] = out.vals
		nodes = append(nodes, out)
	}
	return dag
}

func TestDifferentialSchedulerVsEvaluator(t *testing.T) {
	client := newTestClient(t, 1, 2, 3)
	e := New(Config{Workers: 4})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dag := genDAG(r, client.params, 10)
			if len(dag.ops) == 0 {
				t.Fatal("generator produced an empty DAG")
			}

			cts := make(map[string]*ckks.Ciphertext, len(dag.inputs))
			for id, vals := range dag.inputs {
				cts[id] = client.encrypt(t, vals)
			}

			// Path 1: the scheduler. Every op id is an output so the job
			// retains all intermediate results for comparison.
			outputs := make([]string, 0, len(dag.ops))
			for _, op := range dag.ops {
				outputs = append(outputs, op.ID)
			}
			job, err := e.Submit(JobSpec{
				SessionID: sess.ID,
				Inputs:    cts,
				Ops:       dag.ops,
				Outputs:   outputs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			viaEngine, err := job.Results()
			if err != nil {
				t.Fatal(err)
			}
			onlySinks := results(t, e, JobSpec{SessionID: sess.ID, Inputs: cts, Ops: dag.ops, Outputs: sinks(dag.ops)})
			for id, ct := range onlySinks {
				sameBytes(t, ct, viaEngine[id], id+" sinks-only vs every op listed")
			}

			// Path 2: sequential walk over the same op semantics, no
			// scheduler involved. Ops are generated in topological order.
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

			slots := client.params.Slots()
			for _, op := range dag.ops {
				ge := client.decrypt(viaEngine[op.ID])
				gd := client.decrypt(direct[op.ID])
				// Same inputs, same deterministic evaluator ops: the two
				// paths must agree to far beyond CKKS noise.
				checkSlots(t, ge, gd, slots, 1e-6, op.ID+" engine vs direct")
				// And both must track the plaintext model within scheme
				// precision at the 45-bit scale.
				checkSlots(t, ge, dag.want[op.ID], slots, 1e-2, op.ID+" engine vs plaintext model")
			}
		})
	}
}
