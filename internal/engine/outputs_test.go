package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/ckks"
)

// results runs a job to completion and returns its requested outputs.
func results(t *testing.T, e *Engine, spec JobSpec) map[string]*ckks.Ciphertext {
	t.Helper()
	out, err := finished(t, e, spec).Results()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBytes fails unless a and b have the same wire form.
func sameBytes(t *testing.T, a, b *ckks.Ciphertext, label string) {
	t.Helper()
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("%s: the results differ in their bytes", label)
	}
}

// sinks returns the ops no other op consumes — the natural output set of a
// job.
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

// TestResultBytesIndependentOfOutputs: a job's results are a pure function of
// its inputs and ops — which other ops it lists as outputs changes nothing.
// The DAG is a three-term constant linear combination and a four-term add
// ladder, written as mulconst and add chains; it runs on the same input
// ciphertexts once with every op listed and once with only its two sinks,
// and the sinks must come back byte-equal and track a plaintext model.
func TestResultBytesIndependentOfOutputs(t *testing.T) {
	client := newTestClient(t, 1)
	e := New(Config{Workers: 2})
	defer e.Close()
	sess, err := e.AttachSession(client.params, client.keys)
	if err != nil {
		t.Fatal(err)
	}

	consts := []float64{0.75, -0.5, 0.25}
	ops := []OpSpec{
		{ID: "m0", Op: "mulconst", Args: []string{"in0"}, Val: consts[0]},
		{ID: "m1", Op: "mulconst", Args: []string{"in1"}, Val: consts[1]},
		{ID: "m2", Op: "mulconst", Args: []string{"in2"}, Val: consts[2]},
		{ID: "s0", Op: "add", Args: []string{"m0", "m1"}},
		{ID: "s1", Op: "add", Args: []string{"s0", "m2"}},
		{ID: "a0", Op: "add", Args: []string{"in0", "in1"}},
		{ID: "a1", Op: "add", Args: []string{"a0", "in2"}},
		{ID: "a2", Op: "add", Args: []string{"a1", "in0"}},
	}
	allOps := make([]string, len(ops))
	for i, op := range ops {
		allOps[i] = op.ID
	}

	slots := client.params.Slots()
	vals := make(map[string][]complex128, 3)
	cts := make(map[string]*ckks.Ciphertext, 3)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		v := make([]complex128, slots)
		for s := range v {
			v[s] = complex(2*r.Float64()-1, 2*r.Float64()-1) / 2
		}
		id := fmt.Sprintf("in%d", i)
		vals[id], cts[id] = v, client.encrypt(t, v)
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

	run := func(listed []string) map[string]*ckks.Ciphertext {
		return results(t, e, JobSpec{SessionID: sess.ID, Inputs: cts, Ops: ops, Outputs: listed})
	}
	every, only := run(allOps), run(sinks(ops))
	for _, id := range sinks(ops) {
		sameBytes(t, only[id], every[id], id+" sinks-only vs every op listed")
		checkSlots(t, client.decrypt(only[id]), want[id], slots, 1e-2, id+" vs plaintext model")
	}
}
