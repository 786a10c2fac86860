package engine

import (
	"reflect"
	"testing"
)

func protect(ids ...string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func opByID(ops []OpSpec, id string) *OpSpec {
	for i := range ops {
		if ops[i].ID == id {
			return &ops[i]
		}
	}
	return nil
}

func TestAddLadderFolds(t *testing.T) {
	ops := []OpSpec{
		{ID: "s1", Op: "add", Args: []string{"a", "b"}},
		{ID: "s2", Op: "add", Args: []string{"s1", "c"}},
		{ID: "s3", Op: "add", Args: []string{"s2", "d"}},
	}
	out, fused := rewriteDAG(ops, protect("s3"))
	if len(out) != 1 {
		t.Fatalf("want 1 op after folding, got %d: %+v", len(out), out)
	}
	got := out[0]
	if got.ID != "s3" || got.Op != "addn" {
		t.Fatalf("want addn op s3, got %+v", got)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got.Args, want) {
		t.Fatalf("args %v, want %v", got.Args, want)
	}
	if fused != 2 {
		t.Fatalf("add-ladder fused %d, want 2", fused)
	}
}

func TestAddLadderRespectsProtectedAndSharedUse(t *testing.T) {
	// s1 is a requested output: it must survive with its identity.
	ops := []OpSpec{
		{ID: "s1", Op: "add", Args: []string{"a", "b"}},
		{ID: "s2", Op: "add", Args: []string{"s1", "c"}},
	}
	out, _ := rewriteDAG(ops, protect("s1", "s2"))
	if len(out) != 2 || out[0].Op != "add" || out[1].Op != "add" {
		t.Fatalf("protected intermediate was absorbed: %+v", out)
	}

	// s1 feeds two consumers: absorbing it would duplicate its computation.
	ops = []OpSpec{
		{ID: "s1", Op: "add", Args: []string{"a", "b"}},
		{ID: "s2", Op: "add", Args: []string{"s1", "c"}},
		{ID: "s3", Op: "add", Args: []string{"s1", "d"}},
	}
	out, _ = rewriteDAG(ops, protect("s2", "s3"))
	if opByID(out, "s1") == nil {
		t.Fatalf("shared intermediate was absorbed: %+v", out)
	}
}

func TestLinCombFolds(t *testing.T) {
	ops := []OpSpec{
		{ID: "m1", Op: "mulconst", Args: []string{"x"}, Val: 2.5},
		{ID: "m2", Op: "mulconst", Args: []string{"y"}, Val: -1.25},
		{ID: "m3", Op: "mulconst", Args: []string{"z"}, Val: 0.5},
		{ID: "s1", Op: "add", Args: []string{"m1", "m2"}},
		{ID: "s2", Op: "add", Args: []string{"s1", "m3"}},
	}
	out, _ := rewriteDAG(ops, protect("s2"))
	if len(out) != 1 {
		t.Fatalf("want 1 op, got %d: %+v", len(out), out)
	}
	got := out[0]
	if got.Op != "lincomb" || got.ID != "s2" {
		t.Fatalf("want lincomb s2, got %+v", got)
	}
	if want := []string{"x", "y", "z"}; !reflect.DeepEqual(got.Args, want) {
		t.Fatalf("args %v, want %v", got.Args, want)
	}
	if want := []float64{2.5, -1.25, 0.5}; !reflect.DeepEqual(got.Vals, want) {
		t.Fatalf("vals %v, want %v", got.Vals, want)
	}
}

func TestLinCombRequiresAllConstTerms(t *testing.T) {
	// One operand is a plain ciphertext: the sum stays an addn.
	ops := []OpSpec{
		{ID: "m1", Op: "mulconst", Args: []string{"x"}, Val: 2},
		{ID: "s1", Op: "add", Args: []string{"m1", "y"}},
	}
	out, _ := rewriteDAG(ops, protect("s1"))
	if opByID(out, "m1") == nil || opByID(out, "s1").Op != "add" {
		t.Fatalf("partial constant sum must not fold: %+v", out)
	}

	// A mulconst that is itself an output must not be absorbed.
	ops = []OpSpec{
		{ID: "m1", Op: "mulconst", Args: []string{"x"}, Val: 2},
		{ID: "m2", Op: "mulconst", Args: []string{"y"}, Val: 3},
		{ID: "s1", Op: "add", Args: []string{"m1", "m2"}},
	}
	out, _ = rewriteDAG(ops, protect("s1", "m1"))
	if opByID(out, "m1") == nil || opByID(out, "s1").Op != "add" {
		t.Fatalf("protected mulconst was absorbed: %+v", out)
	}
}

func TestRewriteDAGNoOpOnPlainGraphs(t *testing.T) {
	ops := []OpSpec{
		{ID: "p", Op: "mul", Args: []string{"a", "b"}},
		{ID: "q", Op: "rotate", Args: []string{"p"}, K: 3},
	}
	out, fused := rewriteDAG(ops, protect("q"))
	if !reflect.DeepEqual(out, ops) {
		t.Fatalf("rewrite changed a graph with nothing to fuse: %+v", out)
	}
	if fused != 0 {
		t.Fatalf("passes reported %d fusions on a plain graph", fused)
	}
}
