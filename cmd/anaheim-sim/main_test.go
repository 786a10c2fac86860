package main

import (
	"strings"
	"testing"

	"github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/experiments"
)

func TestRunSingle(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sim", "-workload", "Boot"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Boot") || !strings.Contains(out, "a100-nearbank") {
		t.Fatalf("output missing workload/default platform:\n%s", out)
	}
	if !strings.Contains(out, "time=") || !strings.Contains(out, "energy=") {
		t.Fatalf("output missing metrics:\n%s", out)
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sim", "-all"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1
	// every workload on every platform of the table, one line each
	if want := len(experiments.Platforms()) * len(anaheim.Workloads()); lines != want {
		t.Fatalf("got %d result lines, want %d:\n%s", lines, want, sb.String())
	}
}

func TestTraceLinearTransform(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"trace", "-lt", "4", "-limit", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "trace LT-K4:") {
		t.Fatalf("missing trace header:\n%s", out)
	}
	if !strings.Contains(out, "start(us)") || !strings.Contains(out, "more kernels)") {
		t.Fatalf("missing the kernel table cut at -limit:\n%s", out)
	}
	if !strings.Contains(out, "PIM kernels") {
		t.Fatalf("missing the Gantt chart:\n%s", out)
	}
}

func TestTraceWorkload(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"trace", "-workload", "HELR", "-platform", "a100", "-limit", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.HasPrefix(out, "trace HELR") || !strings.Contains(out, "PIM 0.00GB") {
		t.Fatalf("GPU-only workload trace has the wrong header or PIM traffic:\n%s", out)
	}
}

func TestExpList(t *testing.T) {
	var list strings.Builder
	if err := run([]string{"exp", "-list"}, &list); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(anaheim.ExperimentIDs(), "\n") + "\n"; list.String() != want {
		t.Fatalf("-list printed\n%q\nwant\n%q", list.String(), want)
	}
}

// TestExpTableAndCSV runs one experiment both ways, on fig10, a cheap one:
// TestExpAllGolden and TestFig8Bands cover Fig 8 in full.
func TestExpTableAndCSV(t *testing.T) {
	var table, csv strings.Builder
	if err := run([]string{"exp", "-exp", "fig10"}, &table); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"exp", "-exp", "fig10", "-csv"}, &csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(table.String(), "Fig 10:") || !strings.Contains(table.String(), "A100 near-bank") {
		t.Fatalf("exp -exp fig10 does not print Fig 10:\n%s", table.String())
	}
	if !strings.Contains(csv.String(), "A100 near-bank,Boot,") {
		t.Fatalf("exp -exp fig10 -csv does not print Fig 10 as CSV:\n%s", csv.String())
	}
}

// wantErrors fails t for every argument list that run accepts.
func wantErrors(t *testing.T, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
	}
}

func TestRunErrors(t *testing.T) {
	wantErrors(t, [][]string{
		nil,
		{"bench"},
		{"-all"},
		{"sim", "-platform", "abacus"},
		{"sim", "-workload", "NoSuch"},
	})
}

func TestTraceErrors(t *testing.T) {
	wantErrors(t, [][]string{
		{"trace"},
		{"trace", "-workload", "NoSuch"},
		{"trace", "-lt", "4", "-platform", "abacus"},
	})
}

func TestExpErrors(t *testing.T) {
	wantErrors(t, [][]string{
		{"exp"},
		{"exp", "-exp", "nosuch"},
		{"exp", "-bogus"},
	})
}
