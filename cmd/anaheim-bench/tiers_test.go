package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunTierTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep microReport) string {
		t.Helper()
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	rep := write("rep.json", microReport{
		GOOS: "linux", GOARCH: "amd64", NumCPU: 8,
		Results: []microResult{
			{Op: "ntt_fwd-n14-l1-go", NsPerOp: 1000},
			{Op: "ntt_fwd-n14-l1-neon", NsPerOp: 900},
			{Op: "ntt_fwd-n14-l1-avx512", NsPerOp: 400},
			{Op: "bconv-n14-l16-go", NsPerOp: 5000},
			{Op: "bconv-n14-l16-avx512", NsPerOp: 2500},
			{Op: "keyswitch-n14-l16", NsPerOp: 77}, // not a tier row: ignored
		},
	})
	var sb strings.Builder
	if err := runTierTable(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"| op | go ns/op | neon ns/op | avx512 ns/op | best vs go |",
		"| ntt_fwd-n14-l1 | 1000 | 900 | 400 | 2.50x |",
		"| bconv-n14-l16 | 5000 | - | 2500 | 2.00x |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tier table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "keyswitch") {
		t.Errorf("non-tier row leaked into the table:\n%s", out)
	}

	// A report with no per-tier rows is the wrong artifact: hard error, not
	// an empty table that a CI step summary would silently render as nothing.
	plain := write("plain.json", microReport{Results: []microResult{
		{Op: "keyswitch-n14-l16", NsPerOp: 77},
	}})
	if err := runTierTable(&sb, plain); err == nil {
		t.Fatal("want error for a report without per-tier rows")
	}
}

// TestKernelTierBenchRegistration checks the per-tier rows exist for every
// host-available tier without timing them (the shape test runs the real
// bodies at a shrunk grid).
func TestKernelTierBenchRegistration(t *testing.T) {
	benches := map[string]func(b *testing.B){}
	addKernelTierBenches(benches)
	if len(benches) == 0 {
		t.Fatal("no per-tier benchmarks registered")
	}
	if _, ok := benches["ntt_fwd-n14-l1-go"]; !ok {
		t.Errorf("missing the pure-Go baseline row; have %d rows", len(benches))
	}
	if len(benches)%4 != 0 {
		t.Errorf("want 4 rows per tier, got %d total", len(benches))
	}
}
