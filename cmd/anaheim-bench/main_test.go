package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunMicroEmitsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("microbenchmarks are slow")
	}
	// One NTT grid cell is enough to validate report shape; the full grid
	// belongs to `make micro`, not the test suite.
	prevGrid := nttGrid
	nttGrid.logNs, nttGrid.limbs = []int{12}, []int{1}
	defer func() { nttGrid = prevGrid }()
	prevBConv := bconvGrid
	bconvGrid.logNs, bconvGrid.limbs = []int{12}, []int{4}
	defer func() { bconvGrid = prevBConv }()
	prevTier := tierGrid
	tierGrid.logN, tierGrid.bconvLimbs = 12, 4
	defer func() { tierGrid = prevTier }()
	var sb strings.Builder
	if err := runMicro(&sb, true, true); err != nil {
		t.Fatal(err)
	}
	var rep microReport
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(rep.Results) < 5 {
		t.Fatalf("want >=5 benchmarked ops, got %d", len(rep.Results))
	}
	byOp := make(map[string]microResult, len(rep.Results))
	for _, r := range rep.Results {
		byOp[r.Op] = r
	}
	for _, r := range rep.Results {
		if r.Op == "" || r.NsPerOp <= 0 {
			t.Fatalf("bad result entry: %+v", r)
		}
	}
	// -membw columns: the traffic model is deterministic — every probed row
	// reports bytes moved and, its chains being pipelined, bytes saved.
	for _, op := range []string{"rotate", "mul-relin-rescale", "lintrans", "bootstrap"} {
		if r := byOp[op]; r.MemBytesOp <= 0 || r.MemSavedOp <= 0 {
			t.Errorf("-membw must populate the traffic columns of %s, got %+v", op, r)
		}
	}
	if byOp["ntt_fwd-n12-l1"].MemBytesOp != 0 {
		t.Errorf("unprobed rows must omit the membw column: %+v", byOp["ntt_fwd-n12-l1"])
	}
	// The lintrans key-switch count is deterministic (a counter delta, no
	// timing): the dense 32-diagonal sweep must spend strictly fewer gadget
	// products under the cost model's plan than the 31 of the per-diagonal one.
	if rot := byOp["lintrans"].RotationsOp; rot <= 0 || rot >= 31 {
		t.Errorf("lintrans spends %.0f key switches/op, want a BSGS count in (0, 31)", rot)
	}
	if rep.Metrics == nil {
		t.Fatal("-metrics snapshot missing from report")
	}
	if v, ok := rep.Metrics.Counters[`ckks_ops_total{op="mul"}`]; !ok || v <= 0 {
		t.Fatalf("metrics snapshot has no mul count: %v", rep.Metrics.Counters)
	}
}

func TestRunCompare(t *testing.T) {
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
	base := write("base.json", microReport{Results: []microResult{
		{Op: "add", NsPerOp: 100},
		{Op: "mul", NsPerOp: 1000},
	}})
	cand := write("cand.json", microReport{Results: []microResult{
		{Op: "add", NsPerOp: 110},  // +10%: within tolerance
		{Op: "mul", NsPerOp: 1500}, // +50%: regression
		{Op: "rotate", NsPerOp: 5}, // new op: reported, not a regression
	}})

	var sb strings.Builder
	regressed, err := runCompare(&sb, base, cand, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("want regression flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") || !strings.Contains(sb.String(), "mul") {
		t.Fatalf("missing regression marker:\n%s", sb.String())
	}

	sb.Reset()
	regressed, err = runCompare(&sb, base, cand, 60)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("60%% tolerance must pass:\n%s", sb.String())
	}

	if _, err := runCompare(&sb, base, "", 25); err == nil {
		t.Fatal("want error when -against is missing")
	}
	if _, err := runCompare(&sb, dir+"/nosuch.json", cand, 25); err == nil {
		t.Fatal("want error for missing baseline file")
	}
	empty := write("empty.json", microReport{})
	if _, err := runCompare(&sb, empty, cand, 25); err == nil {
		t.Fatal("want error for a report with no results")
	}
	disjoint := write("disjoint.json", microReport{Results: []microResult{
		{Op: "encode", NsPerOp: 10},
	}})
	if _, err := runCompare(&sb, base, disjoint, 25); err == nil {
		t.Fatal("want error when the reports share no benchmark ops")
	}
}
