package experiments

import (
	"strings"
	"testing"
)

// The acceptance criteria here implement DESIGN.md §4: the *shape* of every
// figure and table must match the paper — who wins, by roughly what factor,
// where crossovers fall — not the absolute testbed numbers.

func TestFig1HoistingVsMinKS(t *testing.T) {
	ms, tbl := Fig1Table()
	if len(ms) != 3 || tbl == nil {
		t.Fatal("want three algorithms")
	}
	byName := map[string]Fig1Metrics{}
	for _, m := range ms {
		byName[m.Alg] = m
	}
	// Base and MinKS share compute; hoisting reduces (I)NTT ~2.47x.
	if byName["Base"].NTTLimbOps != byName["MinKS"].NTTLimbOps {
		t.Fatal("Base and MinKS must have equal (I)NTT counts")
	}
	ratio := byName["Base"].NTTLimbOps / byName["Hoisting"].NTTLimbOps
	if ratio < 2.0 || ratio > 3.2 {
		t.Fatalf("hoisting (I)NTT reduction %.2fx outside [2.0, 3.2] (paper 2.47x)", ratio)
	}
	// MinKS uses far fewer evks; hoisting uses slightly larger plaintexts.
	if byName["MinKS"].EvkCount*4 > byName["Hoisting"].EvkCount {
		t.Fatal("MinKS should need >= 4x fewer evks")
	}
	if byName["Hoisting"].PtGB <= byName["Base"].PtGB {
		t.Fatal("hoisting should need larger plaintexts")
	}
}

func TestFig2aLibraryOrdering(t *testing.T) {
	ms, _ := Fig2a()
	get := func(lib, fn string) float64 {
		for _, m := range ms {
			if m.Library == lib && m.Function == fn {
				return m.TimeUs
			}
		}
		t.Fatalf("missing %s/%s", lib, fn)
		return 0
	}
	// Cheddar beats Phantom and 100x on HMULT/HROT (paper: 1.79x/1.54x).
	for _, fn := range []string{"HMULT", "HROT"} {
		for _, lib := range []string{"Phantom", "100x"} {
			if r := get(lib, fn) / get("Cheddar", fn); r < 1.2 || r > 2.3 {
				t.Errorf("%s/%s speedup over %s = %.2fx outside [1.2, 2.3]", fn, "Cheddar", lib, r)
			}
		}
	}
	// Element-wise functions do not improve across libraries with fusion
	// support ("Cheddar also failed to improve them", §IV-D).
	if get("100x", "HADD") != get("Cheddar", "HADD") {
		t.Error("HADD should be bandwidth-bound on every fused library")
	}
}

func TestFig2bShapes(t *testing.T) {
	ms, _ := Fig2b()
	var a100Shares, r4090Shares []float64
	oomSeen := false
	for _, m := range ms {
		if m.OoM {
			oomSeen = true
			if !strings.Contains(m.GPU, "4090") {
				t.Errorf("unexpected OoM on %s", m.GPU)
			}
			continue
		}
		if strings.Contains(m.GPU, "A100") {
			a100Shares = append(a100Shares, m.EWShare)
		} else {
			r4090Shares = append(r4090Shares, m.EWShare)
		}
	}
	if !oomSeen {
		t.Error("expected an OoM configuration on the RTX 4090 (Fig 2b)")
	}
	for _, s := range a100Shares {
		if s < 0.40 || s > 0.62 {
			t.Errorf("A100 EW share %.1f%% outside the widened 45-48%% band", 100*s)
		}
	}
	for _, s := range r4090Shares {
		if s < 0.58 || s > 0.80 {
			t.Errorf("RTX4090 EW share %.1f%% outside the widened 68-69%% band", 100*s)
		}
	}
}

func TestFig2cHoistWins(t *testing.T) {
	ms, _ := Fig2c()
	byName := map[string]Fig2cMetrics{}
	for _, m := range ms {
		byName[m.Alg] = m
	}
	if !(byName["Hoist"].TbootMs < byName["MinKS"].TbootMs) {
		t.Fatal("hoisting must beat MinKS on GPUs (§III-C)")
	}
	if !(byName["Hoist"].TbootMs < byName["Base"].TbootMs) {
		t.Fatal("hoisting must beat Base")
	}
	// Hoisting raises the EW share (§IV-B: it is "the main reason behind
	// these trends").
	if byName["Hoist"].EWShare <= byName["Base"].EWShare {
		t.Fatal("hoisting should increase the element-wise share")
	}
}

func TestFig3CrossoverAt4(t *testing.T) {
	ms, _ := Fig3()
	byLabel := map[string]Fig3Metrics{}
	for _, m := range ms {
		byLabel[m.Label] = m
	}
	def := byLabel["3&4 (default)"]
	// The default mix achieves the best T_boot,eff (§IV-C).
	for l, m := range byLabel {
		if l == "3&4 (default)" {
			continue
		}
		if m.TbootMs < def.TbootMs {
			t.Errorf("fftIter=%s (%.2fms) beats the default mix (%.2fms)", l, m.TbootMs, def.TbootMs)
		}
	}
	// fftIter > 4 degrades performance despite the lower EW share.
	if byLabel["6"].TbootMs <= byLabel["4"].TbootMs {
		t.Error("fftIter=6 should be worse than 4 (L_eff drop dominates)")
	}
	if byLabel["6"].EWShare >= byLabel["3"].EWShare {
		t.Error("larger fftIter should reduce the EW share")
	}
}

func TestFig4aModes(t *testing.T) {
	ms, _ := Fig4a()
	byMode := map[string]Fig4aMetrics{}
	for _, m := range ms {
		byMode[m.Mode] = m
	}
	gpuOnly, bw4, pimMode := byMode["GPU only"], byMode["4x BW DRAM"], byMode["PIM"]
	// 4x BW: EW and Aut speed up substantially, ModSwitch barely moves.
	if r := gpuOnly.EWUs / bw4.EWUs; r < 2.0 {
		t.Errorf("4x BW should speed EW by >2x (paper 2.84x), got %.2fx", r)
	}
	if r := gpuOnly.ModSwUs / bw4.ModSwUs; r > 1.3 {
		t.Errorf("4x BW should barely improve ModSwitch, got %.2fx", r)
	}
	// PIM achieves comparable EW gains without external bandwidth.
	if r := gpuOnly.EWUs / pimMode.EWUs; r < 1.8 {
		t.Errorf("PIM should speed EW comparably to 4x BW, got %.2fx", r)
	}
	if pimMode.TimeUs >= gpuOnly.TimeUs {
		t.Error("PIM mode should be faster overall")
	}
	if len(pimMode.Timeline) == 0 {
		t.Error("PIM mode should produce a Gantt timeline")
	}
}

func TestFig4bReductions(t *testing.T) {
	m, _ := Fig4b()
	if r := m.BaselineGB / m.PIMGpuGB; r < 3.5 {
		t.Errorf("GPU-side DRAM reduction %.2fx below acceptance (paper 6.15x)", r)
	}
	if m.PIMGpuGB < m.IdealGB {
		t.Error("PIM cannot beat the unlimited-cache ideal")
	}
	if m.PIMGpuGB/m.IdealGB > 4 {
		t.Errorf("PIM should be within ~4x of ideal (paper 1.86x), got %.2fx", m.PIMGpuGB/m.IdealGB)
	}
	if m.EnergyRatio < 1.8 {
		t.Errorf("DRAM energy reduction %.2fx below acceptance (paper 2.87x)", m.EnergyRatio)
	}
}

func TestFig8Bands(t *testing.T) {
	ms, _ := Fig8()
	oomR20 := false
	for _, m := range ms {
		if m.OoM {
			if m.Platform == "RTX4090 near-bank" && (m.Workload == "ResNet20" || m.Workload == "ResNet18") {
				oomR20 = true
				continue
			}
			t.Errorf("unexpected OoM: %s/%s", m.Platform, m.Workload)
			continue
		}
		if m.Speedup < 1.05 || m.Speedup > 1.9 {
			t.Errorf("%s/%s speedup %.2fx outside [1.05, 1.9] (paper 1.06-1.74)", m.Platform, m.Workload, m.Speedup)
		}
		if m.EDPGain < 1.5 || m.EDPGain > 3.4 {
			t.Errorf("%s/%s EDP gain %.2fx outside [1.5, 3.4] (paper 1.62-3.14)", m.Platform, m.Workload, m.EDPGain)
		}
	}
	if !oomR20 {
		t.Error("ResNet20/ResNet18 must OoM on the RTX 4090 (§VIII-B)")
	}
	// HELR shows the smallest gains on every platform (§VII-B).
	perPlat := map[string]map[string]float64{}
	for _, m := range ms {
		if m.OoM {
			continue
		}
		if perPlat[m.Platform] == nil {
			perPlat[m.Platform] = map[string]float64{}
		}
		perPlat[m.Platform][m.Workload] = m.EDPGain
	}
	for plat, byW := range perPlat {
		for w, g := range byW {
			if w != "HELR" && g < byW["HELR"] {
				t.Errorf("%s: %s EDP gain %.2f below HELR's %.2f", plat, w, g, byW["HELR"])
			}
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	pts, _ := Fig9()
	// Compound instructions are unsupported at B=4 and supported at 16.
	for _, p := range pts {
		if p.B == 4 && (p.Op.String() == "Tensor" || p.Op.String() == "PAccum") && p.Supported {
			t.Errorf("%s should be unsupported at B=4", p.Op)
		}
		if p.B == 16 && !p.Supported {
			t.Errorf("%s should be supported at B=16 on %s", p.Op, p.Config)
		}
		if p.Supported && (p.Speedup < 0.1 || p.Speedup > 16) {
			t.Errorf("%s/%s/B=%d speedup %.2fx outside sanity bounds", p.Config, p.Op, p.B, p.Speedup)
		}
		// At each configuration's default buffer size, every instruction
		// must actually beat the GPU (the paper's 1.65x floor).
		def := map[string]int{"A100 near-bank": 16, "A100 custom-HBM": 16, "RTX4090 near-bank": 32}
		if p.Supported && p.B == def[p.Config] && p.Speedup < 1.0 {
			t.Errorf("%s/%s at default B=%d: speedup %.2fx < 1", p.Config, p.Op, p.B, p.Speedup)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	ms, _ := Fig10()
	// Fusions monotonically improve; w/o CP nullifies the EW gains.
	type key struct{ plat, w string }
	grouped := map[key]map[string]Fig10Metrics{}
	for _, m := range ms {
		k := key{m.Platform, m.Workload}
		if grouped[k] == nil {
			grouped[k] = map[string]Fig10Metrics{}
		}
		grouped[k][m.Variant] = m
	}
	for k, vs := range grouped {
		if vs["+BasicFuse"].TimeMs > vs["Base"].TimeMs*1.001 {
			t.Errorf("%v: +BasicFuse regressed", k)
		}
		if vs["+AutFuse"].TimeMs > vs["+BasicFuse"].TimeMs*1.001 {
			t.Errorf("%v: +AutFuse regressed", k)
		}
		if cp, ok := vs["w/o CP"]; ok {
			ratio := cp.EWMs / vs["+AutFuse"].EWMs
			if ratio < 1.5 {
				t.Errorf("%v: w/o CP EW slowdown %.2fx too small (paper ~2.2x)", k, ratio)
			}
		}
	}
}

func TestTables(t *testing.T) {
	if tbl := Table3(); len(tbl.Rows) != 3 {
		t.Error("Table III should list three configurations")
	}
	if tbl := Table4(); len(tbl.Rows) != 1 {
		t.Error("Table IV should list the default parameter row")
	}
	rows, _ := Table5()
	measured := 0
	for _, r := range rows {
		if r.Measured {
			measured++
			if r.BootMs <= 0 || r.BootMs > 200 {
				t.Errorf("%s: implausible Boot time %.1fms", r.Proposal, r.BootMs)
			}
			// Anaheim must beat the GPU/FPGA rows and lose to SHARP by a
			// large margin (§VIII-A: SHARP is 8.9-17.2x faster).
			if r.BootMs < 3.12 {
				t.Errorf("%s: Anaheim should not beat SHARP", r.Proposal)
			}
		}
	}
	if measured != 3 {
		t.Errorf("want 3 measured Anaheim rows, got %d", measured)
	}
	// RTX 4090 must report no ResNet20 number (OoM).
	for _, r := range rows {
		if r.Measured && strings.Contains(r.Proposal, "4090") && r.R20s != 0 {
			t.Error("RTX 4090 ResNet20 should be OoM")
		}
	}
}

func TestPlatformsEnumeration(t *testing.T) {
	ps := Platforms()
	if len(ps) != 5 {
		t.Fatalf("want 5 platforms, got %d", len(ps))
	}
	pimCount := 0
	for _, p := range ps {
		if p.PIM != nil {
			pimCount++
		}
		got, err := PlatformByID(p.ID)
		if err != nil || got.Name != p.Name {
			t.Errorf("PlatformByID(%q) = %q, %v", p.ID, got.Name, err)
		}
	}
	if pimCount != 3 {
		t.Fatalf("want 3 PIM platforms (Table III), got %d", pimCount)
	}
	if _, err := PlatformByID("abacus"); err == nil {
		t.Fatal("unknown platform id must error")
	}
}

func TestRegistry(t *testing.T) {
	es := Experiments()
	if len(es) != 17 {
		t.Fatalf("want 17 experiments, got %d", len(es))
	}
	seen := make(map[string]bool, len(es))
	for _, e := range es {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID {
			t.Errorf("Lookup(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup of an unknown id succeeded")
	}
}
