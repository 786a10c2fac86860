package experiments

import (
	"testing"

	"github.com/anaheim-sim/anaheim/internal/gpu"
	"github.com/anaheim-sim/anaheim/internal/pim"
	"github.com/anaheim-sim/anaheim/internal/sched"
	"github.com/anaheim-sim/anaheim/internal/trace"
)

func TestExtGeneralPurposePIM(t *testing.T) {
	ms, tbl := ExtGeneralPurposePIM()
	if len(ms) != 3 || tbl == nil {
		t.Fatal("want GPU, Anaheim, and UPMEM-style rows")
	}
	byUnit := map[string]ExtGeneralPurposeMetrics{}
	for _, m := range ms {
		byUnit[m.Unit] = m
	}
	anaheim := byUnit["A100 near-bank"]
	gp := byUnit["A100 general-purpose PIM (UPMEM-style)"]
	if anaheim.Speedup <= 1.2 {
		t.Fatalf("Anaheim unit should clearly beat the GPU, got %.2fx", anaheim.Speedup)
	}
	// §IX: general-purpose PIM gains "stay at modest levels even compared
	// to CPUs" — in our model it actively loses to the GPU on FHE.
	if gp.Speedup >= 1.0 {
		t.Fatalf("UPMEM-style PIM should not beat the GPU on FHE, got %.2fx", gp.Speedup)
	}
	if gp.Speedup >= anaheim.Speedup {
		t.Fatal("the custom MMAC datapath must be decisive")
	}
}

func TestExtPipelining(t *testing.T) {
	ms, tbl := ExtPipelining()
	if len(ms) != 6 || tbl == nil {
		t.Fatal("want all six workloads")
	}
	for _, m := range ms {
		if m.OverlapMs > m.SerialMs {
			t.Fatalf("%s: overlap bound exceeds serial time", m.Workload)
		}
		// §V-C: "further gains from pipelining would be marginal" once
		// Anaheim has shrunk the element-wise share.
		if m.MaxGainPct > 35 {
			t.Fatalf("%s: pipelining bound %.1f%% is not marginal — model drifted", m.Workload, m.MaxGainPct)
		}
		if m.MaxGainPct < 0 {
			t.Fatalf("%s: negative gain", m.Workload)
		}
	}
}

func TestExtMemoryTechnologies(t *testing.T) {
	ms, tbl := ExtMemoryTechnologies()
	if len(ms) != 4 || tbl == nil {
		t.Fatal("want four memory technologies")
	}
	byName := map[string]ExtMemoryTechMetrics{}
	for _, m := range ms {
		byName[m.Memory] = m
		if m.Speedup < 1.0 {
			t.Errorf("%s: Anaheim should not lose to the GPU (%.2fx)", m.Memory, m.Speedup)
		}
	}
	// §IV-D: the element-wise share grows as external bandwidth shrinks.
	hbm := byName["A100-HBM2e"]
	ddr := byName["DDR5-6400x8ch"]
	if ddr.EWShareGPU <= hbm.EWShareGPU {
		t.Error("lower bandwidth must raise the element-wise share")
	}
	if ddr.Speedup <= hbm.Speedup {
		t.Error("PIM leverage should grow as external bandwidth shrinks")
	}
}

// buildMixed emits a representative op mix with no pass selected:
// ciphertext multiply, rotation, hoisted linear transform, Chebyshev leaf
// accumulation, affine map.
func buildMixed() *trace.Trace {
	b := trace.NewBuilder(trace.PaperParams(), trace.Options{Hoist: true, PIM: true}, "mixed")
	b.HMULT(20)
	b.HROT(20)
	b.LinearTransform(20, 16)
	b.CAccum("cheb.leaf", 10, 8)
	b.EW2("evalmod.affine", 10)
	return b.T
}

// TestReportStages: cumulative per-pass simulation must show monotonically
// non-increasing traffic and a strictly faster final stage.
func TestReportStages(t *testing.T) {
	tr := buildMixed()
	cfg := sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar()}
	stages := passReport(tr, cfg, trace.AllPasses()...)
	if len(stages) != 5 {
		t.Fatalf("want 5 stages (naive + 4 passes), got %d", len(stages))
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].Bytes > stages[i-1].Bytes+1 {
			t.Fatalf("stage %s increased traffic: %.0f -> %.0f",
				stages[i].Name, stages[i-1].Bytes, stages[i].Bytes)
		}
	}
	first, last := stages[0], stages[len(stages)-1]
	if last.SimTimeNs >= first.SimTimeNs {
		t.Fatalf("fusion did not speed up the GPU simulation: %.3fms -> %.3fms",
			first.SimTimeNs/1e6, last.SimTimeNs/1e6)
	}
	t.Logf("GPU sim: naive %.3f ms -> fused %.3f ms (%.2fx)",
		first.SimTimeNs/1e6, last.SimTimeNs/1e6, last.speedupOver(first))

	// And on the PIM co-execution model.
	pimCfg := sched.Config{GPU: gpu.A100(), Lib: gpu.Cheddar(), PIM: ptr(pim.A100NearBank())}
	tr2 := buildMixed()
	pimStages := passReport(tr2, pimCfg, trace.AllPasses()...)
	pf, pl := pimStages[0], pimStages[len(pimStages)-1]
	if pl.SimTimeNs >= pf.SimTimeNs {
		t.Fatalf("fusion did not speed up the PIM co-execution: %.3fms -> %.3fms",
			pf.SimTimeNs/1e6, pl.SimTimeNs/1e6)
	}
	t.Logf("PIM sim: naive %.3f ms -> fused %.3f ms (%.2fx)",
		pf.SimTimeNs/1e6, pl.SimTimeNs/1e6, pl.speedupOver(pf))
}

func ptr[T any](v T) *T { return &v }
