package gpu

import (
	"testing"
)

func TestRooflineRegimes(t *testing.T) {
	g := A100()
	// Pure memory kernel: time = bytes / effective bandwidth.
	mem := g.KernelCost(0, 1e9, 1.0)
	if want := 1e9 / g.EffBWGBs(); mem.TimeNs < want*0.999 || mem.TimeNs > want*1.001 {
		t.Fatalf("memory-bound kernel time %.0f, want %.0f", mem.TimeNs, want)
	}
	// Pure compute kernel: time = ops / (TOPS * eff).
	comp := g.KernelCost(1e12, 0, 0.5)
	if want := 1e12 / (g.IntTOPS * 0.5 * 1e3); comp.TimeNs < want*0.999 || comp.TimeNs > want*1.001 {
		t.Fatalf("compute-bound kernel time %.0f, want %.0f", comp.TimeNs, want)
	}
	// Roofline: the max of the two.
	both := g.KernelCost(1e12, 1e9, 0.5)
	if both.TimeNs != maxF(mem.TimeNs, comp.TimeNs) {
		t.Fatal("kernel time must be max(compute, memory)")
	}
}

func TestEnergyMonotone(t *testing.T) {
	g := A100()
	small := g.KernelCost(1e9, 1e6, 0.5)
	big := g.KernelCost(2e9, 2e6, 0.5)
	if big.EnergyNJ <= small.EnergyNJ {
		t.Fatal("energy must grow with work")
	}
	if small.EnergyNJ <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestTableIIIGPUEntries(t *testing.T) {
	a, r := A100(), RTX4090()
	if a.IntTOPS != 19.5 || r.IntTOPS != 41.3 {
		t.Fatal("integer throughput must match Table III")
	}
	// D2 of §III-A: the 4090 has 2.1x the integer mult throughput.
	if ratio := r.IntTOPS / a.IntTOPS; ratio < 2.0 || ratio > 2.2 {
		t.Fatalf("4090/A100 TOPS ratio %.2f, want ~2.1", ratio)
	}
}

func TestLibraryProfiles(t *testing.T) {
	c, h, p := Cheddar(), HundredX(), Phantom()
	// §IV-A: Cheddar's (I)NTT is 1.80x/1.81x faster than 100x/Phantom.
	if r := c.NTTEff / h.NTTEff; r < 1.75 || r > 1.85 {
		t.Fatalf("Cheddar/100x NTT efficiency ratio %.2f", r)
	}
	if r := c.NTTEff / p.NTTEff; r < 1.75 || r > 1.87 {
		t.Fatalf("Cheddar/Phantom NTT efficiency ratio %.2f", r)
	}
	if !c.EWFusion || !h.EWFusion || p.EWFusion {
		t.Fatal("fusion support flags wrong (Phantom lacks CKKS bootstrapping-era fusion)")
	}
}

func TestZeroEffSkipsCompute(t *testing.T) {
	g := A100()
	c := g.KernelCost(1e12, 1e6, 0)
	if c.TimeNs != 1e6/g.EffBWGBs() {
		t.Fatal("zero efficiency class must fall back to memory time")
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
