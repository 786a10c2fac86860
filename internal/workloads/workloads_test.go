package workloads

import (
	"testing"

	"github.com/anaheim-sim/anaheim/internal/trace"
)

func TestDefaultBootLSchedule(t *testing.T) {
	// §VII-A: L changes 2 -> 54 -> 24 during bootstrapping, L_eff = 11.
	p := trace.PaperParams()
	c := DefaultBoot()
	if got := c.BootLevels(); got != 15 {
		t.Fatalf("boot depth = %d levels, want 15 (30 limbs)", got)
	}
	if after := p.L - 2*c.BootLevels(); after != 24 {
		t.Fatalf("post-boot L = %d, want 24", after)
	}
	if got := LEff(p, c); got != 11 {
		t.Fatalf("L_eff = %d, want 11", got)
	}
}

func TestLEffVsFFTIter(t *testing.T) {
	// Fig 3: each fftIter increase drops L_eff.
	p := trace.PaperParams()
	prev := 100
	for _, it := range []int{3, 4, 5, 6} {
		c := DefaultBoot()
		c.FFTIterC2S, c.FFTIterS2C = it, it
		e := LEff(p, c)
		if e >= prev {
			t.Fatalf("L_eff should drop with fftIter: %d -> %d", prev, e)
		}
		prev = e
	}
}

func TestDiagCountStructure(t *testing.T) {
	// Splitting logSlots=15 stages into 4 groups yields group stage counts
	// 4,4,4,3 and diagonal counts 31,31,31,15.
	want := []int{31, 31, 31, 15}
	for i, w := range want {
		if got := DiagCount(15, 4, i); got != w {
			t.Fatalf("DiagCount(15,4,%d) = %d, want %d", i, got, w)
		}
	}
	// One group = the dense DFT (capped at the slot count).
	if got := DiagCount(10, 1, 0); got != 1<<10 {
		t.Fatalf("single-group diagonal count = %d, want full matrix", got)
	}
}

func TestBootstrapTraceProperties(t *testing.T) {
	p := trace.PaperParams()
	bt := Bootstrap(p, trace.AnaheimDefault(), DefaultBoot())
	if bt.LEff != 11 {
		t.Fatalf("trace L_eff = %d", bt.LEff)
	}
	if len(bt.Kernels) < 100 {
		t.Fatalf("bootstrapping should expand to many kernels, got %d", len(bt.Kernels))
	}
	if bt.OneTimeBytes() < 5e9 {
		t.Fatalf("bootstrapping should stream GBs of evks/plaintexts, got %.2fGB", bt.OneTimeBytes()/1e9)
	}
	if bt.TotalBytes() < bt.OneTimeBytes() {
		t.Fatal("one-time traffic cannot exceed total traffic")
	}
}

func TestAllWorkloadsGenerate(t *testing.T) {
	p := trace.PaperParams()
	for _, w := range All() {
		tr := w.Gen(p, trace.GPUBaseline())
		if len(tr.Kernels) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		if tr.LEff != w.LEff {
			t.Fatalf("%s: L_eff %d != declared %d", w.Name, tr.LEff, w.LEff)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Fatalf("%s: ByName lookup failed", w.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName should fail for unknown workloads")
	}
}

func TestFootprints(t *testing.T) {
	// §VIII-B: ResNet20 and ResNet18-AESPA exceed the RTX 4090's 24GB;
	// ResNet18 needs over 40GB. Everything fits in the A100's 80GB.
	p := trace.PaperParams()
	for _, w := range All() {
		gb := FootprintGB(w.Name, p)
		if gb <= 0 || gb > 80 {
			t.Fatalf("%s: footprint %.1fGB outside (0, 80]", w.Name, gb)
		}
	}
	if gb := FootprintGB("ResNet20", p); gb <= 24 {
		t.Fatalf("ResNet20 footprint %.1fGB should exceed 24GB (OoM on RTX 4090)", gb)
	}
	if gb := FootprintGB("ResNet18", p); gb <= 40 {
		t.Fatalf("ResNet18 footprint %.1fGB should exceed 40GB", gb)
	}
	if gb := FootprintGB("Boot", p); gb >= 24 {
		t.Fatalf("Boot footprint %.1fGB should fit the RTX 4090", gb)
	}
}

func TestBootFootprintGrowsWithD(t *testing.T) {
	prev := 0.0
	for _, d := range []int{2, 4, 8} {
		p := trace.PaperParams().WithD(d)
		gb := BootFootprintGB(p, DefaultBoot())
		if gb <= prev {
			t.Fatalf("footprint should grow with D (larger evks): %.1f -> %.1f", prev, gb)
		}
		prev = gb
	}
}

func TestHELRUsesSparseBoot(t *testing.T) {
	// HELR's 196-weight model packs few slots: its bootstrap's linear
	// transforms must be cheaper than the full-slot ones, making the HELR
	// trace's EW share lower (§VII-B).
	p := trace.PaperParams()
	full := Bootstrap(p, trace.GPUBaseline(), DefaultBoot())
	sparse := DefaultBoot()
	sparse.SlotsLog = 8
	sb := Bootstrap(p, trace.GPUBaseline(), sparse)
	if sb.OneTimeBytes() >= full.OneTimeBytes() {
		t.Fatal("sparse-slot bootstrapping should stream less one-time data")
	}
}

// TestPassesFuseWholeTraces runs all four fusion passes once over the whole
// trace each workload builds with no pass selected, and requires exactly
// the trace the builder emits when it fuses op by op. It fails when two
// copies of one compound (a bootstrap concatenated twice) share a fuse group.
func TestPassesFuseWholeTraces(t *testing.T) {
	p := trace.PaperParams()
	for _, opt := range []trace.Options{trace.AnaheimDefault(), trace.GPUBaseline()} {
		naive := opt
		naive.BasicFuse, naive.AutFuse = false, false
		for _, w := range All() {
			got := w.Gen(p, naive)
			trace.Apply(got, trace.AllPasses()...)
			want := w.Gen(p, opt)
			if len(got.Kernels) != len(want.Kernels) {
				t.Errorf("%s %+v: %d kernels after the passes, builder emits %d",
					w.Name, opt, len(got.Kernels), len(want.Kernels))
				continue
			}
			for i := range want.Kernels {
				if got.Kernels[i] != want.Kernels[i] {
					t.Errorf("%s %+v: kernel %d after the passes\n  %+v\nbuilder emits\n  %+v",
						w.Name, opt, i, got.Kernels[i], want.Kernels[i])
					break
				}
			}
		}
	}
}
