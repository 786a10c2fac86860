package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %g, want 8000", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(nil)
	// 1000 observations uniform on (0, 1ms]: p50 ≈ 0.5ms, p99 ≈ 0.99ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 1000*1001/2*1e-6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.25e-3 || p50 > 0.75e-3 {
		t.Fatalf("p50 = %g, want ≈ 0.5ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %g < p50 %g", p99, p50)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100) // beyond the last bound: +Inf bucket
	counts := h.BucketCounts()
	if counts[2] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", counts[2])
	}
	if q := h.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %g, want last bound 2", q)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter(`ops_total{op="mul"}`).Add(3)
	r.Counter(`ops_total{op="add"}`).Add(1)
	r.Gauge("busy").Set(2)
	r.GaugeFunc("depth", func() float64 { return 7 })
	r.HistogramWith(`lat_seconds{op="mul"}`, []float64{0.1, 1}).Observe(0.05)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE ops_total counter",
		`ops_total{op="mul"} 3`,
		`ops_total{op="add"} 1`,
		"# TYPE busy gauge",
		"busy 2",
		"depth 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{op="mul",le="0.1"} 1`,
		`lat_seconds_bucket{op="mul",le="+Inf"} 1`,
		`lat_seconds_sum{op="mul"} 0.05`,
		`lat_seconds_count{op="mul"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// One TYPE header per family even with several label sets.
	if strings.Count(out, "# TYPE ops_total") != 1 {
		t.Errorf("duplicated TYPE header:\n%s", out)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h").Observe(0.5)
	s := r.Snapshot()
	if s.Counters["c"] != 2 {
		t.Fatalf("snapshot counter = %g", s.Counters["c"])
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d", s.Histograms["h"].Count)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("root", 0)
	root.End()
	for i := 0; i < 10; i++ {
		sp := tr.Start("child", root.ID())
		sp.Annotate("i")
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4 (bounded ring)", len(spans))
	}
	for _, s := range spans {
		if s.Name != "child" || s.Parent != root.ID() {
			t.Fatalf("unexpected retained span %+v", s)
		}
	}
	// Oldest-first ordering.
	for i := 1; i < len(spans); i++ {
		if spans[i].ID < spans[i-1].ID {
			t.Fatalf("snapshot not oldest-first: %v", spans)
		}
	}
}

func TestNilSpanSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", 0)
	sp.Annotate("a") // must not panic
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span must have ID 0")
	}
}
