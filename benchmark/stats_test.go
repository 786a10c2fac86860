package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it; a
// pass too short to have one above the median reports the median, unresolved.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{240, 1 - 10.0/240, 10},
		{40, 0.75, 10},
		{21, 1 - 10.0/21, 10},
		{20, 0.5, 10},
		{19, 0.5, 9},
		{11, 0.5, 5},
		{0, 0.5, 0},
	} {
		q, beyond := tailQuantile(c.n)
		if math.Abs(q-c.q) > 1e-12 || beyond != c.beyond {
			t.Errorf("tailQuantile(%d) = p%.4f with %d beyond, want p%.4f with %d", c.n, 100*q, beyond, 100*c.q, c.beyond)
		}
	}
}

// A long pass takes its tail over the quietest third of its 20-op blocks, so
// that a burst on the host does not decide it; a short pass over all its ops.
func TestQuietOps(t *testing.T) {
	short := make([]float64, 3*tailBlock-1)
	if got := quietOps(short); len(got) != len(short) {
		t.Errorf("a pass of %d ops kept %d, want all of them", len(short), len(got))
	}
	// Six blocks at 100 ms with one op of 150 ms each: blocks 1 and 4 sit in
	// a burst that triples them, block 2 is a little slower than the rest,
	// and five ops trail the last whole block.
	var lat []float64
	for b := 0; b < 6; b++ {
		for i := 0; i < tailBlock; i++ {
			ms := 100.0
			if i == 7 {
				ms = 150
			}
			switch b {
			case 1, 4:
				ms *= 3
			case 2:
				ms += 1
			}
			lat = append(lat, ms)
		}
	}
	lat = append(lat, 900, 900, 900, 900, 900)
	quiet := quietOps(lat)
	if len(quiet) != 2*tailBlock {
		t.Fatalf("kept %d ops of six blocks, want two blocks", len(quiet))
	}
	if got := percentile(quiet, 1); got != 150 {
		t.Errorf("slowest kept op = %v ms, want the program's own 150", got)
	}
	if got := sum(quiet); got != 2*(19*100+150) {
		t.Errorf("kept ops sum to %v ms: not the two quietest blocks", got)
	}
}

// Throughput is clients × correct ops ÷ the summed latency; failed ops add
// their (censored) latency and no work.
func TestThroughput(t *testing.T) {
	lat := []float64{100, 100, 100, 100}
	ok := []bool{true, true, true, true}
	if got := throughput(lat, ok, 2); math.Abs(got-20) > 1e-9 {
		t.Errorf("steady pass = %v ops/s, want 2 clients / 0.1 s = 20", got)
	}
	lat[3], ok[3] = 700, false
	if got := throughput(lat, ok, 1); math.Abs(got-3) > 1e-9 {
		t.Errorf("three correct ops in one second = %v ops/s, want 3", got)
	}
	if got := throughput([]float64{300}, []bool{false}, 1); got != 0 {
		t.Errorf("one failed op = %v ops/s, want 0", got)
	}
	if got := throughput(nil, nil, 1); got != 0 {
		t.Errorf("no ops = %v ops/s, want 0", got)
	}
}

func TestPrecisionBits(t *testing.T) {
	want := []complex128{1, 2i, 3, 4}
	if bits := precisionBits(want, want); bits != 64 {
		t.Errorf("exact match = %v bits, want the cap of 64", bits)
	}
	// Errors 0, 1/4, 1/8, 0: the worst slot is off by 2^-2.
	if bits := precisionBits([]complex128{1, 2i + 0.25, 3 + 0.125i, 4}, want); math.Abs(bits-2) > 1e-12 {
		t.Errorf("got %v bits, want 2", bits)
	}
	if bits := precisionBits([]complex128{complex(math.NaN(), 0), 2i, 3, 4}, want); bits != 0 {
		t.Errorf("NaN slot = %v bits, want 0", bits)
	}
}

// Self time is a span's duration minus what its direct children cover;
// children that overlap (concurrent tenants) are not subtracted twice, and
// grandchildren only count against their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50}, // overlaps span 2
		{ID: 4, Parent: 1, StartNs: 70, EndNs: 80},
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 45},
		{ID: 6, Parent: 1, StartNs: 90, EndNs: 120}, // runs past its parent
	}
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 10, 4: 10, 5: 20, 6: 30}
	got := selfTimesNs(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "ckks", "rotate")
	tr.end(id)
	tr.opBegin()
	tr.opEnd()
	if d := tr.durationsMs("ckks", "rotate"); d != nil {
		t.Errorf("nil tracer returned durations %v", d)
	}
}
