package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for _, v := range []float64{4, 1, 3, 2, 5} {
		d.Observe(v)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Max() != 5 {
		t.Fatalf("max = %v", d.Max())
	}
}

func TestDistStddev(t *testing.T) {
	var d Dist
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.Observe(v)
	}
	if got := d.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Max() != 0 || d.Stddev() != 0 {
		t.Fatal("empty dist should report zeros")
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 1)              // value 1 for 10s
	tw.Set(10*time.Second, 0) // value 0 for 10s
	tw.Set(20*time.Second, 1) // value 1 for 10s
	avg := tw.Average(30 * time.Second)
	if math.Abs(avg-2.0/3.0) > 1e-9 {
		t.Fatalf("avg = %v, want 2/3", avg)
	}
}

func TestTimeWeightedBeforeStart(t *testing.T) {
	var tw TimeWeighted
	if tw.Average(time.Second) != 0 {
		t.Fatal("average before any Set should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 200)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Cell(0, 1) != "1.5" {
		t.Fatalf("cell = %q, want 1.5 (trailing zeros trimmed)", tb.Cell(0, 1))
	}
	if tb.Cell(1, 1) != "200" {
		t.Fatalf("cell = %q", tb.Cell(1, 1))
	}
}

func TestTableRowsCopy(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	rows := tb.Rows()
	rows[0][0] = "mutated"
	if tb.Cell(0, 0) != "x" {
		t.Fatal("Rows returned aliased storage")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.0:     "1",
		1.25:    "1.25",
		0.0001:  "0.0001",
		100.5:   "100.5",
		0:       "0",
		-2.5000: "-2.5",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestDistInterleavedObserveAndSummary pins the incremental-statistics
// contract: alternating Observe with Max/Mean/Stddev reads (the monitoring
// pattern) must stay correct, and Stddev's cache must not go stale.
func TestDistInterleavedObserveAndSummary(t *testing.T) {
	var d Dist
	vals := []float64{5, 1, 9, 3, 7, 2, 8}
	hi, sum := vals[0], 0.0
	for i, v := range vals {
		d.Observe(v)
		sum += v
		if v > hi {
			hi = v
		}
		if d.Max() != hi {
			t.Fatalf("after %d samples: max = %v, want %v", i+1, d.Max(), hi)
		}
		if got, want := d.Mean(), sum/float64(i+1); math.Abs(got-want) > 1e-12 {
			t.Fatalf("mean = %v, want %v", got, want)
		}
		// Stddev must recompute after every Observe (cache invalidation).
		mean := sum / float64(i+1)
		var ss float64
		for _, w := range vals[:i+1] {
			ss += (w - mean) * (w - mean)
		}
		if got, want := d.Stddev(), math.Sqrt(ss/float64(i+1)); got != want {
			t.Fatalf("stddev after %d samples = %v, want %v (stale cache?)", i+1, got, want)
		}
	}
}

// TestDistStddevMatchesTwoPass pins the bit-stability guarantee: Stddev is
// the exact two-pass population computation (not a running approximation),
// because scenario artifacts publish its bytes at full precision.
func TestDistStddevMatchesTwoPass(t *testing.T) {
	var d Dist
	vals := []float64{842.2500495409358, 745.3294044427646, 1764.319283496, 1627.904650011}
	for _, v := range vals {
		d.Observe(v)
	}
	mean := d.Mean()
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	want := math.Sqrt(ss / float64(len(vals)))
	if got := d.Stddev(); got != want {
		t.Fatalf("stddev = %b, want exact two-pass %b", got, want)
	}
}
