package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive("bids")
	b := root.Derive("loads")
	a2 := New(7).Derive("bids")
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("derive is not deterministic")
		}
	}
	// Drawing from a must not affect b's sequence relative to a fresh derive.
	bFresh := New(7).Derive("loads")
	for i := 0; i < 100; i++ {
		if b.Uint64() != bFresh.Uint64() {
			t.Fatal("sibling stream perturbed by other stream's draws")
		}
	}
}

func TestFloat64Bounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + s.Intn(50)
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestParetoBoundsAndTail(t *testing.T) {
	s := New(31)
	const n = 50000
	over := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(2.0, 1.0)
		if v < 1.0 {
			t.Fatalf("Pareto below xmin: %v", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = (1/10)^2 = 1% for alpha=2, xmin=1.
	frac := float64(over) / n
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("Pareto tail mass at 10x = %v, want ~0.01", frac)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(37)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Range(5,9) = %v", v)
		}
	}
}
