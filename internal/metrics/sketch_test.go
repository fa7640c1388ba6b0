package metrics

import (
	"math"
	"testing"
)

func TestSketchEmpty(t *testing.T) {
	var s QuantileSketch
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty sketch Quantile(%g) = %g, want 0", q, got)
		}
	}
}

func TestSketchSingleSample(t *testing.T) {
	var s QuantileSketch
	s.Observe(3.5)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3.5 {
			t.Fatalf("Quantile(%g) = %g, want exactly 3.5 (min==max clamp)", q, got)
		}
	}
}

func TestSketchRelativeError(t *testing.T) {
	// Interior quantiles must land within one bucket (2^(1/16) ≈ 4.4%
	// relative) of the exact order statistic for a smooth sample set.
	var s QuantileSketch
	n := 10000
	exact := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 0.01 + 100*float64(i)/float64(n-1) // spread over 4 decades
		exact[i] = v
		s.Observe(v)
	}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		want := exact[int(math.Ceil(q*float64(n)))-1]
		got := s.Quantile(q)
		rel := math.Abs(got-want) / want
		if rel > 0.05 {
			t.Errorf("Quantile(%g) = %g, exact %g, rel err %.3f > 0.05", q, got, want, rel)
		}
	}
	if got := s.Quantile(0); got != 0.01 {
		t.Errorf("Quantile(0) = %g, want exact min 0.01", got)
	}
	if got := s.Quantile(1); got != 100.01 {
		t.Errorf("Quantile(1) = %g, want exact max %g", got, 100.01)
	}
}

func TestSketchClampBuckets(t *testing.T) {
	// Values outside the resolvable span clamp to the edge buckets but keep
	// exact min/max, so the envelope stays truthful.
	var s QuantileSketch
	s.Observe(1e-9) // below 2^-8
	s.Observe(1e12) // above 2^24
	lo, hi := s.Quantile(0), s.Quantile(1)
	if lo != 1e-9 || hi != 1e12 {
		t.Fatalf("min/max not exact: %g %g", lo, hi)
	}
	// rank ceil(0.5*2)=1 → clamp bucket 0, whose representative stays
	// inside the bucket span and above the exact minimum.
	if got := s.Quantile(0.5); got < lo || got > math.Exp2(sketchMinExp+1.0/sketchBucketsPerOctave) {
		t.Fatalf("Quantile(0.5) = %g, want within clamp bucket [min, 2^(-8+1/16)]", got)
	}
	// Zero and negative samples are tolerated (bucket 0), not a panic.
	s.Observe(0)
	s.Observe(-3)
	if got := s.Quantile(0); got != -3 {
		t.Fatalf("min after negative sample = %g, want -3", got)
	}
}

func TestSketchDeterministicAcrossOrder(t *testing.T) {
	// Counts-only state means quantiles are invariant to observation order.
	var fwd, rev QuantileSketch
	vals := []float64{0.3, 1.7, 42, 0.3, 8.1, 1.7, 255}
	for _, v := range vals {
		fwd.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev.Observe(vals[i])
	}
	if fwd != rev {
		t.Fatalf("sketch state depends on observation order")
	}
}
