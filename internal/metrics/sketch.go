package metrics

import "math"

// QuantileSketch is a fixed-shape streaming quantile estimator: a
// log-bucketed histogram whose geometry is a compile-time constant, so its
// memory footprint is independent of how many samples it absorbs and its
// answers are deterministic — the same observation sequence produces the
// same counts, and therefore bit-identical quantiles, on every platform and
// at every worker count. It is the accumulator behind the scenario engine's
// steady-state p50/p99 indexes, where Dist's retain-every-sample design
// would grow with the task count.
//
// Geometry: sketchBuckets buckets spanning [2^-8, 2^24) at a resolution of
// 2^(1/16) (≈4.4% relative error) per bucket, plus clamp buckets at both
// ends. Exact minimum and maximum are tracked on the side, so Quantile(0)
// and Quantile(1) are exact and interior quantiles are clamped into the
// exact sample range.
type QuantileSketch struct {
	counts [sketchBuckets]int64
	n      int64
	min    float64
	max    float64
}

const (
	// sketchBuckets spans 32 octaves at 16 buckets per octave.
	sketchBuckets = 32 * 16
	// sketchMinExp is the exponent of the smallest resolvable value: bucket
	// 0 holds everything below 2^sketchMinExp.
	sketchMinExp = -8
	// sketchBucketsPerOctave sets the relative resolution: 2^(1/16).
	sketchBucketsPerOctave = 16
)

// bucketOf maps a sample to its bucket index, clamping at both ends.
// Non-positive and NaN samples land in bucket 0 (the sketch's domain is
// positive ratios; Observe keeps exact min/max regardless).
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	b := int(math.Floor((math.Log2(v) - sketchMinExp) * sketchBucketsPerOctave))
	if b < 0 {
		return 0
	}
	if b >= sketchBuckets {
		return sketchBuckets - 1
	}
	return b
}

// bucketValue returns the representative value of a bucket: the geometric
// midpoint of its bounds. It is the value interior quantiles report.
func bucketValue(b int) float64 {
	exp := sketchMinExp + (float64(b)+0.5)/sketchBucketsPerOctave
	return math.Exp2(exp)
}

// Observe folds one sample into the sketch.
func (s *QuantileSketch) Observe(v float64) {
	s.counts[bucketOf(v)]++
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
}

// Quantile returns the q-quantile (0 <= q <= 1) at the sketch's resolution:
// the representative value of the bucket holding the rank-⌈q·n⌉ sample,
// clamped into the exact [min, max] envelope. Out-of-range q clamps.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// rank is 1-based: the smallest k with ceil(q*n) <= k.
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < sketchBuckets; b++ {
		seen += s.counts[b]
		if seen >= rank {
			v := bucketValue(b)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}
