// Package metrics provides the measurement substrate for VCE experiments:
// sample distributions, a fixed-shape streaming quantile sketch,
// time-weighted gauges (for utilization accounting), and a plain-text table
// renderer used by the experiment harness to print paper-style result tables.
package metrics

import (
	"math"
	"time"
)

// Dist accumulates a sample distribution and reports summary statistics.
// Samples are retained for Stddev, which stays the exact two-pass
// computation — a Welford running variance rounds differently in the last
// ulps, and the scenario artifacts pin stddev bytes at full precision — but
// its result is cached, so repeated reads between observations are O(1).
// The sum and maximum are tracked incrementally, so Mean and Max are O(1).
type Dist struct {
	samples  []float64
	sum      float64
	max      float64
	stddev   float64
	stddevOK bool
}

// Observe records one sample.
func (d *Dist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.stddevOK = false
	d.sum += v
	if len(d.samples) == 1 || v > d.max {
		d.max = v
	}
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the sample mean, or 0 with no samples.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

// Max returns the largest sample, or 0 with no samples.
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.max
}

// Stddev returns the population standard deviation. The exact two-pass
// result is cached until the next Observe, so repeated summary reads cost
// O(1) and the value is bit-stable against published artifact bytes.
func (d *Dist) Stddev() float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	if !d.stddevOK {
		mean := d.Mean()
		var ss float64
		for _, v := range d.samples {
			dev := v - mean
			ss += dev * dev
		}
		d.stddev = math.Sqrt(ss / float64(n))
		d.stddevOK = true
	}
	return d.stddev
}

// TimeWeighted tracks a piecewise-constant value over (virtual) time and
// integrates it, yielding time-weighted averages. This is the correct way to
// measure machine utilization and queue lengths in a discrete-event run.
type TimeWeighted struct {
	last     time.Duration
	value    float64
	integral float64
	started  bool
	start    time.Duration
}

// Set records that the tracked value became v at virtual time now.
func (tw *TimeWeighted) Set(now time.Duration, v float64) {
	if !tw.started {
		tw.started = true
		tw.start = now
	} else if now > tw.last {
		tw.integral += tw.value * float64(now-tw.last)
	}
	tw.last = now
	tw.value = v
}

// Average returns the time-weighted mean over [start, now].
func (tw *TimeWeighted) Average(now time.Duration) float64 {
	if !tw.started || now <= tw.start {
		return 0
	}
	integral := tw.integral
	if now > tw.last {
		integral += tw.value * float64(now-tw.last)
	}
	return integral / float64(now-tw.start)
}
