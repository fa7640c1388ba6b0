// Package workload generates synthetic inputs: bursty owner-activity traces
// for workstations (the scenario engine's owner model, and experiment E13)
// and, for E13 alone, uniform task bags and Poisson submission streams.
package workload

import (
	"fmt"
	"time"

	"vce/internal/rng"
	"vce/internal/sim"
)

// TaskSpec describes one generated task.
type TaskSpec struct {
	// ID names the task.
	ID string
	// Work is the task's work units.
	Work float64
	// ImageBytes sizes the task image.
	ImageBytes int64
	// Checkpointable marks checkpoint-cooperative tasks.
	Checkpointable bool
}

// UniformBag returns n tasks with work uniform in [lo, hi).
func UniformBag(r *rng.Source, n int, lo, hi float64) []TaskSpec {
	out := make([]TaskSpec, n)
	for i := range out {
		out[i] = TaskSpec{
			ID:         fmt.Sprintf("task-%03d", i),
			Work:       r.Range(lo, hi),
			ImageBytes: 1 << 20,
		}
	}
	return out
}

// PoissonArrivals returns arrival instants of a Poisson process with the
// given rate (events/second) over the horizon.
func PoissonArrivals(r *rng.Source, rate float64, horizon time.Duration) []time.Duration {
	if rate <= 0 {
		return nil
	}
	var out []time.Duration
	t := 0.0
	limit := horizon.Seconds()
	for {
		t += r.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// BurstyTrace generates an owner-activity trace: alternating idle and busy
// periods with exponential lengths (meanIdle, meanBusy), busy load level
// busyLoad. This is the §4.3 workstation-owner model: "execution of remote
// tasks is resumed when activity of locally initiated tasks diminishes."
func BurstyTrace(r *rng.Source, horizon time.Duration, meanIdle, meanBusy time.Duration, busyLoad float64) []sim.LoadStep {
	var steps []sim.LoadStep
	t := time.Duration(0)
	busy := false
	for t < horizon {
		var period time.Duration
		if busy {
			period = time.Duration(r.ExpFloat64() * float64(meanBusy))
			steps = append(steps, sim.LoadStep{At: t, Load: busyLoad})
		} else {
			period = time.Duration(r.ExpFloat64() * float64(meanIdle))
			steps = append(steps, sim.LoadStep{At: t, Load: 0})
		}
		if period <= 0 {
			period = time.Millisecond
		}
		t += period
		busy = !busy
	}
	return steps
}
