// Package workload generates bursty owner-activity traces for workstations:
// the scenario engine's owner model, and experiment E13's.
package workload

import (
	"time"

	"vce/internal/rng"
	"vce/internal/sim"
)

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
