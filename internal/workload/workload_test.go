package workload

import (
	"math"
	"testing"
	"time"

	"vce/internal/rng"
)

func TestBurstyTraceAlternates(t *testing.T) {
	r := rng.New(4)
	steps := BurstyTrace(r, time.Hour, 5*time.Minute, time.Minute, 1.0)
	if len(steps) < 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	for i, s := range steps {
		if i > 0 && steps[i].At <= steps[i-1].At {
			t.Fatal("steps not increasing in time")
		}
		want := 0.0
		if i%2 == 1 {
			want = 1.0
		}
		if s.Load != want {
			t.Fatalf("step %d load = %v, want alternating", i, s.Load)
		}
	}
	// Duty cycle sanity: with 5:1 idle:busy means, busy fraction ~1/6.
	var busyTime, total time.Duration
	for i := 0; i < len(steps)-1; i++ {
		dur := steps[i+1].At - steps[i].At
		total += dur
		if steps[i].Load > 0 {
			busyTime += dur
		}
	}
	frac := float64(busyTime) / float64(total)
	if math.Abs(frac-1.0/6.0) > 0.12 {
		t.Fatalf("busy fraction = %v, want ~0.17", frac)
	}
}
