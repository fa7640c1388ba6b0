package workload

import (
	"math"
	"testing"
	"time"

	"vce/internal/rng"
)

func TestUniformBag(t *testing.T) {
	r := rng.New(1)
	bag := UniformBag(r, 50, 10, 20)
	if len(bag) != 50 {
		t.Fatalf("len = %d", len(bag))
	}
	ids := map[string]bool{}
	for _, spec := range bag {
		if spec.Work < 10 || spec.Work >= 20 {
			t.Fatalf("work out of range: %v", spec.Work)
		}
		if ids[spec.ID] {
			t.Fatalf("duplicate id %s", spec.ID)
		}
		ids[spec.ID] = true
	}
}

func TestPoissonArrivals(t *testing.T) {
	r := rng.New(3)
	arr := PoissonArrivals(r, 1, 1000*time.Second)
	if len(arr) < 800 || len(arr) > 1200 {
		t.Fatalf("rate-1 process produced %d events in 1000s", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] <= arr[i-1] {
			t.Fatal("arrivals not strictly increasing")
		}
	}
	if arr[len(arr)-1] >= 1000*time.Second {
		t.Fatal("arrival beyond horizon")
	}
	if PoissonArrivals(r, 0, time.Hour) != nil {
		t.Fatal("zero rate should produce no arrivals")
	}
}

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

func TestDeterministicGeneration(t *testing.T) {
	a := UniformBag(rng.New(9), 10, 1, 2)
	b := UniformBag(rng.New(9), 10, 1, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
}
