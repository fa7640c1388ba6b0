package scenario

import (
	"context"
	"testing"
)

// BenchmarkStreamingMillion is the heavy-traffic smoke: the committed
// diurnal-steady example pushes one million open-loop arrivals through a
// single cell, and the run must hold the bounded-memory contract — the task
// pool's high-water mark stays a function of the queue limit and the slot
// count, never of the task count. CI runs it at -benchtime 1x as a blocking
// regression gate (see .github/workflows/ci.yml).
func BenchmarkStreamingMillion(b *testing.B) {
	sp, err := Load("../../examples/scenarios/diurnal-steady.json")
	if err != nil {
		b.Fatal(err)
	}
	sp = sp.withDefaults()
	totalSlots := 0
	for _, cl := range sp.Machines.Classes {
		slots := cl.Slots
		if slots == 0 {
			slots = 1
		}
		totalSlots += cl.Count * slots
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar, err := newArena(sp)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := ar.runCell(context.Background(), sp.Policies.Scheduling[0], sp.Policies.Migration[0], 0, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Live records are bounded by the admission queue plus the running
		// tasks; the pool may additionally retain one completion's worth of
		// slack per slot before recycling catches up.
		if cap := sp.Workload.QueueLimit + 2*totalSlots; ar.pool.peak > cap {
			b.Fatalf("task-pool peak %d exceeds the bounded-memory cap %d (queue %d + 2×%d slots) — streaming memory grew with the task count",
				ar.pool.peak, cap, sp.Workload.QueueLimit, totalSlots)
		}
		// Every offered task must be accounted: completed, rejected, or (for
		// at most a slot-count's worth) still in flight at the horizon.
		if got := idx.Completed + idx.Rejected; got < sp.Workload.Tasks-totalSlots {
			b.Fatalf("accounted %d of %d offered tasks (completed %d, rejected %d)",
				got, sp.Workload.Tasks, idx.Completed, idx.Rejected)
		}
		b.ReportMetric(float64(ar.pool.peak), "pool-peak")
		b.ReportMetric(float64(idx.Completed), "completed")
		b.StartTimer()
	}
}
