package scenario

import (
	"context"
	"testing"

	"vce/internal/obs"
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
		ar := newArena(sp)
		idx, err := ar.runCell(context.Background(), sp.Policies.Scheduling[0], sp.Policies.Migration[0], 0, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Live records are bounded by the admission queue plus the running
		// tasks; the pool may additionally retain one completion's worth of
		// slack per slot before recycling catches up. A slot is created only
		// when none is free, so on a fresh arena created is the live peak.
		if cap := sp.Workload.QueueLimit + 2*totalSlots; ar.pool.created > cap {
			b.Fatalf("task-pool peak %d exceeds the bounded-memory cap %d (queue %d + 2×%d slots) — streaming memory grew with the task count",
				ar.pool.created, cap, sp.Workload.QueueLimit, totalSlots)
		}
		// Every offered task must be accounted: completed, rejected, or (for
		// at most a slot-count's worth) still in flight at the horizon.
		if got := idx.Completed + idx.Rejected; got < sp.Workload.Tasks-totalSlots {
			b.Fatalf("accounted %d of %d offered tasks (completed %d, rejected %d)",
				got, sp.Workload.Tasks, idx.Completed, idx.Rejected)
		}
		b.ReportMetric(float64(ar.pool.created), "pool-peak")
		b.ReportMetric(float64(idx.Completed), "completed")
		b.StartTimer()
	}
}

// churnCellSpec is a closed owner-churn cell in the shape of the benchmark's
// sweep_cold world at an eighth of its size: workstations plus a few slotted
// mimd machines, heavy-tailed checkpointable work, a constrained fraction,
// owners coming and going and rare machine failures.
func churnCellSpec() *Spec {
	return &Spec{
		Name:     "alloc-budget-churn",
		HorizonS: 3600,
		Machines: MachineSetSpec{
			BandwidthMiBps: Float64(4),
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 30, Speed: Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: 2, Slots: 2, Speed: Dist{Kind: "fixed", Value: 6}},
			},
		},
		Workload: WorkloadSpec{
			Tasks:          256,
			Work:           Dist{Kind: "pareto", Alpha: 1.6, Xmin: 40},
			Arrivals:       ArrivalSpec{Kind: "poisson", RatePerS: 256.0 / 1800},
			ImageMiB:       2,
			Checkpointable: true,
			Constrained:    &ConstrainedSpec{Fraction: 0.1, Class: "mimd"},
		},
		Owner:  &OwnerSpec{MeanIdleS: 300, MeanBusyS: 120},
		Faults: &FaultSpec{MTBFHours: 20, DownS: 120},
		Policies: PolicyMatrix{
			Scheduling: []string{"utilization-first"},
			Migration:  []string{"checkpoint"},
		},
		Runs: 1,
		Seed: 1,
	}
}

// dagCellSpec is the benchmark's small three-site DAG (the daemon
// workload's shape): 12 machines over campus, center and annex sites, a
// 120-task random DAG whose items carry a home site, and data staged
// between sites.
func dagCellSpec() *Spec {
	return &Spec{
		Name:     "alloc-budget-dag",
		HorizonS: 7200,
		Machines: MachineSetSpec{
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 6, Site: "campus", Speed: Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: 2, Slots: 4, Site: "center", Speed: Dist{Kind: "fixed", Value: 4}},
				{Class: "vector", Count: 4, Site: "annex", Speed: Dist{Kind: "uniform", Min: 1, Max: 3}},
			},
			BandwidthMiBps: Float64(4),
			LatencyMs:      2,
			Topology: &TopologySpec{
				IntraLatencyMs: 1, IntraBandwidthMiBps: 8,
				InterLatencyMs: 25, InterBandwidthMiBps: 0.75,
			},
		},
		Workload: WorkloadSpec{
			Tasks:    120,
			Work:     Dist{Kind: "uniform", Min: 20, Max: 80},
			Arrivals: ArrivalSpec{Kind: "batch"},
			Graph:    &GraphSpec{Kind: "random", EdgeProb: 0.2, DataMiB: 4},
			ImageMiB: 2,
		},
		Policies: PolicyMatrix{
			Scheduling: []string{"locality", "greedy-best-fit"},
			Migration:  []string{"none"},
		},
		Runs: 1,
		Seed: 1,
	}
}

// TestClosedCellAllocationBudget pins what one closed cell allocates on a
// recycled arena, the sweep executor's steady state. Placement passes (the
// placement policy with its queue, score column and site splits is the
// arena's), the resident walks of the checkpoint tick and of evacuations,
// staged deliveries and the checkpoint records on the pooled tasks all
// reuse arena, policy or record storage, and the handlers the kernel and
// the cluster call back are bound once per arena, so what remains is
// per-cell setup (the migration policies). A regression that brings back a
// per-event, per-round or per-checkpoint allocation adds hundreds per cell
// and fails here.
func TestClosedCellAllocationBudget(t *testing.T) {
	// Each budget is a third above what the cell allocated while the arena
	// still built a new placement policy per cell (go1.24, linux/amd64): 72
	// for the churn cell, 17 and 16 for the DAG cell under locality and
	// greedy-best-fit. They now read 58, 4 and 4. One allocation per
	// checkpoint would add about 610 to the churn cell; allocating the
	// resident walks and idle-machine lists per event, about 1500; a score
	// column allocated per placement round, about 120 to the DAG cell and
	// 390 to the churn cell.
	for _, c := range []struct {
		spec             *Spec
		sched, migration string
		budget           float64
	}{
		{churnCellSpec(), "utilization-first", "checkpoint", 96},
		{dagCellSpec(), "locality", "none", 22},
		{dagCellSpec(), "greedy-best-fit", "none", 21},
	} {
		sp := c.spec.withDefaults()
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		ar := newArena(sp)
		var runErr error
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ar.runCell(context.Background(), c.sched, c.migration, 0, false, nil); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		t.Logf("%s %s/%s: %.0f allocations per cell (%.2f per task)", sp.Name, c.sched, c.migration, allocs, allocs/float64(sp.Workload.Tasks))
		if allocs > c.budget {
			t.Errorf("one closed %s cell under %s/%s made %.0f allocations on a recycled arena, budget %.0f",
				sp.Name, c.sched, c.migration, allocs, c.budget)
		}
	}
}

// TestHeapHoldsWhatRuns: the kernel's pending queue holds what is running,
// not the world. A cell keeps one world event pending, so the queue is
// bounded by what can be in flight at once: one completion per machine, one
// staged delivery or migration landing per slot (a task in flight left the
// queue for one destination slot), and one each of world event, checkpoint
// tick and arrival pump — machines + total slots + 3, whatever the length
// of the owner traces, the task count or the fault schedule.
func TestHeapHoldsWhatRuns(t *testing.T) {
	for _, c := range []struct {
		spec             *Spec
		sched, migration string
	}{
		{churnCellSpec(), "utilization-first", "checkpoint"},
		{dagCellSpec(), "locality", "none"},
	} {
		sp := c.spec.withDefaults()
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		ar := newArena(sp)
		var tr obs.Cell
		if _, err := ar.runCell(context.Background(), c.sched, c.migration, 0, false, &tr); err != nil {
			t.Fatal(err)
		}
		slots := 0
		for _, n := range ar.slots {
			slots += n
		}
		bound := len(ar.machines) + slots + 3
		t.Logf("%s %s/%s: heap max %d, bound %d", sp.Name, c.sched, c.migration, tr.Kernel.HeapMax, bound)
		if tr.Kernel.HeapMax > bound {
			t.Errorf("one %s cell under %s/%s held %d pending events, more than %d machines + %d slots + 3",
				sp.Name, c.sched, c.migration, tr.Kernel.HeapMax, len(ar.machines), slots)
		}
	}
}
