package scenario

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"vce/internal/sched"
)

// The seam tests drive the pieces of a cell — world generation, placement,
// the task pool and the checkpoint clock — directly on an arena, without
// RunContext.

func testArena(t *testing.T, sp *Spec) *runArena {
	t.Helper()
	ar, err := newArena(sp.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// streamSpec is an overloaded open-loop cell: 20k diurnal arrivals at ten a
// second against 8 slots draining about one a second, behind a 32-deep
// queue.
func streamSpec() *Spec {
	return &Spec{
		Name:     "stream-test",
		HorizonS: 2400,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			{Class: "workstation", Count: 4, Slots: 2, Speed: Dist{Kind: "fixed", Value: 2}},
		}},
		Workload: WorkloadSpec{
			Tasks:          20000,
			Work:           Dist{Kind: "uniform", Min: 4, Max: 12},
			Arrivals:       ArrivalSpec{Kind: "diurnal", RatePerS: 10, Amplitude: 0.5, PeriodS: 600},
			QueueLimit:     32,
			Checkpointable: true,
		},
		Owner:    &OwnerSpec{MeanIdleS: 200, MeanBusyS: 40},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"checkpoint"}},
		Runs:     3,
		Seed:     7,
	}
}

// testCell prepares run 0 of sp on a new arena and starts the given cell on
// it, for tests that then drive the kernel by hand.
func testCell(t *testing.T, sp *Spec, sched, migration string) (*runArena, *cell) {
	t.Helper()
	ar := testArena(t, sp)
	if err := ar.prepare(0); err != nil {
		t.Fatal(err)
	}
	c, err := ar.startCell(sched, migration, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ar, c
}

func sameNested[T comparable](a, b [][]T) bool {
	return slices.EqualFunc(a, b, func(x, y []T) bool { return slices.Equal(x, y) })
}

// TestWorldIsAFunctionOfSpecAndRun: the world of run 2 generated on an arena
// that already generated (and executed a cell of) run 0 equals the world of
// run 2 generated on a new arena, field by field — nothing of an earlier
// world or cell survives into it.
func TestWorldIsAFunctionOfSpecAndRun(t *testing.T) {
	for name, sp := range map[string]*Spec{"churn": testSpec(), "streaming": streamSpec(), "dag": topoSpec()} {
		sp.Runs = 3
		used := testArena(t, sp)
		if _, err := used.runCell(context.Background(), sp.Policies.Scheduling[0], sp.Policies.Migration[0], 0, false, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		used.generateWorld(2)
		fresh := testArena(t, sp)
		fresh.generateWorld(2)
		a, b := &used.world, &fresh.world
		for field, same := range map[string]bool{
			"run":        a.run == b.run && a.run == 3,
			"specs":      reflect.DeepEqual(a.specs, b.specs),
			"ownerSteps": sameNested(a.ownerSteps, b.ownerSteps),
			"tasks":      slices.Equal(a.tasks, b.tasks),
			"faultAt":    sameNested(a.faultAt, b.faultAt),
			"parents":    sameNested(a.parents, b.parents),
			"children":   sameNested(a.children, b.children),
			"graphCP":    a.graphCP == b.graphCP,
		} {
			if !same {
				t.Errorf("%s: world.%s of run 2 depends on the arena's history", name, field)
			}
		}
		if streaming := name == "streaming"; streaming != (len(b.tasks) == 0) {
			t.Errorf("%s: world holds %d tasks", name, len(b.tasks))
		}
	}
}

// stagingSpec is a hand-built two-machine DAG cell: a fast workstation at
// site a, a slow one-slot mimd host at site b behind a 0.1 MiB/s pipe, and a
// root task fanning out to three children that each need 10 MiB of its
// output — 100 s of staging to reach site b, none to stay at a.
func stagingSpec() *Spec {
	return &Spec{
		Name:     "staging-test",
		HorizonS: 1000,
		Machines: MachineSetSpec{
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 1, Speed: Dist{Kind: "fixed", Value: 2}, Site: "a"},
				{Class: "mimd", Count: 1, Speed: Dist{Kind: "fixed", Value: 1}, Site: "b"},
			},
			Topology: &TopologySpec{InterBandwidthMiBps: 0.1},
		},
		Workload: WorkloadSpec{
			Tasks: 4,
			Work:  Dist{Kind: "fixed", Value: 10},
			Graph: &GraphSpec{Kind: "fanout", FanOut: 3, DataMiB: 10},
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     1,
		Seed:     1,
	}
}

// queued lists the cell's waiting items as its policy holds them.
func queued(c *cell) []sched.Item {
	var items []sched.Item
	c.pol.Each(func(it *sched.Item) { items = append(items, *it) })
	return items
}

// TestStagingReservationAndBounce pins the placement seam. The root runs on
// the fast machine (index 0) and completes at t=5s; child 1 follows it
// there, child 2 is placed on machine 1 and starts staging, child 3 waits.
// While the transfer is in flight machine 1 hosts nothing, yet a later
// placement round must not spend its one slot on child 3. Then machine 1
// fails mid-transfer: the delivery bounces back to the queue and the task
// runs on machine 0 instead. With machine 0 failed as well nothing can be
// placed, so the queue shows the fault requeue as enqueued: like every other
// entry it carries its task's data-affinity site.
func TestStagingReservationAndBounce(t *testing.T) {
	ar, c := testCell(t, stagingSpec(), "greedy-best-fit", "none")
	far := ar.machines[1]
	ar.cluster.Sim.RunUntil(6 * time.Second)
	c.tryPlace() // a later round, with child 3 still queued
	if ar.inflight[1] != 1 || far.RemoteTasks() != 0 {
		t.Fatalf("mid-transfer: inflight=%d residents=%d on the far machine, want a reservation and no resident", ar.inflight[1], far.RemoteTasks())
	}
	if waiting := queued(c); len(waiting) != 1 || string(waiting[0].Task) != "task-003" {
		t.Fatalf("mid-transfer: waiting = %v, want only task-003 — the reserved slot was spent", waiting)
	}

	c.fail(1)
	c.fail(0)
	waiting := queued(c)
	if c.failed != 1 || len(waiting) != 2 || waiting[1].Task != "task-001" {
		t.Fatalf("both machines down: failed=%d waiting=%v, want task-001 requeued behind task-003", c.failed, waiting)
	}
	for _, it := range waiting {
		if ar.pool.ids[it.Ref] != string(it.Task) {
			t.Errorf("%s queued with Ref %d, the slot of %s", it.Task, it.Ref, ar.pool.ids[it.Ref])
		}
		if home := int(ar.homeSite[it.Ref]); home != 0 || it.HomeSite != home+1 {
			t.Errorf("%s queued with HomeSite %d, want %d (its parent finished at site a)", it.Task, it.HomeSite, home+1)
		}
	}
	c.repair(0)
	ar.cluster.Sim.RunUntil(ar.horizon)
	if ar.inflight[1] != 0 || far.Completed() != 0 {
		t.Errorf("after the bounce: inflight=%d, far machine completed %d tasks, want 0 and 0", ar.inflight[1], far.Completed())
	}
	if ar.doneHost[2] != 0 {
		t.Errorf("task-002 finished on machine %d, want the bounce to land it on machine 0", ar.doneHost[2])
	}
	idx := c.measure(ar.cluster.Sim.Now())
	if idx.Completed != 4 || idx.Rejected != 0 || idx.XferWaitS < 100 {
		t.Errorf("indexes = %+v, want 4 completed, none rejected and the 100 s transfer accounted", idx)
	}
}

// TestPoolSlots pins the pool seam: a closed cell holds slots 0..n-1 in
// task order for its whole life, and a streaming cell's live records stay
// bounded by the queue and the slots however many tasks arrive.
func TestPoolSlots(t *testing.T) {
	sp := testSpec()
	ar := testArena(t, sp)
	for run := 0; run < 2; run++ { // the second cell recycles the first one's records
		if _, err := ar.runCell(context.Background(), "greedy-best-fit", "suspend", run, false, nil); err != nil {
			t.Fatal(err)
		}
		n := sp.Workload.Tasks
		p := &ar.pool
		if p.created != n || p.live != n || p.peak != n || len(p.free) != 0 {
			t.Fatalf("closed cell: created=%d live=%d peak=%d free=%d, want %d held slots", p.created, p.live, p.peak, len(p.free), n)
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("task-%03d", i)
			if p.ids[i] != id || p.task(i).ID != id || p.task(i).Ref != i || p.gens[i] != ar.world.tasks[i] {
				t.Fatalf("slot %d holds %q (record %q, Ref %d), want task %d of the world", i, p.ids[i], p.task(i).ID, p.task(i).Ref, i)
			}
		}
	}

	sp = streamSpec()
	ar = testArena(t, sp)
	idx, err := ar.runCell(context.Background(), "greedy-best-fit", "checkpoint", 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := sp.Machines.Classes[0].Count * sp.Machines.Classes[0].Slots
	if bound := sp.Workload.QueueLimit + 2*slots; ar.pool.peak > bound || ar.pool.created > bound {
		t.Errorf("streaming cell: pool peak %d, created %d, want at most queue_limit + 2×slots = %d", ar.pool.peak, ar.pool.created, bound)
	}
	if idx.Completed < 1000 || idx.Rejected < 1000 {
		t.Errorf("streaming cell completed %d and rejected %d of %d: not the overloaded cell this test assumes", idx.Completed, idx.Rejected, sp.Workload.Tasks)
	}
	// A checkpoint record lives as long as its task: at the horizon every
	// record belongs to a slot that is held and has run, never to a completed
	// task whose slot (and id) went to a later arrival.
	if n, _ := ar.cell.ck.Stats(); n == 0 {
		t.Fatal("streaming cell took no checkpoint")
	}
	var stale []string
	for _, path := range ar.cluster.FS.Paths() {
		s, err := strconv.Atoi(strings.TrimPrefix(path, "/ckpt/task-"))
		if err != nil || slices.Contains(ar.pool.free, s) || !ar.pool.everPlaced[s] {
			stale = append(stale, path)
		}
	}
	if len(stale) > 0 {
		t.Errorf("%d checkpoint records outlived their tasks (slot free, or its tenant never ran): %v", len(stale), stale)
	}
}

// TestRecycledSlotShipsItsOwnImage: a streaming arrival inherits its slot's
// task id from a completed predecessor, but not the predecessor's checkpoint
// record. The first task checkpoints on its host and completes; the second
// takes the same id on the other machine and is evacuated to the first host
// before its own first checkpoint — that move ships the full image, where a
// leaked record with a current replica at the destination would ship nothing.
func TestRecycledSlotShipsItsOwnImage(t *testing.T) {
	ar, c := testCell(t, &Spec{
		Name:                "recycle-test",
		HorizonS:            100,
		CheckpointIntervalS: 10,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			// Not workstations: those alternate byte order, and a checkpoint
			// image only restarts on a compatible host.
			{Class: "mimd", Count: 2, Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{
			Tasks:          2,
			Work:           Dist{Kind: "fixed", Value: 25},
			Arrivals:       ArrivalSpec{Kind: "trace", TraceS: []float64{1, 30}},
			ImageMiB:       1,
			Checkpointable: true,
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"checkpoint"}},
		Runs:     1,
		Seed:     1,
	}, "greedy-best-fit", "checkpoint")
	sim := ar.cluster.Sim
	sim.RunUntil(2 * time.Second)
	first := ar.pool.task(0).Machine()
	if first == nil {
		t.Fatal("task-000 not placed at t=2s")
	}
	other := ar.machines[1-first.Index()]
	sim.RunUntil(27 * time.Second) // checkpointed at 10 s and 20 s, done at 26 s
	if n, _ := c.ck.Stats(); n != 2 || c.acc.completed != 1 || ar.pool.live != 0 {
		t.Fatalf("t=27s: %d checkpoints, %d completed, %d live slots, want 2, 1 and 0", n, c.acc.completed, ar.pool.live)
	}
	first.SetLocalLoad(1) // the owner is back: the second arrival goes elsewhere
	sim.RunUntil(32 * time.Second)
	if tenant := ar.pool.task(0); tenant.ID != "task-000" || tenant.Machine() != other {
		t.Fatalf("t=32s: slot 0 holds %q on %v, want task-000 recycled onto %s", tenant.ID, tenant.Machine(), other.Name())
	}
	first.SetLocalLoad(0)
	other.SetLocalLoad(1) // evacuates the tenant to the predecessor's host
	if c.lb.Migrations != 1 || c.lb.TotalBytesMoved() != ar.imageBytes {
		t.Errorf("%d migrations moved %d bytes, want 1 moving the %d-byte image", c.lb.Migrations, c.lb.TotalBytesMoved(), ar.imageBytes)
	}
}

// TestCheckpointCadence: a cell has one checkpoint clock. Every resident
// checkpoints at the instants k·interval, whenever it was placed, so the
// checkpoints taken equal the residents summed over those instants.
func TestCheckpointCadence(t *testing.T) {
	// Closed: poisson arrivals, owner churn, faults.
	ar, c := testCell(t, testSpec(), "greedy-best-fit", "checkpoint")
	var want int64
	for at := c.ck.Interval; at <= ar.horizon; at += c.ck.Interval {
		ar.cluster.Sim.RunUntil(at - time.Nanosecond)
		for _, m := range ar.machines {
			want += int64(m.RemoteTasks())
		}
	}
	ar.cluster.Sim.RunUntil(ar.horizon)
	if got, _ := c.ck.Stats(); got != want || got == 0 {
		t.Errorf("%d checkpoints taken, %d residents over the tick instants", got, want)
	}
}
