package scenario

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/sched"
	"vce/internal/sim"
)

// The seam tests drive the pieces of a cell — world generation, placement,
// the task pool and the checkpoint clock — directly on an arena, without
// RunContext.

func testArena(t *testing.T, sp *Spec) *runArena {
	t.Helper()
	return newArena(sp.withDefaults())
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
	ar.startCell(sched, migration, 0)
	return ar, &ar.cell
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
			"run":      a.run == b.run && a.run == 3,
			"specs":    reflect.DeepEqual(a.specs, b.specs),
			"tasks":    slices.Equal(a.tasks, b.tasks),
			"events":   slices.Equal(a.events, b.events),
			"parents":  sameNested(a.parents, b.parents),
			"children": sameNested(a.children, b.children),
			"graphCP":  a.graphCP == b.graphCP,
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

// TestOneDrawRule pins the task-draw rule. Each of a task's draws comes
// from its own derived stream, so a closed bag's arrivals and work do not
// depend on whether the workload constrains any task. And task i of a
// streaming run is the i-th draw of taskDraws over the run's derived
// streams, refused arrivals included, so every cell of a run consumes the
// streams alike whatever its queue state.
func TestOneDrawRule(t *testing.T) {
	// Closed: poisson arrivals, a quarter of the tasks constrained, against
	// the same spec with no constraint.
	sp := testSpec()
	free := *sp
	free.Workload.Constrained = nil
	ar, plain := testArena(t, sp), testArena(t, &free)
	for run := 0; run < 2; run++ {
		ar.generateWorld(run)
		plain.generateWorld(run)
		flagged := 0
		for i, g := range ar.world.tasks {
			p := plain.world.tasks[i]
			if g.arrival != p.arrival || g.work != p.work || p.constrained {
				t.Errorf("closed run %d task %d: constrained draw %+v, unconstrained %+v", run, i, g, p)
			}
			if g.constrained {
				flagged++
			}
		}
		if n := sp.Workload.Tasks; len(ar.world.tasks) != n || len(plain.world.tasks) != n || flagged == 0 || flagged == n {
			t.Errorf("closed run %d: bags of %d and %d tasks (want %d), %d constrained", run, len(ar.world.tasks), len(plain.world.tasks), n, flagged)
		}
	}

	// Streaming: record each arrival the pump offers — an admitted one as
	// its slot holds it, a refused one as the pending pump event held it.
	sp = streamSpec()
	sp.Workload.Constrained = &ConstrainedSpec{Fraction: 0.3, Class: "workstation"}
	ar, c := testCell(t, sp, "greedy-best-fit", "checkpoint")
	var offered []taskGen
	refused := 0
	for sim := ar.cluster.Sim; sim.Now() < ar.horizon; {
		pending, full, n := c.arriving, c.pol.Len() >= sp.Workload.QueueLimit, c.offered
		next := ar.pool.created // the slot an admission acquires
		if k := len(ar.pool.free); k > 0 {
			next = ar.pool.free[k-1]
		}
		if !sim.Step() {
			break
		}
		switch {
		case c.offered == n:
		case full:
			offered = append(offered, pending)
			refused++
		default:
			offered = append(offered, ar.pool.slot(next).gen)
		}
	}
	if refused == 0 || refused == len(offered) {
		t.Fatalf("streaming cell refused %d of %d arrivals: not the overloaded cell this test assumes", refused, len(offered))
	}
	d := newTaskDraws(ar.sp, derivedStreams(ar.sp, 0))
	want := make([]taskGen, len(offered))
	for i := range want {
		want[i], _ = d.next()
	}
	for i := range offered {
		if offered[i] != want[i] {
			t.Fatalf("streaming arrival %d of %d (%d refused) drew %+v, want draw %d of the run, %+v",
				i, len(offered), refused, offered[i], i, want[i])
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
	c.pol.(interface{ Each(func(*sched.Item)) }).Each(func(it *sched.Item) { items = append(items, *it) })
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
	ar.tryPlace() // a later round, with child 3 still queued
	if ar.inflight[1] != 1 || far.RemoteTasks() != 0 {
		t.Fatalf("mid-transfer: inflight=%d residents=%d on the far machine, want a reservation and no resident", ar.inflight[1], far.RemoteTasks())
	}
	if waiting := queued(c); len(waiting) != 1 || waiting[0].Ref != 3 {
		t.Fatalf("mid-transfer: waiting = %v, want only task-003 — the reserved slot was spent", waiting)
	}

	ar.fail(1)
	ar.fail(0)
	waiting := queued(c)
	if c.failed != 1 || len(waiting) != 2 || waiting[1].Ref != 1 {
		t.Fatalf("both machines down: failed=%d waiting=%v, want task-001 requeued behind task-003", c.failed, waiting)
	}
	for _, it := range waiting {
		if home := int(ar.pool.slot(it.Ref).homeSite); home != 0 || it.HomeSite != home+1 {
			t.Errorf("slot %d queued with HomeSite %d, want %d (its parent finished at site a)", it.Ref, it.HomeSite, home+1)
		}
	}
	ar.repair(0)
	ar.cluster.Sim.RunUntil(ar.horizon)
	if ar.inflight[1] != 0 {
		t.Errorf("after the bounce: inflight=%d, want 0", ar.inflight[1])
	}
	// The far machine completes nothing: the bounce lands task-002 on
	// machine 0 with the rest.
	for i := range 4 {
		if h := ar.pool.slot(i).doneHost; h != 0 {
			t.Errorf("task-%03d finished on machine %d, want machine 0", i, h)
		}
	}
	idx := ar.measure(ar.cluster.Sim.Now())
	if idx.Completed != 4 || idx.Rejected != 0 || idx.XferWaitS < 100 {
		t.Errorf("indexes = %+v, want 4 completed, none rejected and the 100 s transfer accounted", idx)
	}
}

// TestAuditedSnapshotCatchesAWrongEntry shows that an audited placement
// pass compares the fleet snapshot with a full re-derivation: mid-transfer
// in the staging cell, machine 1's one slot is reserved and child 3 waits,
// and a snapshot entry planted to offer that slot is reported by the next
// pass.
func TestAuditedSnapshotCatchesAWrongEntry(t *testing.T) {
	ar := testArena(t, stagingSpec())
	if err := ar.prepare(0); err != nil {
		t.Fatal(err)
	}
	auditor := sim.AttachAuditor(ar.cluster)
	ar.startCell("greedy-best-fit", "none", 0)
	ar.auditor = auditor
	ar.cluster.Sim.RunUntil(6 * time.Second)
	if v := auditor.Violations(); len(v) != 0 || ar.pol.Len() != 1 || ar.states[1].Slots != 0 {
		t.Fatalf("before the plant: violations %v, %d waiting, machine 1 offers %d slots; want none, 1 and 0", v, ar.pol.Len(), ar.states[1].Slots)
	}
	ar.states[1].Slots++
	ar.free++
	ar.tryPlace()
	v := auditor.Violations()
	if len(v) == 0 || !strings.Contains(v[0], "placement snapshot: "+ar.machines[1].Name()) {
		t.Fatalf("a planted snapshot entry was not reported; violations: %v", v)
	}
}

// TestCompletionBeforeArrivalFailsTheRun shows that the guard in taskDone
// runs: with every completion reported a second before its task's arrival,
// runCell fails the cell with the guard's error instead of measuring it. The
// error leaves the "scenario: <cell> run <n>:" prefix to the executor, which
// adds it once.
func TestCompletionBeforeArrivalFailsTheRun(t *testing.T) {
	ar := testArena(t, stagingSpec())
	ar.onDone = func(task *sim.Task, _ time.Duration) {
		ar.taskDone(task, ar.pool.slot(task.Ref).gen.arrival-time.Second)
	}
	_, err := ar.runCell(context.Background(), "greedy-best-fit", "none", 0, false, nil)
	if err == nil || err != ar.doneErr || !strings.Contains(err.Error(), "before it arrived") {
		t.Fatalf("runCell = %v, want the completed-before-it-arrived error", err)
	}
	if strings.HasPrefix(err.Error(), "scenario:") {
		t.Fatalf("runCell = %q, want the prefix left to the executor", err)
	}
}

// TestRejectedCountsPlacedDrops pins the one path of the rejected identity
// no other check reaches: testdata/placed-drops.json fails machines under a
// 199-child fan-out, so fault requeues of tasks that already ran join a
// site backlog past Locality's reject cap, and some of them are dropped.
// rejected is tasks − tasks placed once + those drops; greedy-best-fit
// drops nothing and places every task.
func TestRejectedCountsPlacedDrops(t *testing.T) {
	sp, err := Load("testdata/placed-drops.json")
	if err != nil {
		t.Fatal(err)
	}
	ar := testArena(t, sp)
	for run, want := range []struct{ rejected, placedDrops int }{{67, 0}, {70, 3}, {67, 0}} {
		idx, err := ar.runCell(context.Background(), "locality", "none", run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Rejected != want.rejected || ar.placedDrops != want.placedDrops {
			t.Errorf("locality run %d: rejected %d with %d drops of placed tasks, want %d and %d",
				run, idx.Rejected, ar.placedDrops, want.rejected, want.placedDrops)
		}
		if idx, err = ar.runCell(context.Background(), "greedy-best-fit", "none", run, false, nil); err != nil || idx.Rejected != 0 {
			t.Errorf("greedy-best-fit run %d: rejected %d (%v), want 0", run, idx.Rejected, err)
		}
	}
}

// TestPoolSlots pins the pool seam: a closed cell takes slots 0..n-1 in
// task order and acquires none after, so each completion frees its slot and
// no id is reused; a streaming cell's live records stay bounded by the
// queue and the slots however many tasks arrive.
func TestPoolSlots(t *testing.T) {
	sp := testSpec()
	ar := testArena(t, sp)
	for run := 0; run < 2; run++ { // the second cell recycles the first one's records
		idx, err := ar.runCell(context.Background(), "greedy-best-fit", "suspend", run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := sp.Workload.Tasks
		p := &ar.pool
		if p.created != n || len(p.free) != idx.Completed || idx.Completed == 0 {
			t.Fatalf("closed cell: created=%d free=%d after %d completions, want %d slots and one freed per completion",
				p.created, len(p.free), idx.Completed, n)
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("task-%03d", i)
			sl := p.slot(i)
			if g := ar.world.tasks[i]; sl.task.ID != id || sl.task.Ref != i || sl.gen != g || sl.task.Work != g.work {
				t.Fatalf("slot %d holds %q (Ref %d, draws %+v), want task %d of the world", i, sl.task.ID, sl.task.Ref, sl.gen, i)
			}
		}
	}

	sp = streamSpec()
	ar, c := testCell(t, sp, "greedy-best-fit", "checkpoint")
	// A checkpoint record lives as long as its task: at every instant each
	// record belongs to a slot that is held and has run, never to a completed
	// task whose slot (and id) went to a later arrival.
	var records int
	stale := map[string]bool{}
	for at := time.Duration(0); at < ar.horizon; at += 5 * time.Second {
		ar.cluster.Sim.RunUntil(at)
		for s := range ar.pool.created {
			sl := ar.pool.slot(s)
			if !slices.ContainsFunc(ar.machines, sl.task.CheckpointOn) {
				continue
			}
			records++
			if slices.Contains(ar.pool.free, s) || !sl.everPlaced {
				stale[sl.task.ID] = true
			}
		}
	}
	if n, _ := c.ck.Stats(); n == 0 || records == 0 {
		t.Fatalf("streaming cell took %d checkpoints and held %d records over the sample instants: nothing was checked", n, records)
	}
	if len(stale) > 0 {
		t.Errorf("%d checkpoint records outlived their tasks (slot free, or its tenant never ran): %v", len(stale), stale)
	}
	idx := ar.measure(ar.cluster.Sim.RunUntil(ar.horizon))
	slots := sp.Machines.Classes[0].Count * sp.Machines.Classes[0].Slots
	if bound := sp.Workload.QueueLimit + 2*slots; ar.pool.created > bound {
		t.Errorf("streaming cell: pool created %d slots, want at most queue_limit + 2×slots = %d", ar.pool.created, bound)
	}
	if idx.Completed < 1000 || idx.Rejected < 1000 {
		t.Errorf("streaming cell completed %d and rejected %d of %d: not the overloaded cell this test assumes", idx.Completed, idx.Rejected, sp.Workload.Tasks)
	}
}

// TestRecycledArenaShipsItsOwnImage: a task still resident at its cell's
// horizon keeps its checkpoint record through Cluster.Reset, and the next
// cell on the same arena recycles its slot. That slot's new task, evacuated
// before its own first checkpoint onto the machine where the predecessor
// checkpointed, ships its full image — exactly what the same cell ships on
// a single-use arena.
func TestRecycledArenaShipsItsOwnImage(t *testing.T) {
	sp := &Spec{
		Name:                "recycled-arena-test",
		HorizonS:            30,
		CheckpointIntervalS: 10,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			// Not workstations: a checkpoint image only restarts on a host of
			// the same byte order.
			{Class: "mimd", Count: 2, Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{
			Tasks:          1,
			Work:           Dist{Kind: "fixed", Value: 1000},
			Arrivals:       ArrivalSpec{Kind: "trace", TraceS: []float64{1}},
			ImageMiB:       1,
			Checkpointable: true,
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"checkpoint"}},
		Runs:     1,
		Seed:     1,
	}
	used := testArena(t, sp)
	if _, err := used.runCell(context.Background(), "greedy-best-fit", "checkpoint", 0, false, nil); err != nil {
		t.Fatal(err)
	}
	held := used.pool.slot(0).task.Machine()
	if held == nil || !used.pool.slot(0).task.CheckpointOn(held) {
		t.Fatalf("first cell: task-000 on %v at the horizon, want it resident with a checkpoint record", held)
	}
	x := held.Index()

	// evacuation runs the second cell on ar: the arrival lands on the
	// machine other than x, whose owner then returns before the first
	// checkpoint at 10 s. It returns the bytes the one migration moved.
	evacuation := func(ar *runArena) int64 {
		if err := ar.prepare(0); err != nil {
			t.Fatal(err)
		}
		ar.startCell("greedy-best-fit", "checkpoint", 0)
		c := &ar.cell
		onto, from := ar.machines[x], ar.machines[1-x]
		onto.SetLocalLoad(1)
		ar.cluster.Sim.RunUntil(2 * time.Second)
		if m := ar.pool.slot(0).task.Machine(); m != from {
			t.Fatalf("t=2s: task-000 on %v, want %s", m, from.Name())
		}
		onto.SetLocalLoad(0)
		from.SetLocalLoad(1)
		if c.lb.Migrations != 1 {
			t.Fatalf("%d migrations, want the one evacuation", c.lb.Migrations)
		}
		return c.lb.TotalBytesMoved()
	}
	fresh, recycled := evacuation(testArena(t, sp)), evacuation(used)
	if fresh != used.imageBytes || recycled != fresh {
		t.Errorf("the evacuation moved %d bytes on a recycled arena and %d on a single-use one, want the %d-byte image on both",
			recycled, fresh, used.imageBytes)
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
	first := ar.pool.slot(0).task.Machine()
	if first == nil {
		t.Fatal("task-000 not placed at t=2s")
	}
	other := ar.machines[1-first.Index()]
	sim.RunUntil(27 * time.Second) // checkpointed at 10 s and 20 s, done at 26 s
	if n, _ := c.ck.Stats(); n != 2 || ar.completed != 1 || len(ar.pool.free) != ar.pool.created {
		t.Fatalf("t=27s: %d checkpoints, %d completed, %d held slots, want 2, 1 and 0", n, ar.completed, ar.pool.created-len(ar.pool.free))
	}
	first.SetLocalLoad(1) // the owner is back: the second arrival goes elsewhere
	sim.RunUntil(32 * time.Second)
	if tenant := &ar.pool.slot(0).task; tenant.ID != "task-000" || tenant.Machine() != other {
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

// handSetCell prepares run 0 of sp, replaces the world's events with events
// and starts a greedy-best-fit cell under migration on it.
func handSetCell(t *testing.T, sp *Spec, migration string, events []worldEvent) (*runArena, *cell) {
	t.Helper()
	ar := testArena(t, sp)
	if err := ar.prepare(0); err != nil {
		t.Fatal(err)
	}
	ar.world.events = events
	ar.startCell("greedy-best-fit", migration, 0)
	return ar, &ar.cell
}

// TestWorldEventTieOrder: a world event fires one at a time, armed by its
// predecessor, yet breaks same-instant ties where setup would have
// scheduled it: owner steps and closed arrivals before the first checkpoint
// tick and the first pump, failures and repairs after both and before every
// event scheduled during the run.
func TestWorldEventTieOrder(t *testing.T) {
	const s = time.Second
	// Closed: one machine, one long checkpointable task arriving at 0. At
	// 10 s an owner step, the first checkpoint tick and a failure share the
	// instant; at 20 s the repair ties with the tick the first tick re-armed.
	sp := &Spec{
		Name:                "tie-order-closed",
		HorizonS:            30,
		CheckpointIntervalS: 10,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			{Class: "mimd", Count: 1, Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{
			Tasks:          1,
			Work:           Dist{Kind: "fixed", Value: 1000},
			Arrivals:       ArrivalSpec{Kind: "batch"},
			Checkpointable: true,
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"checkpoint"}},
		Runs:     1,
		Seed:     1,
	}
	ar, c := handSetCell(t, sp, "checkpoint", []worldEvent{
		{at: 0, i: 0, kind: evArrive},
		{at: 10 * s, i: 0, load: 0.5, kind: evOwner},
		{at: 10 * s, i: 0, kind: evFail},
		{at: 20 * s, i: 0, kind: evRepair},
	})
	m := ar.machines[0]
	var states []string
	state := func() string {
		n, _ := c.ck.Stats()
		return fmt.Sprintf("%v load %g down %v residents %d checkpoints %d", ar.cluster.Sim.Now(), m.LocalLoad(), ar.down[0], m.RemoteTasks(), n)
	}
	// The audit hook runs before each event, so each entry is the state the
	// previous event left.
	ar.cluster.Sim.SetAuditHook(func(time.Duration) { states = append(states, state()) })
	ar.cluster.Sim.RunUntil(ar.horizon)
	states = append(states, state())
	want := []string{
		"0s load 0 down false residents 0 checkpoints 0",    // arrival
		"10s load 0 down false residents 1 checkpoints 0",   // owner step
		"10s load 0.5 down false residents 1 checkpoints 0", // first tick
		"10s load 0.5 down false residents 1 checkpoints 1", // failure
		"20s load 1 down true residents 0 checkpoints 1",    // repair
		"20s load 0.5 down false residents 1 checkpoints 1", // tick
		"30s load 0.5 down false residents 1 checkpoints 2", // tick
		"30s load 0.5 down false residents 1 checkpoints 3",
	}
	if !slices.Equal(states, want) {
		t.Errorf("closed cell fired\n  %s\nwant\n  %s", strings.Join(states, "\n  "), strings.Join(want, "\n  "))
	}

	// Streaming: the first trace arrival and the owner steps share t = 0.
	// The steps fire first, so the arrival finds the faster machine's owner
	// active and lands on the slower one.
	sp = &Spec{
		Name:     "tie-order-streaming",
		HorizonS: 30,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			{Class: "mimd", Count: 1, Speed: Dist{Kind: "fixed", Value: 2}},
			{Class: "vector", Count: 1, Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{
			Tasks:    1,
			Work:     Dist{Kind: "fixed", Value: 1000},
			Arrivals: ArrivalSpec{Kind: "trace", TraceS: []float64{0}},
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     1,
		Seed:     1,
	}
	ar, _ = handSetCell(t, sp, "none", []worldEvent{
		{at: 0, i: 0, load: 0.9, kind: evOwner},
		{at: 0, i: 1, load: 0, kind: evOwner},
	})
	ar.cluster.Sim.RunUntil(0)
	if ar.pool.slot(0).task.Machine() != ar.machines[1] {
		t.Errorf("the t = 0 arrival did not land on %s: it fired before the t = 0 owner steps", ar.machines[1].Name())
	}
}

// TestClassBlocksNumberPerClass: two workstation blocks at different speeds
// and sites share one name sequence, ws00–ws03, and byte order alternates by
// that per-class index, not by the position inside a block. Both sites'
// machines run tasks.
func TestClassBlocksNumberPerClass(t *testing.T) {
	sp := &Spec{
		Name:     "class-blocks",
		HorizonS: 3600,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			{Class: "workstation", Count: 1, Site: "a", Speed: Dist{Kind: "fixed", Value: 2}},
			{Class: "mimd", Count: 1, Site: "a", Speed: Dist{Kind: "fixed", Value: 1}},
			{Class: "workstation", Count: 3, Site: "b", Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{Tasks: 40, Work: Dist{Kind: "fixed", Value: 10}},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     1,
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	ar := testArena(t, sp)
	idx, err := ar.runCell(context.Background(), "greedy-best-fit", "none", 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Completed != sp.Workload.Tasks {
		t.Errorf("completed %d of %d tasks", idx.Completed, sp.Workload.Tasks)
	}
	want := []struct {
		name   string
		little bool
		speed  float64
		site   string
	}{
		{"ws00", false, 2, "a"},
		{"mimd00", false, 1, "a"},
		{"ws01", true, 1, "b"},
		{"ws02", false, 1, "b"},
		{"ws03", true, 1, "b"},
	}
	ran := map[string]bool{}
	for i, m := range ar.machines {
		w := want[i]
		if m.Name() != w.name || (m.Spec.Order == arch.LittleEndian) != w.little || m.Spec.Speed != w.speed {
			t.Errorf("machine %d is %s (%v, speed %g), want %s (little-endian %v, speed %g)",
				i, m.Name(), m.Spec.Order, m.Spec.Speed, w.name, w.little, w.speed)
		}
		if m.RemoteUtilization(ar.horizon) > 0 {
			ran[w.site] = true
		}
	}
	if !ran["a"] || !ran["b"] {
		t.Errorf("sites that ran tasks: %v, want a and b", ran)
	}
}
