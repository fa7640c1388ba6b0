package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"vce/internal/arch"
)

func ws(name string, speed float64) arch.Machine {
	return arch.Machine{Name: name, Class: arch.Workstation, Speed: speed, OS: "unix"}
}

func newSingle(t *testing.T, speed float64) (*Cluster, *Machine) {
	t.Helper()
	c := NewCluster()
	m, err := c.AddMachine(ws("m0", speed))
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestAddMachineValidation(t *testing.T) {
	c := NewCluster()
	if _, err := c.AddMachine(arch.Machine{Name: "", Speed: 1}); err == nil {
		t.Fatal("unnamed machine accepted")
	}
	if _, err := c.AddMachine(arch.Machine{Name: "x", Speed: 0}); err == nil {
		t.Fatal("zero-speed machine accepted")
	}
	if _, err := c.AddMachine(ws("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMachine(ws("a", 1)); err == nil {
		t.Fatal("duplicate machine accepted")
	}
}

func TestSingleTaskCompletesAtExactTime(t *testing.T) {
	c, m := newSingle(t, 1)
	var doneAt time.Duration
	task := &Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }}
	if err := m.AddTask(task); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	if doneAt != 10*time.Second {
		t.Fatalf("completion at %v, want 10s (10 work on speed 1)", doneAt)
	}
	if !task.Finished() {
		t.Fatal("task not marked finished")
	}
}

func TestFasterMachineFinishesSooner(t *testing.T) {
	c, m := newSingle(t, 4)
	var doneAt time.Duration
	if err := m.AddTask(&Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	if doneAt != 2500*time.Millisecond {
		t.Fatalf("completion at %v, want 2.5s", doneAt)
	}
}

func TestProcessorSharingTwoTasks(t *testing.T) {
	c, m := newSingle(t, 1)
	var first, second time.Duration
	if err := m.AddTask(&Task{ID: "a", Work: 10, OnDone: func(_ *Task, at time.Duration) { first = at }}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTask(&Task{ID: "b", Work: 10, OnDone: func(_ *Task, at time.Duration) { second = at }}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	// Equal sharing: both finish at 20s (10 work each at rate 0.5).
	if first != 20*time.Second || second != 20*time.Second {
		t.Fatalf("completions %v %v, want both 20s", first, second)
	}
}

func TestProcessorSharingUnequalWork(t *testing.T) {
	c, m := newSingle(t, 1)
	times := map[string]time.Duration{}
	record := func(tk *Task, at time.Duration) { times[tk.ID] = at }
	_ = m.AddTask(&Task{ID: "short", Work: 5, OnDone: record})
	_ = m.AddTask(&Task{ID: "long", Work: 10, OnDone: record})
	c.Sim.Run()
	// Shared until short finishes at t=10 (5 work at rate .5); long then
	// has 5 left at full rate: t=15.
	if times["short"] != 10*time.Second {
		t.Fatalf("short at %v, want 10s", times["short"])
	}
	if times["long"] != 15*time.Second {
		t.Fatalf("long at %v, want 15s", times["long"])
	}
}

func TestLocalLoadSlowsRemoteWork(t *testing.T) {
	c, m := newSingle(t, 1)
	m.SetLocalLoad(0.5)
	var doneAt time.Duration
	_ = m.AddTask(&Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }})
	c.Sim.Run()
	if doneAt != 20*time.Second {
		t.Fatalf("completion at %v, want 20s (half capacity left)", doneAt)
	}
}

func TestLocalLoadStepMidRun(t *testing.T) {
	c, m := newSingle(t, 1)
	var doneAt time.Duration
	_ = m.AddTask(&Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }})
	// Full speed for 5s (5 work done), then load 0.75 → rate 0.25 for
	// remaining 5 work → 20 more seconds.
	if err := c.PlayLoadTrace("m0", []LoadStep{{At: 5 * time.Second, Load: 0.75}}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	if doneAt != 25*time.Second {
		t.Fatalf("completion at %v, want 25s", doneAt)
	}
}

func TestFullLocalLoadStallsRemote(t *testing.T) {
	c, m := newSingle(t, 1)
	done := false
	_ = m.AddTask(&Task{ID: "t", Work: 1, OnDone: func(*Task, time.Duration) { done = true }})
	m.SetLocalLoad(1.0)
	c.Sim.RunUntil(time.Hour)
	if done {
		t.Fatal("task completed with zero leftover capacity")
	}
	m.SetLocalLoad(0)
	c.Sim.Run()
	if !done {
		t.Fatal("task never completed after load dropped")
	}
}

func TestSuspensionFreezesProgress(t *testing.T) {
	c, m := newSingle(t, 1)
	var doneAt time.Duration
	_ = m.AddTask(&Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }})
	c.Sim.At(2*time.Second, func() { m.SetSuspended(true) })
	c.Sim.At(7*time.Second, func() { m.SetSuspended(false) })
	c.Sim.Run()
	// 2s running + 5s frozen + 8s running = 15s.
	if doneAt != 15*time.Second {
		t.Fatalf("completion at %v, want 15s", doneAt)
	}
}

func TestKillFiresCallbackAndStopsWork(t *testing.T) {
	c, m := newSingle(t, 1)
	task := &Task{ID: "t", Work: 10,
		OnDone: func(*Task, time.Duration) { t.Fatal("killed task completed") },
	}
	_ = m.AddTask(task)
	c.Sim.At(4*time.Second, func() {
		if err := m.Kill(task); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	c.Sim.Run()
	if task.Machine() != nil {
		t.Fatalf("killed task still placed on %s", task.Machine().Name())
	}
	if math.Abs(task.DoneWork()-4) > 1e-9 {
		t.Fatalf("done work = %v, want 4", task.DoneWork())
	}
	if residents(c) != 0 {
		t.Fatal("task still resident")
	}
}

// TestKillMiddleResident kills the middle of three residents with distinct
// finish keys, whose IDs sort against their finish order: the residency
// order finds it by (finish key, ID), and the other two complete in finish
// order.
func TestKillMiddleResident(t *testing.T) {
	c, m := newSingle(t, 1)
	var done []string
	onDone := func(task *Task, _ time.Duration) { done = append(done, task.ID) }
	tasks := []*Task{
		{ID: "c", Work: 10, OnDone: onDone},
		{ID: "b", Work: 20, OnDone: onDone},
		{ID: "a", Work: 30, OnDone: onDone},
	}
	for _, task := range tasks {
		if err := m.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.At(3*time.Second, func() {
		if err := m.Kill(tasks[1]); err != nil {
			t.Errorf("kill: %v", err)
		}
		if got := m.AppendTasks(nil); len(got) != 2 || got[0] != tasks[2] || got[1] != tasks[0] {
			t.Errorf("%d residents after the kill, want a and c", len(got))
		}
	})
	c.Sim.Run()
	if !slices.Equal(done, []string{"c", "a"}) || math.Abs(tasks[1].DoneWork()-1) > 1e-9 {
		t.Fatalf("completed %v with the killed task at %g work, want [c a] and 1", done, tasks[1].DoneWork())
	}
}

func TestKillUnknownTask(t *testing.T) {
	_, m := newSingle(t, 1)
	if err := m.Kill(&Task{ID: "ghost"}); err == nil {
		t.Fatal("killing unknown task succeeded")
	}
}

// TestKillRefusesAnotherMachinesTask pins that Kill goes by record, not by
// ID: a machine cannot kill a task that lives elsewhere, even when one of
// its own residents shares the ID.
func TestKillRefusesAnotherMachinesTask(t *testing.T) {
	c := NewCluster()
	a, _ := c.AddMachine(ws("a", 1))
	b, _ := c.AddMachine(ws("b", 1))
	onA := &Task{ID: "t", Work: 10}
	onB := &Task{ID: "t", Work: 10}
	if err := a.AddTask(onA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTask(onB); err != nil {
		t.Fatal(err)
	}
	if err := a.Kill(onB); err == nil {
		t.Fatal("a killed the task that lives on b")
	}
	if onA.Machine() != a || onB.Machine() != b || residents(c) != 2 {
		t.Fatalf("a refused kill moved residents: a=%v b=%v running=%d", onA.Machine(), onB.Machine(), residents(c))
	}
}

// residents is the cluster's resident task count.
func residents(c *Cluster) int {
	n := 0
	for _, m := range c.Machines() {
		n += m.RemoteTasks()
	}
	return n
}

// TestMachinesDoesNotAllocate pins that Machines hands out the cluster's
// own registration-order slice: per-event walks over the fleet (the
// checkpoint cadence) cost nothing.
func TestMachinesDoesNotAllocate(t *testing.T) {
	c := NewCluster()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := c.AddMachine(ws(n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var ms []*Machine
	if allocs := testing.AllocsPerRun(100, func() { ms = c.Machines() }); allocs != 0 {
		t.Fatalf("Machines allocates %v times per call", allocs)
	}
	for i, m := range ms {
		if m.Index() != i {
			t.Fatalf("machine %s at position %d has index %d", m.Name(), i, m.Index())
		}
	}
}

func TestTaskMoveBetweenMachines(t *testing.T) {
	c := NewCluster()
	src, _ := c.AddMachine(ws("src", 1))
	dst, _ := c.AddMachine(ws("dst", 2))
	var doneAt time.Duration
	task := &Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }}
	_ = src.AddTask(task)
	c.Sim.At(5*time.Second, func() {
		if err := src.Kill(task); err != nil {
			t.Errorf("kill: %v", err)
			return
		}
		if err := dst.AddTask(task); err != nil {
			t.Errorf("re-add: %v", err)
		}
	})
	c.Sim.Run()
	// 5 work at speed 1, then 5 work at speed 2 → 5s + 2.5s = 7.5s.
	if doneAt != 7500*time.Millisecond {
		t.Fatalf("completion at %v, want 7.5s", doneAt)
	}
}

func TestCannotPlaceTaskTwice(t *testing.T) {
	c := NewCluster()
	a, _ := c.AddMachine(ws("a", 1))
	b, _ := c.AddMachine(ws("b", 1))
	task := &Task{ID: "t", Work: 10}
	if err := a.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTask(task); err == nil {
		t.Fatal("double placement accepted")
	}
}

func TestChangeListenerFires(t *testing.T) {
	c, m := newSingle(t, 1)
	events := 0
	c.OnChange(func(mm *Machine, now time.Duration) {
		if mm != m {
			t.Error("wrong machine in listener")
		}
		events++
	})
	_ = m.AddTask(&Task{ID: "t", Work: 1})
	m.SetLocalLoad(0.5)
	c.Sim.Run()
	if events < 3 { // add, load change, completion
		t.Fatalf("listener fired %d times, want >= 3", events)
	}
}

func TestReentrantListenerMigration(t *testing.T) {
	// A listener that migrates a task on load change (the VCE policy
	// shape) must not deadlock or corrupt state.
	c := NewCluster()
	busy, _ := c.AddMachine(ws("busy", 1))
	idle, _ := c.AddMachine(ws("idle", 1))
	var doneAt time.Duration
	task := &Task{ID: "t", Work: 10, OnDone: func(_ *Task, at time.Duration) { doneAt = at }}
	moved := false
	c.OnChange(func(m *Machine, now time.Duration) {
		if m == busy && m.LocalLoad() >= 1 && !moved {
			moved = true
			if busy.Kill(task) == nil {
				_ = idle.AddTask(task)
			}
		}
	})
	_ = busy.AddTask(task)
	c.Sim.At(5*time.Second, func() { busy.SetLocalLoad(1.0) })
	c.Sim.Run()
	// 5 work at busy, then instant migration, 5 work at idle → 10s.
	if doneAt != 10*time.Second {
		t.Fatalf("completion at %v, want 10s", doneAt)
	}
	if !moved {
		t.Fatal("listener never migrated")
	}
}

func TestRemoteUtilizationAccounting(t *testing.T) {
	c, m := newSingle(t, 1)
	_ = m.AddTask(&Task{ID: "t", Work: 10})
	c.Sim.Run()
	end := c.Sim.Now()
	util := m.RemoteUtilization(end)
	if math.Abs(util-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1.0 (machine fully busy)", util)
	}
	// After completion, utilization decays as idle time accrues.
	util20 := m.RemoteUtilization(end * 2)
	if util20 >= util {
		t.Fatalf("utilization did not decay: %v", util20)
	}
}

func TestIdleMachines(t *testing.T) {
	c := NewCluster()
	fast, _ := c.AddMachine(ws("fast", 4))
	slow, _ := c.AddMachine(ws("slow", 1))
	busy, _ := c.AddMachine(ws("busy", 2))
	busy.SetLocalLoad(0.9)
	idle := c.AppendIdleMachines(nil, 0.5)
	if len(idle) != 2 || idle[0] != fast {
		t.Fatalf("idle = %v", names(idle))
	}
	_ = fast.AddTask(&Task{ID: "t", Work: 100})
	idle = c.AppendIdleMachines(idle[:0], 0.5)
	if len(idle) != 1 || idle[0].Name() != "slow" {
		t.Fatalf("idle after placement = %v", names(idle))
	}
	// Appending keeps what dst already holds.
	idle = c.AppendIdleMachines([]*Machine{busy}, 0.5)
	if len(idle) != 2 || idle[0] != busy || idle[1] != slow {
		t.Fatalf("appended idle = %v, want [busy slow]", names(idle))
	}
}

func names(ms []*Machine) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

func TestLeastLoaded(t *testing.T) {
	c := NewCluster()
	a, _ := c.AddMachine(ws("a", 1))
	b, _ := c.AddMachine(ws("b", 1))
	cm, _ := c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 50, OS: "cmost"})
	a.SetLocalLoad(0.9)
	_ = b
	_ = cm
	got := c.LeastLoaded(arch.Requirements{Classes: []arch.Class{arch.Workstation}}, 2)
	if len(got) != 2 || got[0].Name() != "b" || got[1].Name() != "a" {
		t.Fatalf("least loaded = %v", names(got))
	}
	got = c.LeastLoaded(arch.Requirements{Classes: []arch.Class{arch.SIMD}}, 5)
	if len(got) != 1 || got[0].Name() != "cm5" {
		t.Fatalf("SIMD candidates = %v", names(got))
	}
}

func TestManyTasksManyMachinesConservation(t *testing.T) {
	// Total completed work must equal the sum of task sizes regardless of
	// interleaving: conservation under PS scheduling.
	c := NewCluster()
	for i := 0; i < 4; i++ {
		_, _ = c.AddMachine(ws(string(rune('a'+i)), float64(1+i)))
	}
	totalWork := 0.0
	completed := 0
	machines := c.Machines()
	for i := 0; i < 20; i++ {
		w := float64(1 + i%7)
		totalWork += w
		m := machines[i%len(machines)]
		_ = m.AddTask(&Task{ID: string(rune('A' + i)), Work: w, OnDone: func(task *Task, _ time.Duration) {
			if task.DoneOn() == m {
				completed++
			}
		}})
	}
	c.Sim.Run()
	if completed != 20 {
		t.Fatalf("%d tasks completed on the machine they were placed on, want 20", completed)
	}
}

// TestPendingDoesNotGrowWithRescheduleStorms pins the native-cancellation
// contract: superseded completion events are deleted from the kernel queue,
// so a storm of rate changes leaves exactly one live completion event per
// busy machine instead of an unbounded trail of dead closures.
func TestPendingDoesNotGrowWithRescheduleStorms(t *testing.T) {
	c, m := newSingle(t, 1)
	for i := 0; i < 8; i++ {
		if err := m.AddTask(&Task{ID: string(rune('a' + i)), Work: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Sim.Pending(); got != 1 {
		t.Fatalf("pending = %d with 8 resident tasks, want 1 completion event", got)
	}
	for i := 0; i < 1000; i++ {
		m.SetLocalLoad(float64(i%7) / 10)
	}
	if got := c.Sim.Pending(); got != 1 {
		t.Fatalf("pending = %d after 1000 reschedules, want 1", got)
	}
	// Killing every task cancels the last completion event too.
	for _, tk := range m.AppendTasks(nil) {
		if err := m.Kill(tk); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Sim.Pending(); got != 0 {
		t.Fatalf("pending = %d after emptying the machine, want 0", got)
	}
}

func TestLoadTraceUnknownMachine(t *testing.T) {
	c := NewCluster()
	if err := c.PlayLoadTrace("ghost", nil); err == nil {
		t.Fatal("trace for unknown machine accepted")
	}
}
