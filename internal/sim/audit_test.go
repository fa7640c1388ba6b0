package sim

import (
	"strings"
	"testing"
	"time"
)

// auditFixture builds a two-machine cluster with competing tasks, load
// steps and a suspension window — enough state churn to exercise every
// accounting path the auditor watches.
func auditFixture(t *testing.T) (*Cluster, *Machine, *Machine) {
	t.Helper()
	c := NewCluster()
	m1, err := c.AddMachine(ws("m1", 2))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.AddMachine(ws("m2", 1))
	if err != nil {
		t.Fatal(err)
	}
	add := func(m *Machine, id string, work float64, at time.Duration) {
		c.Sim.At(at, func() {
			if err := m.AddTask(&Task{ID: id, Work: work}); err != nil {
				t.Errorf("AddTask(%s): %v", id, err)
			}
		})
	}
	add(m1, "a", 10, 0)
	add(m1, "b", 6, 2*time.Second)
	add(m2, "c", 4, time.Second)
	c.Sim.At(3*time.Second, func() { m1.SetLocalLoad(0.5) })
	c.Sim.At(5*time.Second, func() { m1.SetLocalLoad(0) })
	c.Sim.At(2*time.Second, func() { m2.SetSuspended(true) })
	c.Sim.At(4*time.Second, func() { m2.SetSuspended(false) })
	return c, m1, m2
}

func TestAuditorCleanRun(t *testing.T) {
	c, _, _ := auditFixture(t)
	a := AttachAuditor(c)
	c.Sim.RunUntil(time.Hour)
	a.Finish()
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}
	if a.Dropped != 0 {
		t.Fatalf("clean run dropped %d violations", a.Dropped)
	}
}

// TestAuditorObservesWithoutPerturbing pins the auditor's observer contract:
// an audited run completes its tasks at the exact instants an unaudited run
// does.
func TestAuditorObservesWithoutPerturbing(t *testing.T) {
	completions := func(audit bool) map[string]time.Duration {
		c := NewCluster()
		m, err := c.AddMachine(ws("m", 1.5))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]time.Duration{}
		for _, id := range []string{"x", "y", "z"} {
			id := id
			tk := &Task{ID: id, Work: 7, OnDone: func(_ *Task, at time.Duration) { got[id] = at }}
			if err := m.AddTask(tk); err != nil {
				t.Fatal(err)
			}
		}
		c.Sim.At(2*time.Second, func() { m.SetLocalLoad(0.25) })
		var a *Auditor
		if audit {
			a = AttachAuditor(c)
		}
		c.Sim.RunUntil(time.Hour)
		if a != nil {
			a.Finish()
			if v := a.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		}
		return got
	}
	plain, audited := completions(false), completions(true)
	if len(plain) != 3 {
		t.Fatalf("unaudited run completed %d tasks, want 3", len(plain))
	}
	for id, at := range plain {
		if audited[id] != at {
			t.Errorf("task %s: audited completion %v, unaudited %v", id, audited[id], at)
		}
	}
}

// TestAuditorDetectsBrokenConservation corrupts a machine's progress
// accumulator mid-run — the stand-in for a broken advance — and expects the
// auditor to flag conservation of work at the next machine mutation.
func TestAuditorDetectsBrokenConservation(t *testing.T) {
	c, m1, _ := auditFixture(t)
	a := AttachAuditor(c)
	c.Sim.At(2500*time.Millisecond, func() {
		m1.advance(c.Sim.Now())
		m1.accum += 5 // phantom delivered work out of nowhere
	})
	c.Sim.RunUntil(time.Hour)
	a.Finish()
	v := a.Violations()
	if len(v) == 0 {
		t.Fatal("corrupted accumulator went undetected")
	}
	if !strings.Contains(strings.Join(v, "\n"), "conservation of work") {
		t.Fatalf("violations do not mention conservation: %v", v)
	}
}

// TestAuditorDetectsSkippedAdvance mutates machine state without the
// advance-first discipline every engine mutator follows.
func TestAuditorDetectsSkippedAdvance(t *testing.T) {
	c, m1, _ := auditFixture(t)
	a := AttachAuditor(c)
	c.Sim.At(3500*time.Millisecond, func() {
		// What a buggy mutator would do: touch state, skip advance, notify.
		m1.localLoad = 0.9
		c.notifyChange(m1)
	})
	c.Sim.RunUntil(time.Hour)
	a.Finish()
	if v := a.Violations(); len(v) == 0 {
		t.Fatal("mutation without advance went undetected")
	}
}

// TestAuditorAllowsCheckpointRewindAcrossVirginMachines: a task that runs on
// one virgin machine, is killed, rewound to its checkpoint (zero here) and
// re-placed on another virgin machine starts its new residency with the SAME
// accumulator baseline (both machines at 0). The rewind is legitimate and
// must not be flagged — residencies are identified by placement generation,
// not baseline value (which collides exactly like this).
func TestAuditorAllowsCheckpointRewindAcrossVirginMachines(t *testing.T) {
	c := NewCluster()
	m1, err := c.AddMachine(ws("m1", 1))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.AddMachine(ws("m2", 1))
	if err != nil {
		t.Fatal(err)
	}
	a := AttachAuditor(c)
	task := &Task{ID: "t", Work: 100}
	c.Sim.At(0, func() {
		if err := m1.AddTask(task); err != nil {
			t.Error(err)
		}
	})
	c.Sim.At(5*time.Second, func() {
		if err := m1.Kill(task); err != nil {
			t.Error(err)
			return
		}
		if err := task.Rewind(0); err != nil { // restart from scratch
			t.Error(err)
			return
		}
		if err := m2.AddTask(task); err != nil {
			t.Error(err)
		}
	})
	c.Sim.RunUntil(20 * time.Second)
	a.Finish()
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("legitimate checkpoint rewind flagged: %v", v)
	}
}

// TestAuditorDetectsBackwardsTime drives the kernel-hook path directly with
// a decreasing timestamp.
func TestAuditorDetectsBackwardsTime(t *testing.T) {
	c := NewCluster()
	a := AttachAuditor(c)
	a.observe(10 * time.Millisecond)
	a.observe(5 * time.Millisecond)
	v := a.Violations()
	if len(v) == 0 || !strings.Contains(v[0], "backwards") {
		t.Fatalf("backwards virtual time went undetected: %v", v)
	}
}

// TestAuditorViolationCap: a systematically broken engine must not grow the
// violation list without bound.
func TestAuditorViolationCap(t *testing.T) {
	c, m1, _ := auditFixture(t)
	a := AttachAuditor(c)
	for i := 1; i <= 2*maxViolations; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		c.Sim.At(at, func() {
			m1.advance(c.Sim.Now())
			m1.accum += 1
			c.notifyChange(m1)
		})
	}
	c.Sim.RunUntil(time.Hour)
	a.Finish()
	if got := len(a.Violations()); got != maxViolations {
		t.Fatalf("retained %d violations, want cap %d", got, maxViolations)
	}
	if a.Dropped == 0 {
		t.Fatal("cap reached but Dropped not counted")
	}
}
