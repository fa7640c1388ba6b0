package sim

import (
	"fmt"
	"testing"
	"time"

	"vce/internal/arch"
)

// clusterScript drives a deterministic workload over a 4-machine fleet —
// arrivals, owner load steps, a suspension window, a mid-run kill with
// restart — and returns each task's completion time. Equivalent clusters
// must produce the identical map.
func clusterScript(t *testing.T, c *Cluster) map[string]time.Duration {
	t.Helper()
	machines := c.Machines()
	done := make(map[string]time.Duration)
	for i := 0; i < 8; i++ {
		i := i
		m := machines[i%len(machines)]
		task := &Task{
			ID:   fmt.Sprintf("t%02d", i),
			Work: float64(30 + 10*i),
			OnDone: func(t *Task, at time.Duration) {
				done[t.ID] = at
			},
		}
		c.Sim.At(time.Duration(i)*10*time.Second, func() {
			if err := m.AddTask(task); err != nil {
				t.Errorf("add %s: %v", task.ID, err)
			}
		})
	}
	if err := c.PlayLoadTrace(machines[1].Name(), []LoadStep{
		{At: 20 * time.Second, Load: 0.7},
		{At: 3 * time.Minute, Load: 0},
	}); err != nil {
		t.Fatal(err)
	}
	c.Sim.At(40*time.Second, func() { machines[2].SetSuspended(true) })
	c.Sim.At(90*time.Second, func() { machines[2].SetSuspended(false) })
	c.Sim.At(65*time.Second, func() {
		// Kill whatever runs on machine 3 and restart it there from scratch.
		for _, victim := range machines[3].AppendTasks(nil) {
			if err := machines[3].Kill(victim); err != nil {
				t.Errorf("kill %s: %v", victim.ID, err)
				continue
			}
			_ = victim.Rewind(0)
			if err := machines[3].AddTask(victim); err != nil {
				t.Errorf("restart %s: %v", victim.ID, err)
			}
		}
	})
	c.Sim.RunUntil(30 * time.Minute)
	return done
}

func newScriptCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster()
	for i, speed := range []float64{1, 2, 0.5, 1.5} {
		if _, err := c.AddMachine(arch.Machine{
			Name: fmt.Sprintf("rm%d", i), Class: arch.Workstation, Speed: speed, OS: "unix", MemoryMB: 64,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestClusterResetMatchesFresh pins the recycling contract at the cluster
// layer: running the script, resetting, and running it again — this time
// with the invariant auditor watching — must reproduce a fresh cluster's
// completion times exactly, with zero audit violations.
func TestClusterResetMatchesFresh(t *testing.T) {
	want := clusterScript(t, newScriptCluster(t))
	if len(want) != 8 {
		t.Fatalf("script completed %d of 8 tasks inside the horizon", len(want))
	}

	c := newScriptCluster(t)
	clusterScript(t, c)
	c.Reset()
	if got := c.Sim.Now(); got != 0 {
		t.Fatalf("Reset left virtual time at %v", got)
	}
	for _, m := range c.Machines() {
		if m.RemoteTasks() != 0 || m.LocalLoad() != 0 || m.Suspended() {
			t.Fatalf("machine %s not virgin after Reset: tasks=%d load=%v suspended=%v",
				m.Name(), m.RemoteTasks(), m.LocalLoad(), m.Suspended())
		}
		if m.RemoteUtilization(time.Hour) != 0 {
			t.Fatalf("machine %s kept utilization history across Reset", m.Name())
		}
	}
	auditor := AttachAuditor(c)
	got := clusterScript(t, c)
	auditor.Finish()
	if v := auditor.Violations(); len(v) > 0 {
		t.Fatalf("audit violations on the recycled cluster:\n%v", v)
	}
	if len(got) != len(want) {
		t.Fatalf("recycled cluster completed %d tasks, fresh completed %d", len(got), len(want))
	}
	for id, at := range want {
		if got[id] != at {
			t.Fatalf("task %s: recycled completion %v, fresh %v", id, got[id], at)
		}
	}
}

// TestClusterReplaceSpecs pins the re-provisioning path the scenario arena
// uses between run indexes: after Reset + ReplaceSpecs the fleet runs at the
// new speeds (a doubled machine finishes in half the virtual time), and a
// mismatched replacement set is rejected wholesale.
func TestClusterReplaceSpecs(t *testing.T) {
	c := NewCluster()
	spec := arch.Machine{Name: "rs0", Class: arch.Workstation, Speed: 1, OS: "unix"}
	m, err := c.AddMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() time.Duration {
		var doneAt time.Duration
		task := &Task{ID: "t", Work: 60, OnDone: func(_ *Task, at time.Duration) { doneAt = at }}
		if err := m.AddTask(task); err != nil {
			t.Fatal(err)
		}
		c.Sim.RunUntil(time.Hour)
		return doneAt
	}
	base := runOnce()
	if base == 0 {
		t.Fatal("task never completed")
	}

	c.Reset()
	fast := spec
	fast.Speed = 2
	if err := c.ReplaceSpecs([]arch.Machine{fast}); err != nil {
		t.Fatal(err)
	}
	if got := runOnce(); got != base/2 {
		t.Fatalf("doubled speed completed at %v, want %v", got, base/2)
	}

	c.Reset()
	renamed := spec
	renamed.Name = "other"
	if err := c.ReplaceSpecs([]arch.Machine{renamed}); err == nil {
		t.Fatal("ReplaceSpecs accepted a renamed fleet")
	}
	if err := c.ReplaceSpecs(nil); err == nil {
		t.Fatal("ReplaceSpecs accepted a wrong-sized fleet")
	}
	bad := spec
	bad.Speed = 0
	if err := c.ReplaceSpecs([]arch.Machine{bad}); err == nil {
		t.Fatal("ReplaceSpecs accepted a non-positive speed")
	}
}
