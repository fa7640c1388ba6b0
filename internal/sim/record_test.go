package sim

import (
	"testing"
	"time"
)

// TestCheckpointRecord pins the checkpoint record's life on its task: a
// checkpoint leaves its host the only holder, replication adds holders and
// needs a record to copy, a kill keeps the record, completion empties it,
// and Reset starts from an empty record without allocating.
func TestCheckpointRecord(t *testing.T) {
	c := newScriptCluster(t)
	ms := c.Machines()
	a, b, d := ms[0], ms[1], ms[2] // a runs at speed 1
	task := &Task{ID: "t", Work: 10, Checkpointable: true}
	if task.ReplicateCheckpoint(b) == nil {
		t.Fatal("replicated a record the task never took")
	}
	if err := a.AddTask(task); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(2 * time.Second)
	task.Checkpoint()
	if task.CheckpointedWork != 2 || !task.CheckpointOn(a) || task.CheckpointOn(b) {
		t.Fatalf("after a checkpoint at 2s: work %v, on a=%v b=%v; want 2, held by a alone",
			task.CheckpointedWork, task.CheckpointOn(a), task.CheckpointOn(b))
	}
	for range 2 { // a second copy to the same machine changes nothing
		if err := task.ReplicateCheckpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	if !task.CheckpointOn(a) || !task.CheckpointOn(b) || task.CheckpointOn(d) {
		t.Fatal("replication to b did not add exactly b")
	}
	c.Sim.RunUntil(3 * time.Second)
	task.Checkpoint()
	if task.CheckpointedWork != 3 || !task.CheckpointOn(a) || task.CheckpointOn(b) {
		t.Fatal("a new checkpoint left b's older copy current")
	}
	if err := task.ReplicateCheckpoint(b); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(time.Minute)
	if !task.Finished() || task.CheckpointOn(a) || task.CheckpointOn(b) || task.ReplicateCheckpoint(d) == nil {
		t.Fatal("a finished task still holds a checkpoint record")
	}

	x := &Task{ID: "x", Work: 1e6, Checkpointable: true}
	cycle := func() {
		if err := a.AddTask(x); err != nil {
			t.Fatal(err)
		}
		x.Checkpoint()
		if err := x.ReplicateCheckpoint(b); err != nil {
			t.Fatal(err)
		}
		if err := a.Kill(x); err != nil {
			t.Fatal(err)
		}
		if !x.CheckpointOn(a) || !x.CheckpointOn(b) {
			t.Fatal("the kill dropped the record")
		}
		if err := x.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if x.CheckpointOn(a) || x.CheckpointOn(b) || x.ReplicateCheckpoint(d) == nil {
		t.Fatal("Reset kept the predecessor's checkpoint record")
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a checkpoint → Reset cycle allocates %v times, want 0", n)
	}
}
