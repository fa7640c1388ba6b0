package loadbalance

import (
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/migrate"
	"vce/internal/netsim"
	"vce/internal/sim"
)

func ws(name string) arch.Machine {
	return arch.Machine{Name: name, Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.BigEndian}
}

func newCluster(t *testing.T, names ...string) (*sim.Cluster, map[string]*sim.Machine) {
	t.Helper()
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	ms := make(map[string]*sim.Machine)
	for _, n := range names {
		m, err := c.AddMachine(ws(n))
		if err != nil {
			t.Fatal(err)
		}
		ms[n] = m
	}
	return c, ms
}

func TestStealthSuspendsAndResumes(t *testing.T) {
	c, ms := newCluster(t, "m")
	pol := NewStealth()
	pol.Attach(c)
	var doneAt time.Duration
	task := &sim.Task{ID: "t", Work: 10, OnDone: func(_ *sim.Task, at time.Duration) { doneAt = at }}
	_ = ms["m"].AddTask(task)
	// Owner busy from 2s to 7s.
	_ = c.PlayLoadTrace("m", []sim.LoadStep{{At: 2 * time.Second, Load: 1.0}, {At: 7 * time.Second, Load: 0.0}})
	c.Sim.Run()
	// 2s run + 5s suspended + 8s run = 15s.
	if doneAt != 15*time.Second {
		t.Fatalf("done at %v, want 15s", doneAt)
	}
	if pol.Suspensions != 1 || pol.Resumes != 1 {
		t.Fatalf("transitions = %d/%d", pol.Suspensions, pol.Resumes)
	}
}

func TestStealthIgnoresMachinesWithoutRemoteTasks(t *testing.T) {
	c, ms := newCluster(t, "m")
	pol := NewStealth()
	pol.Attach(c)
	ms["m"].SetLocalLoad(1.0)
	c.Sim.Run()
	if pol.Suspensions != 0 {
		t.Fatal("suspended a machine with no remote tasks")
	}
}

func TestVCEMigrateEvacuatesToIdleMachine(t *testing.T) {
	c, ms := newCluster(t, "busy", "idle")
	pol := NewVCEMigrate(migrate.AddressSpace{})
	pol.Attach(c)
	var doneAt time.Duration
	task := &sim.Task{ID: "t", Work: 10, ImageBytes: 1 << 20,
		OnDone: func(_ *sim.Task, at time.Duration) { doneAt = at }}
	_ = ms["busy"].AddTask(task)
	_ = c.PlayLoadTrace("busy", []sim.LoadStep{{At: 4 * time.Second, Load: 1.0}})
	c.Sim.Run()
	// 4 work on busy, 1s transfer, 6 work on idle → 11s. Without
	// migration the task would stall forever (load stays 1.0).
	if doneAt != 11*time.Second {
		t.Fatalf("done at %v, want 11s", doneAt)
	}
	if pol.Migrations != 1 {
		t.Fatalf("migrations = %d", pol.Migrations)
	}
	if pol.TotalBytesMoved() != 1<<20 {
		t.Fatalf("bytes = %d", pol.TotalBytesMoved())
	}
}

func TestVCEMigrateFallsBackToSuspension(t *testing.T) {
	// No idle destination: the policy suspends like Stealth.
	c, ms := newCluster(t, "busy", "alsobusy")
	ms["alsobusy"].SetLocalLoad(0.9)
	pol := NewVCEMigrate(migrate.AddressSpace{})
	pol.Attach(c)
	task := &sim.Task{ID: "t", Work: 10}
	_ = ms["busy"].AddTask(task)
	_ = c.PlayLoadTrace("busy", []sim.LoadStep{{At: 2 * time.Second, Load: 1.0}})
	c.Sim.RunUntil(30 * time.Second)
	if pol.Migrations != 0 {
		t.Fatalf("migrations = %d, want 0", pol.Migrations)
	}
	if pol.Suspensions != 1 {
		t.Fatalf("suspensions = %d", pol.Suspensions)
	}
	if !ms["busy"].Suspended() {
		t.Fatal("machine not suspended")
	}
	// When the owner leaves, the task resumes and completes.
	var done bool
	task.OnDone = func(*sim.Task, time.Duration) { done = true }
	ms["busy"].SetLocalLoad(0.0)
	c.Sim.Run()
	if !done {
		t.Fatal("task never completed after resume")
	}
	if pol.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1 (Stealth's rule resumes the fallback)", pol.Resumes)
	}
}

func TestVCEMigrateHonoursStrategyApplicability(t *testing.T) {
	// The only idle machine is architecture-incompatible; address-space
	// migration must refuse and fall back to suspension.
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Bandwidth: 1 << 20})
	busy, _ := c.AddMachine(ws("busy"))
	_, _ = c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 10, OS: "cmost"})
	pol := NewVCEMigrate(migrate.AddressSpace{})
	pol.Attach(c)
	task := &sim.Task{ID: "t", Work: 10}
	_ = busy.AddTask(task)
	_ = c.PlayLoadTrace("busy", []sim.LoadStep{{At: time.Second, Load: 1.0}})
	c.Sim.RunUntil(10 * time.Second)
	if pol.Migrations != 0 {
		t.Fatal("migrated to an incompatible machine")
	}
	if !busy.Suspended() {
		t.Fatal("no fallback suspension")
	}
}

func TestRippleEffectSuspensionVsMigration(t *testing.T) {
	// The §4.3 claim: suspending a predecessor delays its dependents; the
	// VCE migrates it instead and the pipeline finishes sooner.
	runPipeline := func(attach func(*sim.Cluster)) time.Duration {
		c, ms := newCluster(t, "host", "spare")
		attach(c)
		var finish time.Duration
		second := &sim.Task{ID: "second", Work: 5,
			OnDone: func(_ *sim.Task, at time.Duration) { finish = at }}
		first := &sim.Task{ID: "first", Work: 10, ImageBytes: 1 << 20,
			OnDone: func(_ *sim.Task, at time.Duration) {
				// Dependent starts where the predecessor finished.
				host := ms["host"]
				if host.LocalLoad() >= 0.8 {
					host = ms["spare"]
				}
				_ = host.AddTask(second)
			}}
		_ = ms["host"].AddTask(first)
		// Owner returns at 5s and stays.
		_ = c.PlayLoadTrace("host", []sim.LoadStep{{At: 5 * time.Second, Load: 1.0}})
		c.Sim.RunUntil(10 * time.Minute)
		if finish == 0 {
			return 10 * time.Minute // never finished in the window
		}
		return finish
	}
	suspended := runPipeline(func(c *sim.Cluster) { NewStealth().Attach(c) })
	migrated := runPipeline(func(c *sim.Cluster) {
		NewVCEMigrate(migrate.AddressSpace{}).Attach(c)
	})
	if migrated >= suspended {
		t.Fatalf("migration (%v) should beat suspension (%v) on dependent completion", migrated, suspended)
	}
	// Under pure suspension the pipeline never finishes while the owner
	// stays: the ripple effect in its extreme form.
	if suspended < 10*time.Minute {
		t.Fatalf("suspension pipeline finished at %v; expected stall", suspended)
	}
}

func TestDAWGSQueuesUntilIdle(t *testing.T) {
	c, ms := newCluster(t, "a", "b")
	ms["a"].SetLocalLoad(0.9)
	ms["b"].SetLocalLoad(0.9)
	pol := NewDAWGS()
	pol.Attach(c)
	var done int
	for i := 0; i < 3; i++ {
		pol.Submit(c, &sim.Task{ID: string(rune('x' + i)), Work: 5,
			OnDone: func(*sim.Task, time.Duration) { done++ }})
	}
	if len(pol.queue) != 3 || pol.Placed != 0 {
		t.Fatalf("queue = %d placed = %d; nothing should place on busy machines", len(pol.queue), pol.Placed)
	}
	// Machine a goes idle: jobs flow one at a time (a machine with a
	// resident task is no longer idle).
	c.Sim.At(time.Second, func() { ms["a"].SetLocalLoad(0.0) })
	c.Sim.Run()
	if pol.Placed == 0 {
		t.Fatal("no placements after idle")
	}
	if done != 3 {
		t.Fatalf("completions = %d, want 3 (queue drains as machine frees)", done)
	}
}

func TestDAWGSNonPreemptive(t *testing.T) {
	// DAWGS never moves a placed task: with Stealth beside the queue,
	// owner activity suspends it in place even when another machine is idle.
	c, ms := newCluster(t, "host", "idle")
	NewStealth().Attach(c)
	pol := NewDAWGS()
	pol.Attach(c)
	task := &sim.Task{ID: "t", Work: 10}
	pol.Submit(c, task)
	if task.Machine() == nil {
		t.Fatal("task not placed")
	}
	placedOn := task.Machine().Name()
	_ = c.PlayLoadTrace(placedOn, []sim.LoadStep{{At: time.Second, Load: 1.0}})
	c.Sim.RunUntil(time.Minute)
	if task.Finished() {
		t.Fatal("suspended task finished")
	}
	if task.Machine() == nil || task.Machine().Name() != placedOn {
		t.Fatal("DAWGS moved a task")
	}
	_ = ms
}
