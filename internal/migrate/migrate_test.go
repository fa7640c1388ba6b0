package migrate

import (
	"errors"
	"math"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/netsim"
	"vce/internal/sim"
	"vce/internal/taskgraph"
)

func ws(name string) arch.Machine {
	return arch.Machine{Name: name, Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.BigEndian}
}

// fastNet gives deterministic, simple transfer arithmetic: 1 MiB/s, no
// latency.
func newCluster(t *testing.T, names ...string) (*sim.Cluster, map[string]*sim.Machine) {
	t.Helper()
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	ms := make(map[string]*sim.Machine, len(names))
	for _, n := range names {
		m, err := c.AddMachine(ws(n))
		if err != nil {
			t.Fatal(err)
		}
		ms[n] = m
	}
	return c, ms
}

func TestAddressSpaceRequiresHomogeneity(t *testing.T) {
	c := sim.NewCluster()
	src, _ := c.AddMachine(ws("src"))
	dst, _ := c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 50, OS: "cmost"})
	task := &sim.Task{ID: "t", Work: 10, ImageBytes: 1 << 20}
	_ = src.AddTask(task)
	err := AddressSpace{}.CanMigrate(task, src, dst)
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("heterogeneous address-space migration allowed: %v", err)
	}
	if _, err := (AddressSpace{}).Migrate(c, task, src, dst); err == nil {
		t.Fatal("Migrate succeeded across architectures")
	}
	// The evacuation scan asks once per idle candidate and discards the
	// refusal: answering must not format (allocate) an error.
	task.Checkpointable = true
	for _, s := range []Strategy{AddressSpace{}, NewCheckpointer(time.Second)} {
		allocs := testing.AllocsPerRun(100, func() {
			if !errors.Is(s.CanMigrate(task, src, dst), ErrNotApplicable) {
				t.Fatalf("%s allowed a heterogeneous pair", s.Name())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: refusing a heterogeneous pair allocates %v times per call", s.Name(), allocs)
		}
	}
}

func TestAddressSpaceMigrationPreservesWork(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	var doneAt time.Duration
	task := &sim.Task{ID: "t", Work: 10, ImageBytes: 1 << 20,
		OnDone: func(_ *sim.Task, at time.Duration) { doneAt = at }}
	_ = ms["src"].AddTask(task)
	var res Result
	c.Sim.At(4*time.Second, func() {
		var err error
		res, err = AddressSpace{}.Migrate(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Sim.Run()
	// 4 work done, 1 MiB at 1 MiB/s = 1s downtime, then 6 work on dst:
	// completion at 4 + 1 + 6 = 11s. Zero lost work.
	if doneAt != 11*time.Second {
		t.Fatalf("completion at %v, want 11s", doneAt)
	}
	if res.LostWork != 0 {
		t.Fatalf("lost work = %v, want 0", res.LostWork)
	}
	if res.BytesMoved != 1<<20 {
		t.Fatalf("bytes = %d", res.BytesMoved)
	}
	if res.Downtime != time.Second {
		t.Fatalf("downtime = %v", res.Downtime)
	}
}

func TestCheckpointerRequiresCooperation(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	task := &sim.Task{ID: "t", Work: 10} // not checkpointable
	_ = ms["src"].AddTask(task)
	k := NewCheckpointer(time.Second)
	k.Start(c)
	c.Sim.Run()
	if n, bytes := k.Stats(); n != 0 || bytes != 0 {
		t.Fatalf("uncooperative task checkpointed %d times (%d bytes)", n, bytes)
	}
	if err := k.CanMigrate(task, ms["src"], ms["dst"]); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("CanMigrate: %v", err)
	}
}

func TestCheckpointMigrationLosesOnlyDelta(t *testing.T) {
	c, ms := newCluster(t, "src", "dst")
	var doneAt time.Duration
	task := &sim.Task{ID: "t", Work: 20, ImageBytes: 1 << 20, Checkpointable: true,
		OnDone: func(_ *sim.Task, at time.Duration) { doneAt = at }}
	_ = ms["src"].AddTask(task)
	k := NewCheckpointer(3 * time.Second)
	k.Start(c)
	var res Result
	c.Sim.At(10*time.Second, func() {
		var err error
		res, err = k.Migrate(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Sim.Run()
	// Checkpoints at 3,6,9s; migration at 10s loses 1 work unit (done
	// since t=9), transfers the 1 MiB record in 1s, resumes with 9 done:
	// 11 remaining from t=11 → completion at 22s.
	if math.Abs(res.LostWork-1) > 1e-6 {
		t.Fatalf("lost work = %v, want 1", res.LostWork)
	}
	if doneAt != 22*time.Second {
		t.Fatalf("completion at %v, want 22s", doneAt)
	}
	ckpts, bytes := k.Stats()
	if ckpts < 3 || bytes < 3<<20 {
		t.Fatalf("checkpoint stats = %d, %d", ckpts, bytes)
	}
}

func TestCheckpointIntervalTradesLostWork(t *testing.T) {
	// Longer checkpoint intervals lose more work on migration — the E7a
	// ablation's shape.
	lost := func(interval time.Duration) float64 {
		c, ms := newCluster(t, "src", "dst")
		task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
		_ = ms["src"].AddTask(task)
		k := NewCheckpointer(interval)
		k.Start(c)
		var res Result
		c.Sim.At(50*time.Second, func() {
			var err error
			res, err = k.Migrate(c, task, ms["src"], ms["dst"])
			if err != nil {
				t.Errorf("migrate: %v", err)
			}
		})
		c.Sim.Run()
		return res.LostWork
	}
	short := lost(2 * time.Second)
	long := lost(20 * time.Second)
	if !(short < long) {
		t.Fatalf("lost work: interval 2s -> %v, 20s -> %v; want shorter < longer", short, long)
	}
}

func TestCheckpointReplicaMakesRestartCheap(t *testing.T) {
	// With the checkpoint record pre-replicated at the destination
	// (anticipatory replication), migration moves zero bytes.
	c, ms := newCluster(t, "src", "dst")
	task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
	_ = ms["src"].AddTask(task)
	k := NewCheckpointer(time.Second)
	k.Start(c)
	var res Result
	c.Sim.At(5500*time.Millisecond, func() {
		// Anticipatory replication of the checkpoint record.
		if err := task.ReplicateCheckpoint(ms["dst"]); err != nil {
			t.Errorf("replicate: %v", err)
		}
	})
	c.Sim.At(5800*time.Millisecond, func() {
		var err error
		res, err = k.Migrate(c, task, ms["src"], ms["dst"])
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Sim.Run()
	if res.BytesMoved != 0 {
		t.Fatalf("bytes moved = %d, want 0 (replica already at dst)", res.BytesMoved)
	}
	if res.Downtime != 0 {
		t.Fatalf("downtime = %v, want 0", res.Downtime)
	}
}

func TestRecompileWorksAcrossArchitectures(t *testing.T) {
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	src, _ := c.AddMachine(ws("src"))
	dst, _ := c.AddMachine(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 1, OS: "cmost"})
	var doneAt time.Duration
	task := &sim.Task{ID: "t", Work: 10, ImageBytes: 1 << 20,
		OnDone: func(_ *sim.Task, at time.Duration) { doneAt = at }}
	_ = src.AddTask(task)
	r := &Recompile{Cost: compilemgr.CostModel{Base: 10 * time.Second, PerMiB: 0}}
	var res Result
	c.Sim.At(4*time.Second, func() {
		var err error
		res, err = r.Migrate(c, task, src, dst)
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	c.Sim.Run()
	// State = 0.1 MiB → ~0.1s transfer; compile 10s; downtime ~10.1s;
	// resume at ~14.1s with 6 work left → done at ~20.1s. (The state
	// size truncates to whole bytes, so compare with tolerance.)
	want := 4*time.Second + 10*time.Second + 100*time.Millisecond + 6*time.Second
	if diff := doneAt - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("completion at %v, want ~%v", doneAt, want)
	}
	if res.LostWork != 0 {
		t.Fatalf("lost work = %v", res.LostWork)
	}
	if res.Downtime <= 10*time.Second {
		t.Fatalf("downtime = %v, want > compile time", res.Downtime)
	}
}

func TestRecompileUsesWarmBinaryCache(t *testing.T) {
	// With anticipatory compilation done, the compile cost vanishes.
	db := arch.NewDB()
	cm5 := arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 1, OS: "cmost"}
	_ = db.Add(cm5)
	_ = db.Add(ws("src"))
	mgr := compilemgr.New(db, compilemgr.CostModel{Base: 10 * time.Second})

	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	src, _ := c.AddMachine(ws("src"))
	dst, _ := c.AddMachine(cm5)
	task := &sim.Task{ID: "t", Work: 1000, ImageBytes: 1 << 20}
	_ = src.AddTask(task)
	r := &Recompile{Compiler: mgr, Cost: compilemgr.CostModel{Base: 10 * time.Second}, Program: "/apps/t.vce"}

	// Cold cache: first migration pays the compile.
	var cold Result
	c.Sim.At(time.Second, func() {
		var err error
		cold, err = r.Migrate(c, task, src, dst)
		if err != nil {
			t.Errorf("cold migrate: %v", err)
		}
	})
	// Second migration back and forth: warm cache on both targets.
	var warm Result
	c.Sim.At(30*time.Second, func() {
		var err error
		warm, err = r.Migrate(c, task, dst, src)
		if err != nil {
			t.Errorf("warm migrate 1: %v", err)
			return
		}
		_ = warm
	})
	var warm2 Result
	c.Sim.At(60*time.Second, func() {
		var err error
		warm2, err = r.Migrate(c, task, src, dst)
		if err != nil {
			t.Errorf("warm migrate 2: %v", err)
		}
	})
	c.Sim.Run()
	if cold.Downtime <= 10*time.Second {
		t.Fatalf("cold downtime = %v, want > 10s", cold.Downtime)
	}
	if warm2.Downtime >= time.Second {
		t.Fatalf("warm downtime = %v, want < 1s (binary cached)", warm2.Downtime)
	}
}

func TestRedundantLaunchFirstCopyWins(t *testing.T) {
	c, ms := newCluster(t, "a", "b", "c")
	// Machine b is faster via lighter load: make a and c slower.
	ms["a"].SetLocalLoad(0.5)
	ms["c"].SetLocalLoad(0.9)
	r := NewRedundant()
	var doneAt time.Duration
	set, err := r.Launch(c, "job", 10, 1<<20, []*sim.Machine{ms["a"], ms["b"], ms["c"]}, func(at time.Duration) { doneAt = at })
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.Run()
	if !set.Done() {
		t.Fatal("set not done")
	}
	// b at full speed finishes in 10s; others get killed.
	if doneAt != 10*time.Second {
		t.Fatalf("done at %v, want 10s", doneAt)
	}
	if set.Copies() != 0 {
		t.Fatalf("copies left = %d", set.Copies())
	}
	if set.WastedWork <= 0 {
		t.Fatal("no wasted work recorded for killed copies")
	}
	for _, m := range c.Machines() {
		if n := m.RemoteTasks(); n != 0 {
			t.Fatalf("%s hosts %d tasks after completion", m.Name(), n)
		}
	}
}

func TestRedundantEvictIsZeroCostMigration(t *testing.T) {
	c, ms := newCluster(t, "a", "b")
	r := NewRedundant()
	var doneAt time.Duration
	_, err := r.Launch(c, "job", 10, 1<<20, []*sim.Machine{ms["a"], ms["b"]}, func(at time.Duration) { doneAt = at })
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	c.Sim.At(3*time.Second, func() {
		var err error
		res, err = r.Evict(c, "job", "a")
		if err != nil {
			t.Errorf("evict: %v", err)
		}
	})
	c.Sim.Run()
	if res.BytesMoved != 0 || res.Downtime != 0 {
		t.Fatalf("redundant eviction cost bytes=%d downtime=%v, want zero", res.BytesMoved, res.Downtime)
	}
	if math.Abs(res.LostWork-3) > 1e-6 {
		t.Fatalf("lost work = %v, want 3 (the killed copy's progress)", res.LostWork)
	}
	// The surviving copy still finishes (at 10s: it ran at full rate all
	// along).
	if doneAt != 10*time.Second {
		t.Fatalf("done at %v, want 10s", doneAt)
	}
}

func TestRedundantRefusesToKillLastCopy(t *testing.T) {
	c, ms := newCluster(t, "a", "b")
	r := NewRedundant()
	if _, err := r.Launch(c, "job", 10, 0, []*sim.Machine{ms["a"], ms["b"]}, nil); err != nil {
		t.Fatal(err)
	}
	c.Sim.At(time.Second, func() {
		if _, err := r.Evict(c, "job", "a"); err != nil {
			t.Errorf("first evict: %v", err)
		}
		if _, err := r.Evict(c, "job", "b"); err == nil {
			t.Error("evicting the last copy succeeded")
		}
	})
	c.Sim.Run()
}

func TestRedundantLaunchValidation(t *testing.T) {
	c, ms := newCluster(t, "a")
	r := NewRedundant()
	if _, err := r.Launch(c, "j", 1, 0, nil, nil); err == nil {
		t.Fatal("empty host list accepted")
	}
	if _, err := r.Launch(c, "j", 1, 0, []*sim.Machine{ms["a"]}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch(c, "j", 1, 0, []*sim.Machine{ms["a"]}, nil); err == nil {
		t.Fatal("duplicate set accepted")
	}
}

func TestStrategyOverheadOrdering(t *testing.T) {
	// The §4.4 shape: redundant is cheapest (no state moves), then
	// address-space (image over network), then checkpoint (image + lost
	// work), with recompilation the most expensive (compile dominates).
	run := func(f func(c *sim.Cluster, src, dst *sim.Machine, task *sim.Task) Result) Result {
		c, ms := newCluster(t, "src", "dst")
		task := &sim.Task{ID: "t", Work: 100, ImageBytes: 8 << 20, Checkpointable: true}
		_ = ms["src"].AddTask(task)
		var res Result
		c.Sim.At(10*time.Second, func() { res = f(c, ms["src"], ms["dst"], task) })
		c.Sim.Run()
		return res
	}
	addr := run(func(c *sim.Cluster, src, dst *sim.Machine, task *sim.Task) Result {
		r, err := AddressSpace{}.Migrate(c, task, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	ckpt := run(func(c *sim.Cluster, src, dst *sim.Machine, task *sim.Task) Result {
		k := NewCheckpointer(4 * time.Second)
		k.Start(c)
		r, err := k.Migrate(c, task, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	rec := run(func(c *sim.Cluster, src, dst *sim.Machine, task *sim.Task) Result {
		r, err := (&Recompile{Cost: compilemgr.DefaultCostModel()}).Migrate(c, task, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	// Redundant: measured directly above as zero-cost; assert the rest.
	if !(addr.Downtime < rec.Downtime) {
		t.Fatalf("address-space (%v) should beat recompile (%v)", addr.Downtime, rec.Downtime)
	}
	if addr.LostWork != 0 {
		t.Fatalf("address-space lost work = %v", addr.LostWork)
	}
	if ckpt.LostWork <= 0 {
		t.Fatalf("checkpoint lost work = %v, want > 0", ckpt.LostWork)
	}
}

// TestCheckpointCadence pins the cluster's one checkpoint cadence: every
// cooperative resident of every machine checkpoints at each multiple of the
// interval, an uncooperative one never does, and the cadence stops after
// the last event that could change a resident, so Run returns.
func TestCheckpointCadence(t *testing.T) {
	c, ms := newCluster(t, "a", "b")
	// a: two cooperative tasks sharing speed 1, done at 200s. b: a
	// cooperative 50-unit task beside an uncooperative one; the first is
	// done at 100s, the second at 150s.
	c1 := &sim.Task{ID: "c1", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
	c2 := &sim.Task{ID: "c2", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
	c3 := &sim.Task{ID: "c3", Work: 50, ImageBytes: 1 << 20, Checkpointable: true}
	u := &sim.Task{ID: "u", Work: 100, ImageBytes: 1 << 20}
	for _, p := range []struct {
		m    *sim.Machine
		task *sim.Task
	}{{ms["a"], c1}, {ms["a"], c2}, {ms["b"], c3}, {ms["b"], u}} {
		if err := p.m.AddTask(p.task); err != nil {
			t.Fatal(err)
		}
	}
	const interval = 7 * time.Second
	k := NewCheckpointer(interval)
	k.Start(c)
	// Just after each of the first three ticks, c1's record holds the
	// progress of the tick's instant: 0.5 work units per second. Its host
	// holds the record; the uncooperative task has none.
	for i := 1; i <= 3; i++ {
		want := 3.5 * float64(i)
		c.Sim.At(time.Duration(i)*interval+time.Millisecond, func() {
			if math.Abs(c1.CheckpointedWork-want) > 1e-9 {
				t.Errorf("after tick %d c1 checkpointed %v, want %v", i, c1.CheckpointedWork, want)
			}
			if !c1.CheckpointOn(ms["a"]) || c1.CheckpointOn(ms["b"]) || u.CheckpointOn(ms["b"]) {
				t.Errorf("after tick %d: c1's record on a=%v b=%v, u's on b=%v; want only c1 on a", i,
					c1.CheckpointOn(ms["a"]), c1.CheckpointOn(ms["b"]), u.CheckpointOn(ms["b"]))
			}
		})
	}
	c.Sim.Run()
	// Ticks at 7s … 196s reach c1 and c2 (28 each) and c3 until it ends at
	// 100s (7s … 98s, 14). The tick at 203s finds nothing else pending and
	// is the last.
	if n, bytes := k.Stats(); n != 70 || bytes != 70<<20 {
		t.Fatalf("checkpoints = %d (%d bytes), want 70 (70 MiB)", n, bytes)
	}
	if c1.CheckpointedWork != 98 || c2.CheckpointedWork != 98 || c3.CheckpointedWork != 49 {
		t.Fatalf("last checkpoints c1=%v c2=%v c3=%v, want 98/98/49", c1.CheckpointedWork, c2.CheckpointedWork, c3.CheckpointedWork)
	}
	if u.CheckpointedWork != 0 {
		t.Fatalf("uncooperative task checkpointed %v", u.CheckpointedWork)
	}
	if u.ReplicateCheckpoint(ms["a"]) == nil {
		t.Fatal("uncooperative task has a checkpoint record")
	}
	if c1.CheckpointOn(ms["a"]) || c3.CheckpointOn(ms["b"]) {
		t.Fatal("a finished task still holds its checkpoint record")
	}
	if now := c.Sim.Now(); now != 203*time.Second || c.Sim.Pending() != 0 {
		t.Fatalf("run ended at %v with %d pending, want 203s and none", now, c.Sim.Pending())
	}
}

// TestEstimateIsMigratePrice pins one price per strategy: on twin clusters
// at the same instant, the picker's Estimate equals the downtime Migrate
// charges, plus the redo time of its lost work for a checkpoint restart.
func TestEstimateIsMigratePrice(t *testing.T) {
	type strategy interface {
		Strategy
		Estimator
	}
	cm5 := arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 2, OS: "cmost"}
	const program = "/apps/t.vce"
	compiler := func(warm bool) *compilemgr.Manager {
		db := arch.NewDB()
		_ = db.Add(ws("src"))
		_ = db.Add(cm5)
		mgr := compilemgr.New(db, compilemgr.CostModel{Base: 10 * time.Second})
		if warm {
			mgr.Prepare(taskgraph.Task{ID: "warm", Program: program, ImageBytes: 1 << 20}, compilemgr.TargetOf(cm5))
		}
		return mgr
	}
	cases := []struct {
		name    string
		dst     arch.Machine
		at      time.Duration
		strat   func() strategy
		prepare func(c *sim.Cluster, s strategy, task *sim.Task, dst *sim.Machine)
		bytes   int64
	}{
		{name: "address-space", dst: ws("dst"), at: 5 * time.Second,
			strat: func() strategy { return AddressSpace{} }, bytes: 1 << 20},
		{name: "checkpoint/cold record", dst: ws("dst"), at: 5 * time.Second,
			strat: func() strategy { return NewCheckpointer(10 * time.Second) }, bytes: 1 << 20},
		{name: "checkpoint/mid-interval", dst: ws("dst"), at: 15 * time.Second,
			strat:   func() strategy { return NewCheckpointer(10 * time.Second) },
			prepare: func(c *sim.Cluster, s strategy, _ *sim.Task, _ *sim.Machine) { s.(*Checkpointer).Start(c) }, bytes: 1 << 20},
		{name: "checkpoint/warm replica", dst: ws("dst"), at: 11 * time.Second,
			strat: func() strategy { return NewCheckpointer(10 * time.Second) },
			prepare: func(c *sim.Cluster, s strategy, task *sim.Task, dst *sim.Machine) {
				s.(*Checkpointer).Start(c)
				c.Sim.At(10500*time.Millisecond, func() {
					if err := task.ReplicateCheckpoint(dst); err != nil {
						t.Error(err)
					}
				})
			}},
		{name: "recompile/cold cache", dst: cm5, at: 5 * time.Second,
			strat: func() strategy {
				return &Recompile{Compiler: compiler(false), Cost: compilemgr.CostModel{Base: 10 * time.Second}, Program: program}
			}, bytes: 1 << 20 / 10},
		{name: "recompile/warm cache", dst: cm5, at: 5 * time.Second,
			strat: func() strategy {
				return &Recompile{Compiler: compiler(true), Cost: compilemgr.CostModel{Base: 10 * time.Second}, Program: program}
			}, bytes: 1 << 20 / 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// twin builds one of two identical worlds and runs f at tc.at.
			twin := func(f func(c *sim.Cluster, s strategy, task *sim.Task, src, dst *sim.Machine)) *sim.Task {
				c := sim.NewCluster()
				c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
				src, _ := c.AddMachine(ws("src"))
				dst, _ := c.AddMachine(tc.dst)
				task := &sim.Task{ID: "t", Work: 100, ImageBytes: 1 << 20, Checkpointable: true}
				if err := src.AddTask(task); err != nil {
					t.Fatal(err)
				}
				s := tc.strat()
				if tc.prepare != nil {
					tc.prepare(c, s, task, dst)
				}
				c.Sim.At(tc.at, func() { f(c, s, task, src, dst) })
				c.Sim.RunUntil(tc.at)
				return task
			}
			var est time.Duration
			twin(func(c *sim.Cluster, s strategy, task *sim.Task, src, dst *sim.Machine) {
				var err error
				if est, err = s.Estimate(c, task, src, dst); err != nil {
					t.Fatal(err)
				}
			})
			var res Result
			var want time.Duration
			moved := twin(func(c *sim.Cluster, s strategy, task *sim.Task, src, dst *sim.Machine) {
				var err error
				if res, err = s.Migrate(c, task, src, dst); err != nil {
					t.Fatal(err)
				}
				want = res.Downtime
				if _, ok := s.(*Checkpointer); ok {
					want += redoTime(res.LostWork, dst)
				}
			})
			if m := moved.Machine(); m != nil && m.Name() == "src" {
				t.Fatal("task still on src after Migrate")
			}
			if est != want {
				t.Fatalf("Estimate = %v, Migrate charged %+v (want estimate %v)", est, res, want)
			}
			if res.BytesMoved != tc.bytes {
				t.Fatalf("bytes moved = %d, want %d", res.BytesMoved, tc.bytes)
			}
		})
	}
}
