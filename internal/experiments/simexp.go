package experiments

import (
	"fmt"
	"time"

	"vce/internal/antic"
	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/loadbalance"
	"vce/internal/metrics"
	"vce/internal/migrate"
	"vce/internal/netsim"
	"vce/internal/rng"
	"vce/internal/sched"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vtime"
)

func wsSpec(name string, speed float64) arch.Machine {
	return arch.Machine{Name: name, Class: arch.Workstation, Speed: speed, OS: "unix", Order: arch.BigEndian, MemoryMB: 64}
}

// simCluster builds a cluster with a deterministic 1 MiB/s zero-latency
// network so byte costs convert to seconds 1:1 (in MiB).
func simCluster(machines ...arch.Machine) (*sim.Cluster, []*sim.Machine, error) {
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	var out []*sim.Machine
	for _, spec := range machines {
		m, err := c.AddMachine(spec)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, m)
	}
	return c, out, nil
}

// E5Placement reproduces the §4.3 "machine A" argument at scale: as the
// fraction of capability-constrained tasks grows, the throughput-first
// policy's makespan advantage over per-job greedy placement grows.
func E5Placement() (*Result, error) {
	res := &Result{ID: "E5", Title: "§4.3: throughput-first vs per-job greedy placement"}
	res.Table = metrics.NewTable("E5: makespan by constrained-task fraction",
		"% constrained", "greedy s", "utilization-first s", "improvement %")
	anyImprovement := false
	for _, pct := range []int{10, 25, 50, 75} {
		greedy, err := runPlacementSim(sched.NewGreedyBestFit(), pct)
		if err != nil {
			return nil, err
		}
		utilFirst, err := runPlacementSim(sched.NewUtilizationFirst(), pct)
		if err != nil {
			return nil, err
		}
		if utilFirst > greedy {
			return nil, fmt.Errorf("E5 %d%%: utilization-first (%v) worse than greedy (%v)", pct, utilFirst, greedy)
		}
		if utilFirst < greedy {
			anyImprovement = true
		}
		imp := 100 * (1 - utilFirst.Seconds()/greedy.Seconds())
		res.Table.AddRow(pct, greedy.Seconds(), utilFirst.Seconds(), imp)
	}
	if !anyImprovement {
		return nil, fmt.Errorf("E5: utilization-first never beat greedy")
	}
	res.note("scheduling the constrained task on its unique machine and making the portable task wait (§4.3) shortens makespan at every constrained fraction")
	return res, nil
}

// runPlacementSim drives the given policy over a 20-task mix on a cluster
// with one uniquely-capable fast machine ("A") and four generic
// workstations, placing from the policy's waiting queue whenever a machine
// frees.
func runPlacementSim(pol sched.Policy, pctConstrained int) (time.Duration, error) {
	machines := []arch.Machine{
		wsSpec("A", 2), // fast and uniquely capable
		wsSpec("b", 1), wsSpec("c", 1), wsSpec("d", 1), wsSpec("e", 1),
	}
	c, ms, err := simCluster(machines...)
	if err != nil {
		return 0, err
	}
	const nTasks = 20
	const work = 10.0
	nConstrained := nTasks * pctConstrained / 100
	// Portable tasks head the queue — the §4.3 situation where the
	// flexible job is dispatchable while machine A sits free and a greedy
	// scheduler burns A on it. Candidates are machine indexes: A is 0.
	pinned, anywhere := []int{0}, []int{0, 1, 2, 3, 4}
	for i := 0; i < nTasks; i++ {
		it := sched.Item{Ref: i, Work: work, CandidateIDs: anywhere}
		if i >= nTasks-nConstrained {
			it.CandidateIDs = pinned
		}
		pol.Enqueue(it)
	}
	var makespan time.Duration
	var tryPlace func()
	tryPlace = func() {
		var states []sched.MachineState
		free := 0
		for _, m := range ms {
			slots := 1 - m.RemoteTasks()
			free += slots
			states = append(states, sched.MachineState{Machine: m.Spec, Load: m.Load(), Slots: slots})
		}
		for _, a := range pol.PlaceWaiting(states, free) {
			t := &sim.Task{
				ID:   fmt.Sprintf("t%02d", a.Ref),
				Work: work,
				OnDone: func(_ *sim.Task, at time.Duration) {
					if at > makespan {
						makespan = at
					}
					tryPlace()
				},
			}
			if err := ms[a.Machine].AddTask(t); err != nil {
				panic(err) // deterministic harness bug, not runtime state
			}
		}
	}
	tryPlace()
	c.Sim.Run()
	if n := pol.Len(); n > 0 {
		return 0, fmt.Errorf("placement sim stalled with %d tasks waiting under %s", n, pol.Name())
	}
	return makespan, nil
}

// E6Aging reproduces the §4.3 starvation guarantee: with aging, a
// low-priority task is eventually dispatched under a continuous stream of
// high-priority arrivals; without aging it starves. A last row witnesses the
// other §4.3 remedy, "authorized users will be able to modify the priorities
// of particular applications": without aging, a boosted victim is dispatched.
func E6Aging() (*Result, error) {
	res := &Result{ID: "E6", Title: "§4.3: priority aging prevents starvation"}
	res.Table = metrics.NewTable("E6: victim task wait by aging rate",
		"aging rate (prio/s)", "victim boost", "victim wait s", "dispatched")
	const horizon = 120 * time.Second
	var waits []time.Duration
	for _, rate := range []float64{0, 0.1, 1, 10} {
		wait, dispatched := runAgingSim(rate, 0, horizon)
		res.Table.AddRow(rate, "none", wait.Seconds(), dispatched)
		if rate == 0 && dispatched {
			return nil, fmt.Errorf("E6: victim dispatched without aging under saturation")
		}
		if rate > 0 && !dispatched {
			return nil, fmt.Errorf("E6: victim starved at aging rate %v", rate)
		}
		waits = append(waits, wait)
	}
	// Faster aging ⇒ shorter wait.
	for i := 2; i < len(waits); i++ {
		if waits[i] > waits[i-1] {
			return nil, fmt.Errorf("E6: wait not monotone in aging rate: %v", waits)
		}
	}
	const boostAt = 10 * time.Second
	boosted, dispatched := runAgingSim(0, boostAt, horizon)
	res.Table.AddRow(0.0, fmt.Sprintf("+%d at t=%gs", victimBoost, boostAt.Seconds()), boosted.Seconds(), dispatched)
	if !dispatched || boosted >= waits[0] {
		return nil, fmt.Errorf("E6: boosted victim waited %v (dispatched %v), not below the unboosted %v", boosted, dispatched, waits[0])
	}
	res.note("aging bounds the victim's wait (%.0fs at rate 0.1, %.0fs at rate 10); a static-priority dispatcher starves it for the whole run", waits[1].Seconds(), waits[3].Seconds())
	res.note("without aging, a user boost at t=%gs dispatches the victim at %.0fs", boostAt.Seconds(), boosted.Seconds())
	return res, nil
}

// victimBoost is the priority a user adds to E6's victim: above the
// stream's priority 5, so the boost alone ends the starvation.
const victimBoost = 10

// runAgingSim runs a single-server dispatcher fed by an aging queue: fresh
// priority-5 tasks arrive every 500ms; the victim (priority 0) arrives at
// t=0. Service time is 1s. A positive boostAt raises the victim's priority
// by victimBoost at that time.
func runAgingSim(rate float64, boostAt, horizon time.Duration) (time.Duration, bool) {
	kernel := vtime.NewSim()
	q := sched.NewAgingQueue(rate)
	q.Push("victim", 0, 0)
	busy := false
	victimAt := time.Duration(-1)
	var dispatch func()
	dispatch = func() {
		if busy {
			return
		}
		id, ok := q.Pop(kernel.Now())
		if !ok {
			return
		}
		busy = true
		if id == "victim" && victimAt < 0 {
			victimAt = kernel.Now()
		}
		kernel.After(time.Second, func() {
			busy = false
			dispatch()
		})
	}
	n := 0
	var arrive func()
	arrive = func() {
		if kernel.Now() >= horizon {
			return
		}
		n++
		q.Push(fmt.Sprintf("fresh-%d", n), 5, kernel.Now())
		dispatch()
		kernel.After(500*time.Millisecond, arrive)
	}
	arrive()
	if boostAt > 0 {
		kernel.At(boostAt, func() { q.Boost("victim", victimBoost) })
	}
	kernel.RunUntil(horizon)
	if victimAt < 0 {
		return horizon, false
	}
	return victimAt, true
}

// E7Migration reproduces the §4.4 strategy comparison: per-strategy bytes
// moved, downtime and lost work, plus heterogeneity support.
func E7Migration() (*Result, error) {
	res := &Result{ID: "E7", Title: "§4.4: four migration strategies"}
	res.Table = metrics.NewTable("E7: migration costs (16 MiB image, migrate at t=25s of 100 work units)",
		"strategy", "bytes MiB", "downtime s", "lost work", "heterogeneous ok")

	const image = 16 << 20
	const work = 100.0
	migrateAt := 25 * time.Second

	// Redundant execution.
	{
		c, ms, err := simCluster(wsSpec("src", 1), wsSpec("dst", 1))
		if err != nil {
			return nil, err
		}
		red := migrate.NewRedundant()
		if _, err := red.Launch(c, "job", work, image, ms, nil); err != nil {
			return nil, err
		}
		var r migrate.Result
		c.Sim.At(migrateAt, func() {
			r, err = red.Evict(c, "job", "src")
		})
		c.Sim.Run()
		if err != nil {
			return nil, fmt.Errorf("E7 redundant: %w", err)
		}
		res.Table.AddRow("redundant", float64(r.BytesMoved)/(1<<20), r.Downtime.Seconds(), r.LostWork, "n/a (copies pre-placed)")
		if r.BytesMoved != 0 || r.Downtime != 0 {
			return nil, fmt.Errorf("E7: redundant moved %d bytes / %v downtime, want zero", r.BytesMoved, r.Downtime)
		}
	}

	runOne := func(strategy migrate.Strategy, attach func(*sim.Cluster, *sim.Task) error, dstSpec arch.Machine) (migrate.Result, error) {
		c, ms, err := simCluster(wsSpec("src", 1), dstSpec)
		if err != nil {
			return migrate.Result{}, err
		}
		task := &sim.Task{ID: "job", Work: work, ImageBytes: image, Checkpointable: true}
		if err := ms[0].AddTask(task); err != nil {
			return migrate.Result{}, err
		}
		if attach != nil {
			if err := attach(c, task); err != nil {
				return migrate.Result{}, err
			}
		}
		var r migrate.Result
		var migErr error
		c.Sim.At(migrateAt, func() {
			r, migErr = strategy.Migrate(c, task, ms[0], ms[1])
		})
		c.Sim.Run()
		return r, migErr
	}

	addr, err := runOne(migrate.AddressSpace{}, nil, wsSpec("dst", 1))
	if err != nil {
		return nil, fmt.Errorf("E7 address-space: %w", err)
	}
	res.Table.AddRow("address-space", float64(addr.BytesMoved)/(1<<20), addr.Downtime.Seconds(), addr.LostWork, "no (homogeneity required)")

	ck := migrate.NewCheckpointer(10 * time.Second)
	ckr, err := runOne(ck, func(c *sim.Cluster, t *sim.Task) error { return ck.Attach(c, t) }, wsSpec("dst", 1))
	if err != nil {
		return nil, fmt.Errorf("E7 checkpoint: %w", err)
	}
	res.Table.AddRow("checkpoint (10s)", float64(ckr.BytesMoved)/(1<<20), ckr.Downtime.Seconds(), ckr.LostWork, "no (image-based record)")

	cm5 := arch.Machine{Name: "dst", Class: arch.SIMD, Speed: 1, OS: "cmost", Order: arch.BigEndian}
	rec := &migrate.Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second, PerMiB: time.Second}}
	recr, err := runOne(rec, nil, cm5)
	if err != nil {
		return nil, fmt.Errorf("E7 recompile: %w", err)
	}
	res.Table.AddRow("recompile (cold)", float64(recr.BytesMoved)/(1<<20), recr.Downtime.Seconds(), recr.LostWork, "yes")

	// Shape checks: the §4.4 ordering.
	if !(addr.Downtime < recr.Downtime) {
		return nil, fmt.Errorf("E7: address-space downtime (%v) not below recompile (%v)", addr.Downtime, recr.Downtime)
	}
	if ckr.LostWork <= 0 {
		return nil, fmt.Errorf("E7: checkpoint lost no work")
	}
	if addr.LostWork != 0 {
		return nil, fmt.Errorf("E7: address-space lost work %v", addr.LostWork)
	}
	// Heterogeneity: address-space must refuse what recompile accepts.
	{
		c, ms, err := simCluster(wsSpec("src", 1), cm5)
		if err != nil {
			return nil, err
		}
		task := &sim.Task{ID: "x", Work: 1, ImageBytes: image}
		_ = ms[0].AddTask(task)
		if err := (migrate.AddressSpace{}).CanMigrate(task, ms[0], ms[1]); err == nil {
			return nil, fmt.Errorf("E7: address-space accepted a heterogeneous pair")
		}
		if err := rec.CanMigrate(task, ms[0], ms[1]); err != nil {
			return nil, fmt.Errorf("E7: recompile refused a heterogeneous pair: %v", err)
		}
		c.Sim.Run()
	}
	res.note("redundant execution migrates for free; address-space pays one image transfer; checkpointing adds redone work; recompilation alone crosses architectures but its downtime is dominated by the compile")
	return res, nil
}

// E7aCheckpointInterval sweeps the checkpoint period: short intervals cost
// checkpoint bandwidth, long intervals cost lost work on migration.
func E7aCheckpointInterval() (*Result, error) {
	res := &Result{ID: "E7a", Title: "Ablation: checkpoint interval"}
	res.Table = metrics.NewTable("E7a: interval sweep (migrate at t=50s)",
		"interval s", "lost work", "checkpoint MiB written")
	var lastLost float64 = -1
	var lastBytes int64 = 1 << 62
	for _, interval := range []time.Duration{2 * time.Second, 10 * time.Second, 40 * time.Second} {
		c, ms, err := simCluster(wsSpec("src", 1), wsSpec("dst", 1))
		if err != nil {
			return nil, err
		}
		task := &sim.Task{ID: "job", Work: 200, ImageBytes: 4 << 20, Checkpointable: true}
		_ = ms[0].AddTask(task)
		k := migrate.NewCheckpointer(interval)
		if err := k.Attach(c, task); err != nil {
			return nil, err
		}
		var r migrate.Result
		var migErr error
		c.Sim.At(50*time.Second, func() { r, migErr = k.Migrate(c, task, ms[0], ms[1]) })
		c.Sim.Run()
		if migErr != nil {
			return nil, migErr
		}
		_, bytes := k.Stats()
		res.Table.AddRow(interval.Seconds(), r.LostWork, float64(bytes)/(1<<20))
		if r.LostWork < lastLost {
			return nil, fmt.Errorf("E7a: lost work decreased with longer interval")
		}
		if bytes > lastBytes {
			return nil, fmt.Errorf("E7a: checkpoint bytes increased with longer interval")
		}
		lastLost, lastBytes = r.LostWork, bytes
	}
	res.note("the §4.4 checkpointing trade-off: halving the interval halves redone work and doubles checkpoint traffic")
	return res, nil
}

// E8Ripple reproduces the §4.3 ripple-effect claim: suspending a busy host's
// task delays every dependent stage; migration keeps the pipeline moving.
func E8Ripple() (*Result, error) {
	const stages = 4
	const stageWork = 20.0
	const horizon = 10 * time.Minute
	run := func(attach func(*sim.Cluster)) (time.Duration, error) {
		c, ms, err := simCluster(wsSpec("host", 1), wsSpec("spare1", 1), wsSpec("spare2", 1))
		if err != nil {
			return 0, err
		}
		if attach != nil {
			attach(c)
		}
		var finish time.Duration
		var mkStage func(i int) *sim.Task
		mkStage = func(i int) *sim.Task {
			return &sim.Task{
				ID: fmt.Sprintf("stage-%d", i), Work: stageWork, ImageBytes: 1 << 20,
				OnDone: func(_ *sim.Task, at time.Duration) {
					if i == stages-1 {
						finish = at
						return
					}
					// The runtime manager places the successor on the
					// best available (least loaded) machine.
					next := mkStage(i + 1)
					cands := c.LeastLoaded(arch.Requirements{Classes: []arch.Class{arch.Workstation}}, 1)
					if len(cands) > 0 {
						_ = cands[0].AddTask(next)
					}
				},
			}
		}
		_ = ms[0].AddTask(mkStage(0))
		// The owner returns at t=10s and keeps the machine.
		_ = c.PlayLoadTrace("host", []sim.LoadStep{{At: 10 * time.Second, Load: 1.0}})
		c.Sim.RunUntil(horizon)
		if finish == 0 {
			finish = horizon
		}
		return finish, nil
	}
	suspend, err := run(func(c *sim.Cluster) { loadbalance.NewStealth(0.8, 0.2).Attach(c) })
	if err != nil {
		return nil, err
	}
	migrated, err := run(func(c *sim.Cluster) {
		loadbalance.NewVCEMigrate(0.8, 0.2, 0.5, migrate.AddressSpace{}).Attach(c)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E8", Title: "§4.3: ripple effect of suspension on dependent tasks"}
	res.Table = metrics.NewTable("E8: 4-stage pipeline completion (owner returns at 10s)",
		"policy", "pipeline completion s")
	res.Table.AddRow("stealth-suspend", suspend.Seconds())
	res.Table.AddRow("vce-migrate", migrated.Seconds())
	if migrated >= suspend {
		return nil, fmt.Errorf("E8: migration (%v) did not beat suspension (%v)", migrated, suspend)
	}
	if suspend < horizon {
		return nil, fmt.Errorf("E8: suspension pipeline finished (%v); expected the stall the paper warns about", suspend)
	}
	res.note("suspension stalls the whole dependency chain behind the suspended stage (never finishes while the owner stays); migration completes the pipeline in %.0fs", migrated.Seconds())
	return res, nil
}

// E9FreeParallelism reproduces the §4.5 example: with a 90%% serial
// application, 100 idle machines yield only ~10%% speed-up — and it is still
// worth taking because the machines are otherwise idle. When the serial stage
// completes, antic.ExtraInstances sizes the parallel fan-out from the
// machines idle at that moment (at least one instance, no upper bound), so
// the parallel stage soaks up the whole fleet.
func E9FreeParallelism() (*Result, error) {
	const totalWork = 600.0
	const serialFraction = 0.9
	res := &Result{ID: "E9", Title: "§4.5: free parallelism (90% serial application)"}
	res.Table = metrics.NewTable("E9: speed-up on idle machines",
		"machines", "makespan s", "speed-up", "efficiency %")
	runN := func(n int) (time.Duration, error) {
		var specs []arch.Machine
		for i := 0; i < n; i++ {
			specs = append(specs, wsSpec(fmt.Sprintf("m%03d", i), 1))
		}
		c, ms, err := simCluster(specs...)
		if err != nil {
			return 0, err
		}
		var makespan time.Duration
		width := 0
		serial := &sim.Task{ID: "serial", Work: totalWork * serialFraction,
			OnDone: func(_ *sim.Task, at time.Duration) {
				idle := c.AppendIdleMachines(nil, 0.5)
				width = antic.ExtraInstances(1, 0, len(idle))
				per := totalWork * (1 - serialFraction) / float64(width)
				for i := 0; i < width; i++ {
					_ = idle[i%len(idle)].AddTask(&sim.Task{
						ID: fmt.Sprintf("par-%d", i), Work: per,
						OnDone: func(_ *sim.Task, at2 time.Duration) {
							if at2 > makespan {
								makespan = at2
							}
						},
					})
				}
			}}
		_ = ms[0].AddTask(serial)
		c.Sim.Run()
		if width != n {
			return 0, fmt.Errorf("E9: parallel fan-out %d wide on %d idle machines", width, n)
		}
		return makespan, nil
	}
	base, err := runN(1)
	if err != nil {
		return nil, err
	}
	var prevSpeedup float64
	var speedup100 float64
	for _, n := range []int{1, 2, 4, 16, 64, 100, 128} {
		ms, err := runN(n)
		if err != nil {
			return nil, err
		}
		speedup := base.Seconds() / ms.Seconds()
		eff := 100 * speedup / float64(n)
		res.Table.AddRow(n, ms.Seconds(), speedup, eff)
		if speedup+1e-9 < prevSpeedup {
			return nil, fmt.Errorf("E9: speed-up fell from %v to %v at n=%d", prevSpeedup, speedup, n)
		}
		prevSpeedup = speedup
		if n == 100 {
			speedup100 = speedup
		}
	}
	if speedup100 < 1.05 || speedup100 > 1.2 {
		return nil, fmt.Errorf("E9: speed-up at 100 machines = %.3f, want ~1.1 (the paper's 10%% example)", speedup100)
	}
	res.note("100 otherwise-idle machines buy a %.0f%% speed-up at ~1%% efficiency — \"it is still worth doing because the speed-up comes for free\" (§4.5)", (speedup100-1)*100)
	return res, nil
}

// E10Anticipatory reproduces the §4.5 two-module example: anticipatory
// compilation and input replication remove the successor's dispatch latency.
func E10Anticipatory() (*Result, error) {
	res := &Result{ID: "E10", Title: "§4.5: anticipatory compilation and file replication"}
	res.Table = metrics.NewTable("E10: successor dispatch latency",
		"mode", "dispatch latency s", "stage2 completion s")
	const stage1Work = 120.0
	const stage2Work = 60.0
	run := func(anticipate bool) (time.Duration, time.Duration, error) {
		db := arch.NewDB()
		host := wsSpec("host", 1)
		builder := wsSpec("builder", 1)
		_ = db.Add(host)
		_ = db.Add(builder)
		mgr := compilemgr.New(db, compilemgr.CostModel{Base: 60 * time.Second})
		c, ms, err := simCluster(host, builder)
		if err != nil {
			return 0, 0, err
		}
		if err := c.FS.Create("/data/obs.dat", 32<<20, "archive"); err != nil {
			return 0, 0, err
		}
		g := taskgraph.New("two-stage")
		first := taskgraph.Task{ID: "first", Program: "/apps/first.vce", WorkUnits: stage1Work,
			Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation}}}
		second := taskgraph.Task{ID: "second", Program: "/apps/second.vce", WorkUnits: stage2Work,
			ImageBytes: 4 << 20, InputFiles: []string{"/data/obs.dat"},
			Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation}}}
		_ = g.AddTask(first)
		_ = g.AddTask(second)
		_ = g.AddArc(taskgraph.Arc{From: "first", To: "second", Kind: taskgraph.Precedence})

		done := map[taskgraph.TaskID]bool{}
		started := map[taskgraph.TaskID]bool{"first": true}
		if anticipate {
			// Idle builder precompiles and pre-stages while stage 1 runs.
			for _, plan := range antic.CompilationPlans(mgr, g, done, started) {
				if _, err := antic.ExecuteCompile(c, mgr, g, plan, ms[1]); err != nil {
					return 0, 0, err
				}
			}
			plans, err := antic.ReplicationPlans(c.FS, g, done, started,
				map[taskgraph.TaskID][]string{"second": {"host"}})
			if err != nil {
				return 0, 0, err
			}
			for _, p := range plans {
				if err := antic.ExecuteReplicate(c, c.FS, p); err != nil {
					return 0, 0, err
				}
			}
		}
		var dispatchLatency, completion time.Duration
		stage1 := &sim.Task{ID: "first", Work: stage1Work,
			OnDone: func(_ *sim.Task, at time.Duration) {
				// Dispatch latency = remaining compile + stage-in.
				var lat time.Duration
				if !mgr.HasBinaryFor("/apps/second.vce", ms[0].Spec) {
					lat += mgr.CostModel().CompileTime(second.ImageBytes)
				}
				stageIn, err := antic.StageInLatency(c, c.FS, second, "host")
				if err == nil {
					lat += stageIn
				}
				dispatchLatency = lat
				c.Sim.After(lat, func() {
					_ = ms[0].AddTask(&sim.Task{ID: "second", Work: stage2Work,
						OnDone: func(_ *sim.Task, at2 time.Duration) { completion = at2 }})
				})
			}}
		if err := ms[0].AddTask(stage1); err != nil {
			return 0, 0, err
		}
		c.Sim.Run()
		return dispatchLatency, completion, nil
	}
	coldLat, coldDone, err := run(false)
	if err != nil {
		return nil, err
	}
	warmLat, warmDone, err := run(true)
	if err != nil {
		return nil, err
	}
	res.Table.AddRow("cold", coldLat.Seconds(), coldDone.Seconds())
	res.Table.AddRow("anticipatory", warmLat.Seconds(), warmDone.Seconds())
	if warmLat != 0 {
		return nil, fmt.Errorf("E10: anticipatory dispatch latency = %v, want 0", warmLat)
	}
	if coldLat <= 0 {
		return nil, fmt.Errorf("E10: cold dispatch latency = %v, want > 0", coldLat)
	}
	if warmDone >= coldDone {
		return nil, fmt.Errorf("E10: anticipatory completion (%v) not before cold (%v)", warmDone, coldDone)
	}
	res.note("anticipatory compilation (60s) and 32 MiB stage-in both complete inside stage 1's 120s shadow: dispatch latency drops from %.0fs to 0", coldLat.Seconds())
	return res, nil
}

// E10aReplicationFanout sweeps how many candidate sites the input file is
// replicated to: expected dispatch latency falls with fanout because the
// chosen host is more likely to hold a current replica.
func E10aReplicationFanout() (*Result, error) {
	res := &Result{ID: "E10a", Title: "Ablation: anticipatory replication fanout"}
	res.Table = metrics.NewTable("E10a: dispatch latency vs replication fanout (8 candidate hosts)",
		"fanout", "mean dispatch s", "replica hit %")
	const hosts = 8
	const trials = 64
	r := rng.New(seed).Derive("e10a")
	var prevMean float64 = 1 << 30
	for _, fanout := range []int{0, 1, 2, 4, 8} {
		var total time.Duration
		hits := 0
		for trial := 0; trial < trials; trial++ {
			var specs []arch.Machine
			for i := 0; i < hosts; i++ {
				specs = append(specs, wsSpec(fmt.Sprintf("h%d", i), 1))
			}
			c, _, err := simCluster(specs...)
			if err != nil {
				return nil, err
			}
			if err := c.FS.Create("/data/in.dat", 16<<20, "archive"); err != nil {
				return nil, err
			}
			// Replicate to the first `fanout` hosts ahead of time.
			for i := 0; i < fanout; i++ {
				if _, err := c.FS.Replicate("/data/in.dat", fmt.Sprintf("h%d", i)); err != nil {
					return nil, err
				}
			}
			// The bidding round lands the task on a random host.
			chosen := fmt.Sprintf("h%d", r.Intn(hosts))
			task := taskgraph.Task{ID: "t", InputFiles: []string{"/data/in.dat"}}
			lat, err := antic.StageInLatency(c, c.FS, task, chosen)
			if err != nil {
				return nil, err
			}
			if lat == 0 {
				hits++
			}
			total += lat
		}
		mean := total.Seconds() / trials
		res.Table.AddRow(fanout, mean, 100*float64(hits)/trials)
		if mean > prevMean+1e-9 {
			return nil, fmt.Errorf("E10a: mean latency rose with fanout %d", fanout)
		}
		prevMean = mean
	}
	res.note("replicating \"at many sites that may be candidates to host the second module\" (§4.5) turns stage-in latency into a hit-rate curve; full fanout removes it entirely")
	return res, nil
}

// E11Redundant reproduces the §4.4 claim that redundant execution is a
// low-overhead migration mechanism: under owner-return interference, more
// copies finish the logical task sooner, at the price of wasted work.
func E11Redundant() (*Result, error) {
	res := &Result{ID: "E11", Title: "§4.4: redundant execution under owner interference"}
	res.Table = metrics.NewTable("E11: redundancy factor sweep (owner returns at U[0,90]s for 300s)",
		"copies", "mean completion s", "mean wasted work", "evictions")
	const work = 60.0
	const trials = 40
	const horizon = 600 * time.Second
	r := rng.New(seed).Derive("e11")
	var prevMean float64 = 1 << 30
	var waste1, wasteMax float64
	for _, copies := range []int{1, 2, 3, 4} {
		var totalDone float64
		var totalWaste float64
		var evictions int64
		for trial := 0; trial < trials; trial++ {
			var specs []arch.Machine
			for i := 0; i < 4; i++ {
				specs = append(specs, wsSpec(fmt.Sprintf("m%d", i), 1))
			}
			c, ms, err := simCluster(specs...)
			if err != nil {
				return nil, err
			}
			// Owner activity: each machine busy from onset for 300s.
			for i := range ms {
				onset := time.Duration(r.Range(0, 90) * float64(time.Second))
				_ = c.PlayLoadTrace(ms[i].Name(), []sim.LoadStep{
					{At: onset, Load: 1.0},
					{At: onset + 300*time.Second, Load: 0.0},
				})
			}
			red := migrate.NewRedundant()
			var doneAt time.Duration
			set, err := red.Launch(c, "job", work, 1<<20, ms[:copies], func(at time.Duration) { doneAt = at })
			if err != nil {
				return nil, err
			}
			// Policy: on owner return, evict the resident copy if a
			// survivor exists; otherwise it just runs slower/stalls.
			c.OnChange(func(m *sim.Machine, now time.Duration) {
				if m.LocalLoad() < 0.8 || set.Done() {
					return
				}
				if set.Copies() > 1 {
					if _, err := red.Evict(c, "job", m.Name()); err == nil {
						evictions++
					}
				}
			})
			c.Sim.RunUntil(horizon)
			if doneAt == 0 {
				doneAt = horizon
			}
			totalDone += doneAt.Seconds()
			totalWaste += set.WastedWork
		}
		meanDone := totalDone / trials
		meanWaste := totalWaste / trials
		res.Table.AddRow(copies, meanDone, meanWaste, evictions)
		if meanDone > prevMean+1e-9 {
			return nil, fmt.Errorf("E11: completion worsened at %d copies (%.1fs > %.1fs)", copies, meanDone, prevMean)
		}
		prevMean = meanDone
		if copies == 1 {
			waste1 = meanWaste
		}
		wasteMax = meanWaste
	}
	if wasteMax <= waste1 {
		return nil, fmt.Errorf("E11: redundancy produced no wasted work (%.1f vs %.1f)", wasteMax, waste1)
	}
	res.note("each extra copy lowers mean completion (migration by killing the loser costs no transfer) and raises burned work — the §4.4 redundancy trade")
	return res, nil
}
