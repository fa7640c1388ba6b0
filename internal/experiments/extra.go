package experiments

import (
	"fmt"
	"time"

	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/loadbalance"
	"vce/internal/metrics"
	"vce/internal/migrate"
	"vce/internal/rng"
	"vce/internal/scenario"
	"vce/internal/sim"
	"vce/internal/workload"
)

// E7bAdaptivePicker reproduces the §4.4 repertoire argument: "Which of these
// will be used for any particular migration will depend on the state of the
// system and the characteristics of the task(s) involved." The adaptive
// picker must choose each mechanism exactly where it is cheapest.
func E7bAdaptivePicker() (*Result, error) {
	res := &Result{ID: "E7b", Title: "Ablation: adaptive strategy selection (§4.4 repertoire)"}
	res.Table = metrics.NewTable("E7b: chosen strategy by system state",
		"scenario", "chosen", "estimated delay s")

	type scenario struct {
		name   string
		expect string
		setup  func() (*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine, *migrate.Picker, error)
	}
	newPicker := func(compiler *compilemgr.Manager, program string) (*migrate.Picker, *migrate.Redundant, *migrate.Checkpointer, error) {
		red := migrate.NewRedundant()
		ck := migrate.NewCheckpointer(10 * time.Second)
		rec := &migrate.Recompile{
			Compiler: compiler, Program: program,
			Cost: compilemgr.CostModel{Base: 60 * time.Second},
		}
		p, err := migrate.NewPicker(red, migrate.AddressSpace{}, ck, rec)
		return p, red, ck, err
	}

	scenarios := []scenario{
		{
			name:   "redundant copy live (homogeneous)",
			expect: "redundant",
			setup: func() (*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine, *migrate.Picker, error) {
				c, ms, err := simCluster(wsSpec("src", 1), wsSpec("dst", 1))
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				p, red, _, err := newPicker(nil, "")
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				if _, err := red.Launch(c, "job", 100, 8<<20, ms, nil); err != nil {
					return nil, nil, nil, nil, nil, err
				}
				c.Sim.RunUntil(5 * time.Second)
				return c, ms[0].AppendTasks(nil)[0], ms[0], ms[1], p, nil
			},
		},
		{
			name:   "single copy, homogeneous pair",
			expect: "address-space",
			setup: func() (*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine, *migrate.Picker, error) {
				c, ms, err := simCluster(wsSpec("src", 1), wsSpec("dst", 1))
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				p, _, _, err := newPicker(nil, "")
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				task := &sim.Task{ID: "job", Work: 100, ImageBytes: 8 << 20, Checkpointable: true}
				if err := ms[0].AddTask(task); err != nil {
					return nil, nil, nil, nil, nil, err
				}
				c.Sim.RunUntil(5 * time.Second)
				return c, task, ms[0], ms[1], p, nil
			},
		},
		{
			name:   "warm checkpoint replica at destination",
			expect: "checkpoint",
			setup: func() (*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine, *migrate.Picker, error) {
				c, ms, err := simCluster(wsSpec("src", 1), wsSpec("dst", 1))
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				p, _, ck, err := newPicker(nil, "")
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				task := &sim.Task{ID: "job", Work: 100, ImageBytes: 8 << 20, Checkpointable: true}
				if err := ms[0].AddTask(task); err != nil {
					return nil, nil, nil, nil, nil, err
				}
				ck.Start(c)
				c.Sim.RunUntil(10500 * time.Millisecond) // one checkpoint taken
				if err := task.ReplicateCheckpoint(ms[1]); err != nil {
					return nil, nil, nil, nil, nil, err
				}
				c.Sim.RunUntil(10600 * time.Millisecond)
				return c, task, ms[0], ms[1], p, nil
			},
		},
		{
			name:   "heterogeneous pair",
			expect: "recompile",
			setup: func() (*sim.Cluster, *sim.Task, *sim.Machine, *sim.Machine, *migrate.Picker, error) {
				cm5 := arch.Machine{Name: "dst", Class: arch.SIMD, Speed: 1, OS: "cmost", Order: arch.BigEndian}
				c, ms, err := simCluster(wsSpec("src", 1), cm5)
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				p, _, _, err := newPicker(nil, "")
				if err != nil {
					return nil, nil, nil, nil, nil, err
				}
				task := &sim.Task{ID: "job", Work: 100, ImageBytes: 8 << 20, Checkpointable: true}
				if err := ms[0].AddTask(task); err != nil {
					return nil, nil, nil, nil, nil, err
				}
				c.Sim.RunUntil(5 * time.Second)
				return c, task, ms[0], ms[1], p, nil
			},
		},
	}

	for _, sc := range scenarios {
		c, task, src, dst, picker, err := sc.setup()
		if err != nil {
			return nil, fmt.Errorf("E7b %s: %w", sc.name, err)
		}
		chosen, cost, err := picker.Choose(c, task, src, dst)
		if err != nil {
			return nil, fmt.Errorf("E7b %s: %w", sc.name, err)
		}
		res.Table.AddRow(sc.name, chosen.Name(), cost.Seconds())
		if chosen.Name() != sc.expect {
			return nil, fmt.Errorf("E7b %s: picked %s, want %s", sc.name, chosen.Name(), sc.expect)
		}
	}
	res.note("the adaptive picker selects each §4.4 mechanism exactly where its estimated delay is lowest: redundancy when a copy lives, address-space within a class, checkpoint with warm records, recompilation across architectures")
	return res, nil
}

// E13Utilization reproduces the §4.3 framing around Krueger: non-preemptive
// idle-workstation placement improves on no remote execution — and
// migration recovers what suspension leaves behind ("opportunities for
// increasing throughput could be missed if it is not possible to move a
// process"). On this world every mode completes the same jobs, so the
// difference shows in mean completion time, which must fall strictly from
// mode to mode.
func E13Utilization() (*Result, error) {
	res := &Result{ID: "E13", Title: "§4.3: remote execution and migration vs owner activity"}
	res.Table = metrics.NewTable("E13: 40 batch jobs on 8 owner-occupied workstations (1h horizon)",
		"policy", "jobs completed", "mean completion s")

	type outcome struct {
		completed int
		meanDone  float64
	}
	const (
		horizon = time.Hour
		nJobs   = 40
		jobWork = 120.0
	)

	runPolicy := func(mode string) (outcome, error) {
		r := rng.New(seed).Derive("e13")
		c, ms, err := simCluster(
			wsSpec("m0", 1), wsSpec("m1", 1), wsSpec("m2", 1), wsSpec("m3", 1),
			wsSpec("m4", 1), wsSpec("m5", 1), wsSpec("m6", 1), wsSpec("m7", 1),
		)
		if err != nil {
			return outcome{}, err
		}
		// Owner activity on every machine: idle 5min / busy 3min bursts.
		traceRng := r.Derive("traces")
		for _, m := range ms {
			steps := workload.BurstyTrace(traceRng, horizon, 5*time.Minute, 3*time.Minute, 1.0)
			if err := c.PlayLoadTrace(m.Name(), steps); err != nil {
				return outcome{}, err
			}
		}
		completed := 0
		var doneSum float64
		// The engine's generators: Poisson arrivals over the first half of
		// the horizon, uniform work in [jobWork, jobWork+1).
		next := scenario.ArrivalSpec{Kind: "poisson", RatePerS: 1.0 / 45}.Cursor(r.Derive("arrivals"))
		var arrivals []time.Duration
		for at, _ := next(); at < horizon/2 && len(arrivals) < nJobs; at, _ = next() {
			arrivals = append(arrivals, at)
		}
		workRng := r.Derive("work")
		dist := scenario.Dist{Kind: "uniform", Min: jobWork, Max: jobWork + 1}
		work := make([]float64, nJobs)
		for i := range work {
			work[i] = dist.Sample(workRng)
		}

		switch mode {
		case "origin-only":
			// No remote execution: every job runs on its owner's machine.
			for i, at := range arrivals {
				c.Sim.At(at, func() {
					_ = ms[i%len(ms)].AddTask(&sim.Task{
						ID: fmt.Sprintf("task-%03d", i), Work: work[i],
						OnDone: func(_ *sim.Task, done time.Duration) {
							completed++
							doneSum += done.Seconds()
						},
					})
				})
			}
		case "dawgs", "vce-migrate":
			// Placement by the same idle-seeking queue in both modes;
			// owners returning get suspension or evacuation beside it.
			if mode == "vce-migrate" {
				loadbalance.NewVCEMigrate(migrate.AddressSpace{}).Attach(c)
			} else {
				loadbalance.NewStealth().Attach(c)
			}
			queue := loadbalance.NewDAWGS()
			queue.Attach(c)
			for i, at := range arrivals {
				c.Sim.At(at, func() {
					queue.Submit(c, &sim.Task{
						ID: fmt.Sprintf("task-%03d", i), Work: work[i], ImageBytes: 1 << 20,
						OnDone: func(_ *sim.Task, done time.Duration) {
							completed++
							doneSum += done.Seconds()
						},
					})
				})
			}
		default:
			return outcome{}, fmt.Errorf("unknown mode %q", mode)
		}
		c.Sim.RunUntil(horizon)
		mean := 0.0
		if completed > 0 {
			mean = doneSum / float64(completed)
		}
		return outcome{completed: completed, meanDone: mean}, nil
	}

	results := map[string]outcome{}
	for _, mode := range []string{"origin-only", "dawgs", "vce-migrate"} {
		out, err := runPolicy(mode)
		if err != nil {
			return nil, fmt.Errorf("E13 %s: %w", mode, err)
		}
		results[mode] = out
		res.Table.AddRow(mode, out.completed, out.meanDone)
	}
	if results["dawgs"].completed < results["origin-only"].completed {
		return nil, fmt.Errorf("E13: non-preemptive placement (%d) worse than origin-only (%d)",
			results["dawgs"].completed, results["origin-only"].completed)
	}
	if results["vce-migrate"].completed < results["dawgs"].completed {
		return nil, fmt.Errorf("E13: migration (%d) worse than suspension (%d)",
			results["vce-migrate"].completed, results["dawgs"].completed)
	}
	origin, dawgs, migr := results["origin-only"].meanDone, results["dawgs"].meanDone, results["vce-migrate"].meanDone
	if !(origin > dawgs && dawgs > migr) {
		return nil, fmt.Errorf("E13: mean completion not strictly origin-only > dawgs > vce-migrate: %.0f, %.0f, %.0f s", origin, dawgs, migr)
	}
	res.note("idle-workstation placement finishes jobs sooner than origin-only execution (Krueger's finding), and migration sooner still than suspending on machines whose owners return: mean completion %.0f → %.0f → %.0f s",
		origin, dawgs, migr)
	return res, nil
}
