package check

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vce/internal/arch"
	"vce/internal/rng"
	"vce/internal/scenario"
	"vce/internal/scenario/specgen"
	"vce/internal/sim"
)

// property is one named engine invariant over a generated spec. check must
// be self-contained (it recomputes whatever baselines it needs) so the
// shrinker can re-evaluate it on mutated specs.
type property struct {
	name string
	doc  string
	// applies, when set, is the property's precondition over the spec: the
	// harness reports specs it rejects as skipped — neither passed nor
	// failed — and the shrinker never leaves it.
	applies func(*scenario.Spec) bool
	// check returns nil when the invariant holds for sp; workers is the
	// harness's concurrent-worker setting for multi-worker comparisons.
	check func(ctx context.Context, sp *scenario.Spec, workers int) error
	// seedOnly marks properties that derive their own worlds from sp.Seed
	// and ignore the rest of the spec: shrinking the spec is meaningless
	// for them (every mutation "still fails"), and their reproduction is
	// the generator seed, not a -spec file.
	seedOnly bool
}

// violation evaluates p on sp; a spec outside p's precondition holds it
// vacuously.
func (p property) violation(ctx context.Context, sp *scenario.Spec, workers int) error {
	if p.applies != nil && !p.applies(sp) {
		return nil
	}
	return p.check(ctx, sp, workers)
}

// properties returns the harness's property table. Order is reporting
// order: the execution lattice first, then what the indexes must satisfy on
// every cell and on the generator's strata, derived-world metamorphic pairs
// last.
func properties() []property {
	return []property{
		{
			name:  "execution-identity",
			doc:   "the report is one function of (spec, seed): run again, on single-use arenas, at N workers, sharded and merged, replayed from a warm cache, audited, or with the policy matrix reversed, it equals the reference sweep",
			check: executionIdentity(executionModes()),
		},
		{
			name:  "counts",
			doc:   "every run's task counts stay in range: completed and rejected non-negative and together at most the tasks offered, failed non-negative, reject_rate_pct a percentage",
			check: onRuns(countsInRange),
		},
		{
			name:    "steady-state-bounds",
			doc:     "an overloaded bounded-queue stream completes work, orders its slowdown quantiles and never queues past queue_limit",
			applies: specgen.OverloadedStream,
			check:   onRuns(steadyStateHolds),
		},
		{
			name:    "topology-conservation",
			doc:     "on a two-site DAG every offered task completes or rejects exactly once and the topology indexes stay in range",
			applies: specgen.TwoSiteDAG,
			check:   onRuns(topologyConserved),
		},
		{
			name:     "machine-permutation",
			doc:      "machine registration order does not leak into per-machine outcomes",
			check:    machinePermutation,
			seedOnly: true,
		},
		{
			name:     "makespan-dominance",
			doc:      "adding machines never increases mean makespan under work-conserving policies",
			check:    makespanDominance,
			seedOnly: true,
		},
	}
}

// mode is one more way to execute a spec's sweep. Whatever it does — other
// options, other entry points, a reordered matrix — what comes back must be
// the reference sweep's numbers.
type mode struct {
	name string
	run  func(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error)
}

// executionModes is the lattice above the reference sweep (Workers:1, no
// cache, no audit), ordered from the least machinery to the most. The
// reference already recycles one arena across every cell, so reproducibility
// and arena reuse come first; every mode after "workers" runs at Workers:N.
func executionModes() []mode {
	return []mode{
		{"again", sweepAt(scenario.Options{Workers: 1})},
		{"fresh-arena", freshArenas},
		{"workers", sweepAt(scenario.Options{})},
		{"shards", shardMerge},
		{"cache", coldThenWarm},
		{"audited", sweepAt(scenario.Options{Audit: true})},
		{"permuted-matrix", permutedMatrix},
	}
}

// sweepAt is the runner of a plain sweep under o, at the harness's worker
// count unless o fixes one.
func sweepAt(o scenario.Options) func(context.Context, *scenario.Spec, int) (*scenario.Report, error) {
	return func(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error) {
		o := o
		if o.Workers == 0 {
			o.Workers = workers
		}
		return scenario.RunContext(ctx, sp, o)
	}
}

// executionIdentity is the one identity property: simulate the reference
// once, then every mode is one more execution compared with that reference.
// Evaluation stops at the first failing mode — each later mode runs on top
// of the earlier ones' machinery and would only repeat the verdict — and the
// violation names it, so one defect is one failure that says where to look.
func executionIdentity(modes []mode) func(context.Context, *scenario.Spec, int) error {
	return func(ctx context.Context, sp *scenario.Spec, workers int) error {
		ref, err := scenario.RunContext(ctx, sp, scenario.Options{Workers: 1})
		if err != nil {
			return fmt.Errorf("mode=reference: %w", err)
		}
		for _, m := range modes {
			got, err := m.run(ctx, sp, workers)
			if err == nil {
				err = sameReport(ref, got)
			}
			if err != nil {
				return fmt.Errorf("mode=%s: %w", m.name, err)
			}
		}
		return nil
	}
}

// sameReport demands the serialized report — engine stamp, spec, cell order,
// every index — byte for byte, and locates the first cell that differs.
func sameReport(ref, got *scenario.Report) error {
	want, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	have, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if bytes.Equal(want, have) {
		return nil
	}
	for i := 0; i < len(ref.Cells) && i < len(got.Cells); i++ {
		if a, b := ref.Cells[i], got.Cells[i]; !slices.Equal(a.Runs, b.Runs) {
			return fmt.Errorf("cell %s/%s: per-run indexes differ from the reference sweep:\n got %+v\nwant %+v", a.Sched, a.Migration, b.Runs, a.Runs)
		}
	}
	return fmt.Errorf("report differs from the reference sweep outside the per-run indexes (%d vs %d bytes)", len(have), len(want))
}

// freshArenas rebuilds the sweep from scenario.RunInstanceContext, which runs
// each (cell, run) from scratch on a single-use arena: the reference the
// executor's recycled worlds, pooled tasks and reset kernels must replay.
func freshArenas(ctx context.Context, sp *scenario.Spec, _ int) (*scenario.Report, error) {
	insts := sp.Instances()
	rep := &scenario.Report{Engine: scenario.EngineVersion, Spec: insts[0].Spec}
	for _, inst := range insts {
		cell := scenario.Cell{Sched: inst.Sched, Migration: inst.Migration}
		for run := 0; run < inst.Spec.Runs; run++ {
			idx, err := scenario.RunInstanceContext(ctx, inst, run)
			if err != nil {
				return nil, fmt.Errorf("%s run %d from scratch: %w", inst.Key(), run, err)
			}
			cell.Runs = append(cell.Runs, idx)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// shardMerge runs the sweep as two shards and merges them.
func shardMerge(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error) {
	var shards []*scenario.Report
	for i := 0; i < 2; i++ {
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{Workers: workers, Shard: scenario.Shard{Index: i, Count: 2}})
		if err != nil {
			return nil, fmt.Errorf("shard %d/2: %w", i, err)
		}
		shards = append(shards, rep)
	}
	return scenario.MergeReports(shards...)
}

// memStore is an in-memory scenario.Store with a miss counter, the cache
// double behind the "cache" mode.
type memStore struct {
	m      sync.Map // cell key → scenario.Indexes
	misses atomic.Int64
}

func (s *memStore) Get(key string) (scenario.Indexes, bool, error) {
	v, ok := s.m.Load(key)
	if !ok {
		s.misses.Add(1)
		return scenario.Indexes{}, false, nil
	}
	return v.(scenario.Indexes), true, nil
}

func (s *memStore) Put(key string, idx scenario.Indexes) error {
	s.m.Store(key, idx)
	return nil
}

// coldThenWarm fills an empty store with one sweep and replays it with a
// second, which must hit on every cell: what the lattice compares is what
// the cold sweep stored.
func coldThenWarm(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error) {
	store := new(memStore)
	o := scenario.Options{Workers: workers, Cache: store}
	if _, err := scenario.RunContext(ctx, sp, o); err != nil {
		return nil, err
	}
	coldMisses := store.misses.Load()
	warm, err := scenario.RunContext(ctx, sp, o)
	if err != nil {
		return nil, err
	}
	if extra := store.misses.Load() - coldMisses; extra != 0 {
		return nil, fmt.Errorf("warm sweep missed the cache %d times — cell keys are not stable across runs", extra)
	}
	return warm, nil
}

// permutedMatrix runs the sweep with both policy lists reversed — which
// reverses the cells — and undoes the reversal on the report. Streams derive
// from (seed, name, run) only, so which policies share the matrix, and in
// what order, must not reach any cell's world.
func permutedMatrix(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error) {
	perm := *sp
	perm.Policies = scenario.PolicyMatrix{
		Scheduling: slices.Clone(sp.Policies.Scheduling),
		Migration:  slices.Clone(sp.Policies.Migration),
	}
	slices.Reverse(perm.Policies.Scheduling)
	slices.Reverse(perm.Policies.Migration)
	rep, err := scenario.RunContext(ctx, &perm, scenario.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	rep.Spec.Policies = sp.Policies
	slices.Reverse(rep.Cells)
	return rep, nil
}

// onRuns is the check of a property that every run of one sweep must
// satisfy on its own; a violation is located by cell and run.
func onRuns(holds func(*scenario.Spec, scenario.Indexes) error) func(context.Context, *scenario.Spec, int) error {
	return func(ctx context.Context, sp *scenario.Spec, workers int) error {
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{Workers: workers})
		if err != nil {
			return err
		}
		for _, cell := range rep.Cells {
			for i, run := range cell.Runs {
				if err := holds(rep.Spec, run); err != nil {
					return fmt.Errorf("cell %s/%s run %d: %w", cell.Sched, cell.Migration, i, err)
				}
			}
		}
		return nil
	}
}

// countsInRange is what the task counts of any run must satisfy. A task
// ends completed, rejected or unfinished at the horizon, so the two counts
// sum to at most the offered tasks; the exact identity with the unfinished
// ones needs a per-task record (ROADMAP item 13), not the counters under
// test.
func countsInRange(sp *scenario.Spec, run scenario.Indexes) error {
	switch tasks := sp.Workload.Tasks; {
	case run.Completed < 0 || run.Rejected < 0:
		return fmt.Errorf("negative count: %d completed, %d rejected", run.Completed, run.Rejected)
	case run.Completed+run.Rejected > tasks:
		return fmt.Errorf("%d completed + %d rejected > %d offered — a task was counted twice", run.Completed, run.Rejected, tasks)
	case run.Failed < 0:
		return fmt.Errorf("negative failed count %d", run.Failed)
	case run.RejectRatePct < 0 || run.RejectRatePct > 100:
		return fmt.Errorf("reject_rate_pct %g outside [0, 100]", run.RejectRatePct)
	}
	return nil
}

// steadyStateHolds is what the steady-state indexes of an overloaded
// bounded-queue stream (the specgen.OverloadedStream stratum) must satisfy;
// that they are also execution-invariant is the lattice's job.
func steadyStateHolds(sp *scenario.Spec, run scenario.Indexes) error {
	switch limit := sp.Workload.QueueLimit; {
	case run.Completed == 0:
		return fmt.Errorf("completed nothing — the streaming pump never delivered")
	case run.SlowdownP50 <= 0 || run.SlowdownP99 < run.SlowdownP50:
		return fmt.Errorf("slowdown quantiles out of order: p50=%g p99=%g", run.SlowdownP50, run.SlowdownP99)
	case run.QueueDepthMax > float64(limit):
		return fmt.Errorf("queue depth %g exceeded the admission limit %d", run.QueueDepthMax, limit)
	}
	return nil
}

// topologyConserved is the accounting of a two-site DAG (the
// specgen.TwoSiteDAG stratum): every offered task either completes or
// rejects, exactly once, and the topology indexes stay in range. Dependency
// order is enforced in-engine — a child completing before its last parent
// fails the run itself.
func topologyConserved(sp *scenario.Spec, run scenario.Indexes) error {
	switch tasks := sp.Workload.Tasks; {
	case run.Completed+run.Rejected != tasks:
		return fmt.Errorf("%d completed + %d rejected != %d offered — a task leaked or was double-counted", run.Completed, run.Rejected, tasks)
	case run.Completed == 0:
		return fmt.Errorf("completed nothing inside a generous horizon")
	case run.ForwardedPct < 0 || run.ForwardedPct > 100:
		return fmt.Errorf("forwarded_pct %g outside [0, 100]", run.ForwardedPct)
	case run.XferWaitS < 0:
		return fmt.Errorf("negative xfer_wait_s %g", run.XferWaitS)
	case run.CriticalPathStretch <= 0:
		return fmt.Errorf("critical_path_stretch %g not positive for a DAG workload", run.CriticalPathStretch)
	}
	return nil
}

// machinePermutation is a kernel/cluster-level property driven by the spec's
// seed: a fleet of independent machines with explicitly placed tasks and
// per-machine load traces must produce identical per-task completion times
// whatever order the machines were registered in. Registration order
// permutes event scheduling sequence numbers, so a heap tie-breaking bug or
// any cross-machine state leak in the simulator shows up as a diff.
func machinePermutation(_ context.Context, sp *scenario.Spec, _ int) error {
	r := rng.New(sp.Seed).Derive("check-machperm")
	n := 2 + r.Intn(5)
	const horizon = 900 * time.Second
	names := make([]string, n)
	speeds := make([]float64, n)
	traces := make([][]sim.LoadStep, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("pm%02d", i)
		speeds[i] = r.Range(0.5, 4)
		for k := r.Intn(4); k > 0; k-- {
			traces[i] = append(traces[i], sim.LoadStep{
				At:   time.Duration(r.Range(0, horizon.Seconds()) * float64(time.Second)),
				Load: r.Range(0, 1.2),
			})
		}
	}
	type taskGen struct {
		id      string
		work    float64
		machine int
		at      time.Duration
	}
	tasks := make([]taskGen, n*(1+r.Intn(3)))
	for i := range tasks {
		tasks[i] = taskGen{
			id:      fmt.Sprintf("pt%03d", i),
			work:    r.Range(5, 80),
			machine: r.Intn(n),
			at:      time.Duration(r.Range(0, 120) * float64(time.Second)),
		}
	}
	perm := r.Perm(n)

	run := func(order []int) (map[string]time.Duration, error) {
		c := sim.NewCluster()
		machines := make([]*sim.Machine, n)
		for _, i := range order {
			m, err := c.AddMachine(arch.Machine{
				Name: names[i], Class: arch.Workstation, Speed: speeds[i], OS: "unix", MemoryMB: 64,
			})
			if err != nil {
				return nil, err
			}
			machines[i] = m
		}
		for _, i := range order {
			if err := c.PlayLoadTrace(names[i], traces[i]); err != nil {
				return nil, err
			}
		}
		done := make(map[string]time.Duration, len(tasks))
		for _, g := range tasks {
			g := g
			t := &sim.Task{ID: g.id, Work: g.work, OnDone: func(t *sim.Task, at time.Duration) { done[t.ID] = at }}
			c.Sim.At(g.at, func() {
				if err := machines[g.machine].AddTask(t); err != nil {
					panic(err) // unique IDs and fresh tasks: cannot happen
				}
			})
		}
		c.Sim.RunUntil(horizon)
		return done, nil
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	base, err := run(identity)
	if err != nil {
		return err
	}
	permuted, err := run(perm)
	if err != nil {
		return err
	}
	if len(base) != len(permuted) {
		return fmt.Errorf("registration order changed the completed-task count: %d vs %d", len(base), len(permuted))
	}
	for id, at := range base {
		if got, ok := permuted[id]; !ok || got != at {
			return fmt.Errorf("task %s completed at %v in registration order, %v when permuted", id, at, got)
		}
	}
	return nil
}

// makespanDominance runs a derived pair of specs sharing one generated
// workload: a homogeneous fixed-speed pool, and the same pool plus extra
// equal-speed machines. Fixed speed distributions consume no random draws,
// so the augmented world is exactly the base world with machines appended —
// and under work-conserving placement with no churn, faults or constraints,
// extra capacity must not raise the mean makespan.
func makespanDominance(ctx context.Context, sp *scenario.Spec, workers int) error {
	r := rng.New(sp.Seed).Derive("check-dominance")
	speed := 1 + float64(r.Intn(3))
	base := &scenario.Spec{
		Name:     "check-dominance",
		HorizonS: 4000,
		Machines: scenario.MachineSetSpec{
			BandwidthMiBps: scenario.Float64(4),
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: 2 + r.Intn(4), Speed: scenario.Dist{Kind: "fixed", Value: speed}},
			},
		},
		Workload: scenario.WorkloadSpec{
			Tasks:    5 + r.Intn(12),
			Work:     scenario.Dist{Kind: "uniform", Min: 20, Max: 60},
			Arrivals: scenario.ArrivalSpec{Kind: "batch"},
			ImageMiB: 1,
		},
		Policies: scenario.PolicyMatrix{
			Scheduling: scenario.SchedPolicyNames(),
			Migration:  []string{"none"},
		},
		Runs: 2,
		Seed: r.Uint64(),
	}
	aug := *base
	aug.Machines.Classes = append(append([]scenario.MachineClassSpec(nil), base.Machines.Classes...),
		scenario.MachineClassSpec{Class: "mimd", Count: 1 + r.Intn(3), Speed: scenario.Dist{Kind: "fixed", Value: speed}})

	baseRep, err := scenario.RunContext(ctx, base, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	augRep, err := scenario.RunContext(ctx, &aug, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	meanMakespan := func(rep *scenario.Report, cell int) (float64, error) {
		c := rep.Cells[cell]
		var sum float64
		for _, run := range c.Runs {
			if run.Completed != rep.Spec.Workload.Tasks {
				return 0, fmt.Errorf("cell %s/%s completed %d of %d tasks inside a generous horizon",
					c.Sched, c.Migration, run.Completed, rep.Spec.Workload.Tasks)
			}
			sum += run.MakespanS
		}
		return sum / float64(len(c.Runs)), nil
	}
	for cell := range baseRep.Cells {
		b, err := meanMakespan(baseRep, cell)
		if err != nil {
			return err
		}
		a, err := meanMakespan(augRep, cell)
		if err != nil {
			return err
		}
		if a > b*(1+1e-9)+1e-9 {
			return fmt.Errorf("cell %s/%s: adding machines raised mean makespan from %gs to %gs",
				baseRep.Cells[cell].Sched, baseRep.Cells[cell].Migration, b, a)
		}
	}
	return nil
}
