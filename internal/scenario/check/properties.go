package check

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/rng"
	"vce/internal/scenario"
	"vce/internal/sim"
)

// property is one named engine invariant over a generated spec. check must
// be self-contained (it recomputes whatever baselines it needs) so the
// shrinker can re-evaluate it on mutated specs.
type property struct {
	name string
	doc  string
	// check returns nil when the invariant holds for sp; workers is the
	// harness's concurrent-worker setting for multi-worker comparisons.
	check func(ctx context.Context, sp *scenario.Spec, workers int) error
	// seedOnly marks properties that derive their own worlds from sp.Seed
	// and ignore the rest of the spec: shrinking the spec is meaningless
	// for them (every mutation "still fails"), and their reproduction is
	// the generator seed, not a -spec file.
	seedOnly bool
}

// properties returns the harness's property table. Order is reporting
// order: cheap structural invariants first, derived-scenario sanity last.
func properties() []property {
	return []property{
		{
			name:  "seed-determinism",
			doc:   "equal (spec, seed) produce byte-identical reports",
			check: seedDeterminism,
		},
		{
			name:  "worker-invariance",
			doc:   "the report does not depend on the worker count",
			check: workerInvariance,
		},
		{
			name:  "shard-merge-identity",
			doc:   "sharded sweeps merge into the single-process report byte-identically",
			check: shardMergeIdentity,
		},
		{
			name:  "cache-warm-identity",
			doc:   "a warm result cache replays the cold report with zero simulations",
			check: cacheWarmIdentity,
		},
		{
			name:  "arena-reuse-identity",
			doc:   "per-worker world recycling replays the fresh-build report byte-identically",
			check: arenaReuseIdentity,
		},
		{
			name:  "cell-permutation",
			doc:   "permuting the policy matrix permutes cells without changing any cell's runs",
			check: cellPermutation,
		},
		{
			name:  "audit-conservation",
			doc:   "kernel audit: virtual-time monotonicity and conservation of work hold, and auditing does not perturb the report",
			check: auditConservation,
		},
		{
			name:     "steady-state-identity",
			doc:      "a heavy-traffic streaming cell's steady-state indexes are byte-identical across worker counts, shard merges, and warm-cache replay",
			check:    steadyStateIdentity,
			seedOnly: true,
		},
		{
			name:     "topology-conservation",
			doc:      "on a two-site DAG workload every offered task completes or rejects exactly once, children never finish before their parents, and the topology indexes stay in range",
			check:    topologyConservation,
			seedOnly: true,
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

// reportBytes runs a sweep and returns the serialized report.
func reportBytes(ctx context.Context, sp *scenario.Spec, o scenario.Options) ([]byte, *scenario.Report, error) {
	rep, err := scenario.RunContext(ctx, sp, o)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, nil, err
	}
	return data, rep, nil
}

func seedDeterminism(ctx context.Context, sp *scenario.Spec, _ int) error {
	a, _, err := reportBytes(ctx, sp, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	b, _, err := reportBytes(ctx, sp, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("two runs of the same (spec, seed) produced different reports (%d vs %d bytes)", len(a), len(b))
	}
	return nil
}

func workerInvariance(ctx context.Context, sp *scenario.Spec, workers int) error {
	serial, _, err := reportBytes(ctx, sp, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	parallel, _, err := reportBytes(ctx, sp, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	if !bytes.Equal(serial, parallel) {
		return fmt.Errorf("report differs between 1 and %d workers", workers)
	}
	return nil
}

func shardMergeIdentity(ctx context.Context, sp *scenario.Spec, workers int) error {
	full, _, err := reportBytes(ctx, sp, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	var shards []*scenario.Report
	for i := 0; i < 2; i++ {
		_, rep, err := reportBytes(ctx, sp, scenario.Options{Workers: workers, Shard: scenario.Shard{Index: i, Count: 2}})
		if err != nil {
			return fmt.Errorf("shard %d/2: %w", i, err)
		}
		shards = append(shards, rep)
	}
	merged, err := scenario.MergeReports(shards...)
	if err != nil {
		return err
	}
	got, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, full) {
		return fmt.Errorf("merged 2-shard report differs from the single-process report")
	}
	return nil
}

// memStore is an in-memory scenario.Store with traffic counters, the cache
// test double for the warm-identity property.
type memStore struct {
	mu     sync.Mutex
	m      map[string]scenario.Indexes
	misses int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]scenario.Indexes)} }

func (s *memStore) Get(key string) (scenario.Indexes, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.m[key]
	if !ok {
		s.misses++
	}
	return idx, ok, nil
}

func (s *memStore) Put(key string, idx scenario.Indexes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = idx
	return nil
}

func (s *memStore) missCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

func cacheWarmIdentity(ctx context.Context, sp *scenario.Spec, workers int) error {
	store := newMemStore()
	cold, _, err := reportBytes(ctx, sp, scenario.Options{Workers: workers, Cache: store})
	if err != nil {
		return err
	}
	coldMisses := store.missCount()
	warm, _, err := reportBytes(ctx, sp, scenario.Options{Workers: workers, Cache: store})
	if err != nil {
		return err
	}
	if extra := store.missCount() - coldMisses; extra != 0 {
		return fmt.Errorf("warm sweep missed the cache %d times — cell keys are not stable across runs", extra)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("warm-cache report differs from the cold report")
	}
	return nil
}

// arenaReuseIdentity pins the run arena's recycling contract: every cell of
// a sweep — executed on per-worker arenas that recycle worlds and simulation
// substrate from cell to cell — must equal scenario.RunInstanceContext of
// that cell, which builds it from scratch on a single-use arena. One worker
// funnels every cell through a single arena — the maximally-recycled
// schedule, where any state leaking across a Reset would compound — and the
// multi-worker pass exercises reuse under whatever job interleaving the
// scheduler happens to deal.
func arenaReuseIdentity(ctx context.Context, sp *scenario.Spec, workers int) error {
	sweeps := []int{1, workers}
	reports := make([]*scenario.Report, len(sweeps))
	for i, w := range sweeps {
		var err error
		if _, reports[i], err = reportBytes(ctx, sp, scenario.Options{Workers: w}); err != nil {
			return err
		}
	}
	for ci, inst := range reports[0].Spec.Instances() {
		for run := 0; run < reports[0].Spec.Runs; run++ {
			fresh, err := scenario.RunInstanceContext(ctx, inst, run)
			if err != nil {
				return fmt.Errorf("%s run %d from scratch: %w", inst.Key(), run, err)
			}
			for i, rep := range reports {
				if got := rep.Cells[ci].Runs[run]; got != fresh {
					return fmt.Errorf("%s run %d: recycled-arena indexes differ from the from-scratch cell at %d workers:\n got %+v\nwant %+v",
						inst.Key(), run, sweeps[i], got, fresh)
				}
			}
		}
	}
	return nil
}

// reversed returns a reversed copy.
func reversed(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[len(in)-1-i] = s
	}
	return out
}

func cellPermutation(ctx context.Context, sp *scenario.Spec, _ int) error {
	_, base, err := reportBytes(ctx, sp, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	perm := *sp
	perm.Policies = scenario.PolicyMatrix{
		Scheduling: reversed(sp.Policies.Scheduling),
		Migration:  reversed(sp.Policies.Migration),
	}
	_, permuted, err := reportBytes(ctx, &perm, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	if len(base.Cells) != len(permuted.Cells) {
		return fmt.Errorf("permuted matrix produced %d cells, want %d", len(permuted.Cells), len(base.Cells))
	}
	byKey := make(map[string][]byte, len(base.Cells))
	for _, cell := range base.Cells {
		data, err := json.Marshal(cell.Runs)
		if err != nil {
			return err
		}
		byKey[cell.Sched+"/"+cell.Migration] = data
	}
	for _, cell := range permuted.Cells {
		key := cell.Sched + "/" + cell.Migration
		want, ok := byKey[key]
		if !ok {
			return fmt.Errorf("cell %s missing from the baseline matrix", key)
		}
		got, err := json.Marshal(cell.Runs)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cell %s changed its per-run indexes when the matrix was reordered", key)
		}
	}
	return nil
}

func auditConservation(ctx context.Context, sp *scenario.Spec, workers int) error {
	plain, _, err := reportBytes(ctx, sp, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	audited, _, err := reportBytes(ctx, sp, scenario.Options{Workers: workers, Audit: true})
	if err != nil {
		return err // typically a *scenario.AuditError with the violations
	}
	if !bytes.Equal(plain, audited) {
		return fmt.Errorf("attaching the auditor changed the report — the auditor must observe, not participate")
	}
	return nil
}

// steadyStateIdentity pins the streaming engine's determinism contract on a
// spec guaranteed to exercise it: an overloaded diurnal cell with a bounded
// admission queue, recycled task records, owner churn and checkpointing. The
// corpus may or may not draw such a combination for any given seed; this
// property always does, and demands the steady-state indexes — slowdown
// quantiles included — come back byte-identical across worker counts, a
// 2-shard merge, and a warm-cache replay.
func steadyStateIdentity(ctx context.Context, sp *scenario.Spec, workers int) error {
	r := rng.New(sp.Seed).Derive("check-steady")
	spec := &scenario.Spec{
		Name:     "check-steady",
		HorizonS: 600,
		Machines: scenario.MachineSetSpec{
			BandwidthMiBps: scenario.Float64(4),
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: 3 + r.Intn(4), Speed: scenario.Dist{Kind: "fixed", Value: 2}},
			},
		},
		Workload: scenario.WorkloadSpec{
			// The offered load (rate 2/s over 600s) outruns both the service
			// capacity and the task cap, so admission rejections, the pool's
			// recycling path and the past-cap accounting all engage.
			Tasks: 200 + r.Intn(200),
			Work:  scenario.Dist{Kind: "uniform", Min: 5, Max: 20},
			Arrivals: scenario.ArrivalSpec{
				Kind:      "diurnal",
				RatePerS:  2,
				Amplitude: 0.8,
				PeriodS:   150,
				PhaseS:    float64(r.Intn(60)),
			},
			QueueLimit:     8 + r.Intn(16),
			ImageMiB:       1,
			Checkpointable: true,
		},
		CheckpointIntervalS: 30,
		Owner:               &scenario.OwnerSpec{MeanIdleS: 120, MeanBusyS: 60, BusyLoad: 1},
		Policies: scenario.PolicyMatrix{
			Scheduling: []string{"greedy-best-fit"},
			Migration:  []string{"none", "suspend"},
		},
		Runs: 2,
		Seed: r.Uint64(),
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("derived steady-state spec invalid: %w", err)
	}

	serial, rep, err := reportBytes(ctx, spec, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	for _, cell := range rep.Cells {
		for i, run := range cell.Runs {
			if run.Completed == 0 {
				return fmt.Errorf("cell %s/%s run %d completed nothing — the streaming pump never delivered", cell.Sched, cell.Migration, i)
			}
			if run.SlowdownP99 < run.SlowdownP50 || run.SlowdownP50 <= 0 {
				return fmt.Errorf("cell %s/%s run %d: slowdown quantiles out of order: p50=%g p99=%g",
					cell.Sched, cell.Migration, i, run.SlowdownP50, run.SlowdownP99)
			}
			if run.QueueDepthMax > float64(spec.Workload.QueueLimit) {
				return fmt.Errorf("cell %s/%s run %d: queue depth %g exceeded the admission limit %d",
					cell.Sched, cell.Migration, i, run.QueueDepthMax, spec.Workload.QueueLimit)
			}
		}
	}

	parallel, _, err := reportBytes(ctx, spec, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	if !bytes.Equal(serial, parallel) {
		return fmt.Errorf("streaming report differs between 1 and %d workers", workers)
	}

	var shards []*scenario.Report
	for i := 0; i < 2; i++ {
		_, shard, err := reportBytes(ctx, spec, scenario.Options{Workers: workers, Shard: scenario.Shard{Index: i, Count: 2}})
		if err != nil {
			return fmt.Errorf("shard %d/2: %w", i, err)
		}
		shards = append(shards, shard)
	}
	merged, err := scenario.MergeReports(shards...)
	if err != nil {
		return err
	}
	mergedBytes, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	if !bytes.Equal(serial, mergedBytes) {
		return fmt.Errorf("merged 2-shard streaming report differs from the single-process report")
	}

	store := newMemStore()
	cold, _, err := reportBytes(ctx, spec, scenario.Options{Workers: workers, Cache: store})
	if err != nil {
		return err
	}
	coldMisses := store.missCount()
	warm, _, err := reportBytes(ctx, spec, scenario.Options{Workers: workers, Cache: store})
	if err != nil {
		return err
	}
	if extra := store.missCount() - coldMisses; extra != 0 {
		return fmt.Errorf("warm streaming sweep missed the cache %d times — cell keys unstable for open-loop arrivals", extra)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("warm-cache streaming report differs from the cold report")
	}
	if !bytes.Equal(serial, cold) {
		return fmt.Errorf("cached streaming report differs from the uncached report")
	}
	return nil
}

// topologyConservation pins the topology/DAG engine's accounting on a spec
// guaranteed to exercise it: a two-site fleet with an expensive inter-site
// link, a dependent workload (shape drawn per seed) and the locality policy
// swept against the greedy baseline. Conservation must be exact — every
// offered task either completes or rejects, exactly once — the dependency
// order is enforced in-engine (a child completing before its last parent
// fails the run itself), the new indexes must stay in range, and the report
// must not depend on the worker count. The corpus may or may not draw such a
// combination for any given seed; this property always does.
func topologyConservation(ctx context.Context, sp *scenario.Spec, workers int) error {
	r := rng.New(sp.Seed).Derive("check-topology")
	kinds := []string{"chain", "fanout", "random"}
	spec := &scenario.Spec{
		Name:     "check-topology",
		HorizonS: 6000,
		Machines: scenario.MachineSetSpec{
			BandwidthMiBps: scenario.Float64(2),
			LatencyMs:      1,
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: 2 + r.Intn(3), Speed: scenario.Dist{Kind: "fixed", Value: 1}, Site: "site-a"},
				{Class: "mimd", Count: 1 + r.Intn(2), Speed: scenario.Dist{Kind: "fixed", Value: 2}, Slots: 2, Site: "site-b"},
			},
			Topology: &scenario.TopologySpec{
				IntraLatencyMs:      0.5,
				IntraBandwidthMiBps: 16,
				InterLatencyMs:      20,
				InterBandwidthMiBps: 1,
			},
		},
		Workload: scenario.WorkloadSpec{
			Tasks:    12 + r.Intn(20),
			Work:     scenario.Dist{Kind: "uniform", Min: 5, Max: 30},
			Arrivals: scenario.ArrivalSpec{Kind: "batch"},
			Graph:    &scenario.GraphSpec{Kind: kinds[r.Intn(len(kinds))], DataMiB: 2},
			ImageMiB: 1,
		},
		Policies: scenario.PolicyMatrix{
			Scheduling: []string{"locality", "greedy-best-fit"},
			Migration:  []string{"none"},
		},
		Runs: 2,
		Seed: r.Uint64(),
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("derived topology spec invalid: %w", err)
	}

	serial, rep, err := reportBytes(ctx, spec, scenario.Options{Workers: 1})
	if err != nil {
		return err
	}
	for _, cell := range rep.Cells {
		for i, run := range cell.Runs {
			if run.Completed+run.Rejected != spec.Workload.Tasks {
				return fmt.Errorf("cell %s/%s run %d: %d completed + %d rejected != %d offered — a task leaked or was double-counted",
					cell.Sched, cell.Migration, i, run.Completed, run.Rejected, spec.Workload.Tasks)
			}
			if run.Completed == 0 {
				return fmt.Errorf("cell %s/%s run %d completed nothing inside a generous horizon", cell.Sched, cell.Migration, i)
			}
			if run.ForwardedPct < 0 || run.ForwardedPct > 100 {
				return fmt.Errorf("cell %s/%s run %d: forwarded_pct %g outside [0, 100]", cell.Sched, cell.Migration, i, run.ForwardedPct)
			}
			if run.XferWaitS < 0 {
				return fmt.Errorf("cell %s/%s run %d: negative xfer_wait_s %g", cell.Sched, cell.Migration, i, run.XferWaitS)
			}
			if run.CriticalPathStretch <= 0 {
				return fmt.Errorf("cell %s/%s run %d: critical_path_stretch %g not positive for a DAG workload",
					cell.Sched, cell.Migration, i, run.CriticalPathStretch)
			}
		}
	}

	parallel, _, err := reportBytes(ctx, spec, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	if !bytes.Equal(serial, parallel) {
		return fmt.Errorf("topology report differs between 1 and %d workers", workers)
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

	_, baseRep, err := reportBytes(ctx, base, scenario.Options{Workers: workers})
	if err != nil {
		return err
	}
	_, augRep, err := reportBytes(ctx, &aug, scenario.Options{Workers: workers})
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
