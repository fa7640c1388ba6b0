package main

import "vce/internal/scenario"

// The spec shapes below are the benchmark's fixed inputs. Only the seed (and,
// for the churn-small shape, the run count) varies between ops: a change to
// any other number here makes every earlier result incomparable, so treat the
// shapes as part of the benchmark's identity, not as tunables.

var churnPolicies = scenario.PolicyMatrix{
	Scheduling: []string{"greedy-best-fit", "utilization-first"},
	Migration:  []string{"suspend", "address-space", "checkpoint"},
}

var dagPolicies = scenario.PolicyMatrix{
	Scheduling: []string{"locality", "greedy-best-fit"},
	Migration:  []string{"none", "address-space"},
}

// churnShape is the owner-churn world of sweep_cold, sweep_warm and the even
// ops of serve_mixed: a workstation pool plus a few fast mimd machines on a
// flat link, heavy-tailed checkpointable work, owners coming and going, and
// rare machine failures — every migration strategy has something to do.
func churnShape(name string, seed uint64, workstations, mimd, tasks, runs int) *scenario.Spec {
	return &scenario.Spec{
		Name:     name,
		HorizonS: 3600,
		Machines: scenario.MachineSetSpec{
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: workstations, Speed: scenario.Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: mimd, Slots: 2, Speed: scenario.Dist{Kind: "fixed", Value: 6}},
			},
			BandwidthMiBps: scenario.Float64(4),
		},
		Workload: scenario.WorkloadSpec{
			Tasks:          tasks,
			Work:           scenario.Dist{Kind: "pareto", Alpha: 1.6, Xmin: 40},
			Arrivals:       scenario.ArrivalSpec{Kind: "poisson", RatePerS: float64(tasks) / 1800},
			ImageMiB:       2,
			Checkpointable: true,
			Constrained:    &scenario.ConstrainedSpec{Fraction: 0.1, Class: "mimd"},
		},
		Owner:    &scenario.OwnerSpec{MeanIdleS: 300, MeanBusyS: 120},
		Faults:   &scenario.FaultSpec{MTBFHours: 20, DownS: 120},
		Policies: churnPolicies,
		Runs:     runs,
		Seed:     seed,
	}
}

// churnSpec is "bench-churn": 24 cells of 2048 tasks on 128 machines.
func churnSpec(seed uint64) *scenario.Spec {
	return churnShape("bench-churn", seed, 120, 8, 2048, 4)
}

// churnSmallSpec is "bench-churn-small": the same matrix over a world an
// eighth the size, with the run count chosen by the workload.
func churnSmallSpec(seed uint64, runs int) *scenario.Spec {
	return churnShape("bench-churn-small", seed, 30, 2, 256, runs)
}

// streamTasks is the task count of one stream_cell op: a quarter of the
// committed examples/scenarios/diurnal-steady.json.
const streamTasks = 250_000

// streamSpec is the diurnal-steady.json shape with a 600 s diurnal period,
// so one op sees at least one full overload/trough cycle.
func streamSpec(seed uint64, tasks int) *scenario.Spec {
	return &scenario.Spec{
		Name:     "bench-stream",
		HorizonS: 3600,
		Machines: scenario.MachineSetSpec{
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: 64, Slots: 8, Speed: scenario.Dist{Kind: "fixed", Value: 5}},
			},
			BandwidthMiBps: scenario.Float64(8),
		},
		Workload: scenario.WorkloadSpec{
			Tasks:      tasks,
			Work:       scenario.Dist{Kind: "uniform", Min: 0.5, Max: 1.5},
			Arrivals:   scenario.ArrivalSpec{Kind: "diurnal", RatePerS: 300, Amplitude: 0.6, PeriodS: 600},
			QueueLimit: 128,
			ImageMiB:   1,
		},
		Policies: scenario.PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     1,
		Seed:     seed,
	}
}

// streamSlots is the stream world's total task slots: the most tasks that
// can still be in flight when the arrivals end.
const streamSlots = 64 * 8

// dagShape is the three-site topology world of dag_topo and the odd ops of
// serve_mixed. Each site has its own machine class: two classes sharing a
// class keyword would generate colliding machine names.
func dagShape(name string, seed uint64, campus, center, annex, tasks, runs int) *scenario.Spec {
	return &scenario.Spec{
		Name:     name,
		HorizonS: 7200,
		Machines: scenario.MachineSetSpec{
			Classes: []scenario.MachineClassSpec{
				{Class: "workstation", Count: campus, Site: "campus", Speed: scenario.Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: center, Slots: 4, Site: "center", Speed: scenario.Dist{Kind: "fixed", Value: 4}},
				{Class: "vector", Count: annex, Site: "annex", Speed: scenario.Dist{Kind: "uniform", Min: 1, Max: 3}},
			},
			BandwidthMiBps: scenario.Float64(4),
			LatencyMs:      2,
			Topology: &scenario.TopologySpec{
				IntraLatencyMs: 1, IntraBandwidthMiBps: 8,
				InterLatencyMs: 25, InterBandwidthMiBps: 0.75,
			},
		},
		Workload: scenario.WorkloadSpec{
			Tasks:    tasks,
			Work:     scenario.Dist{Kind: "uniform", Min: 20, Max: 80},
			Arrivals: scenario.ArrivalSpec{Kind: "batch"},
			Graph:    &scenario.GraphSpec{Kind: "random", EdgeProb: 0.2, DataMiB: 4},
			ImageMiB: 2,
		},
		Policies: dagPolicies,
		Runs:     runs,
		Seed:     seed,
	}
}

// dagSpec is "bench-dag": 16 cells of a 2048-task random DAG on 192 machines.
func dagSpec(seed uint64) *scenario.Spec {
	return dagShape("bench-dag", seed, 96, 32, 64, 2048, 4)
}

// dagSmallSpec is the 12-machine, 120-task DAG the daemon workload submits.
func dagSmallSpec(seed uint64) *scenario.Spec {
	return dagShape("bench-dag-small", seed, 6, 2, 4, 120, 3)
}

// gridCells is a spec's (instance × run) cell count.
func gridCells(sp *scenario.Spec) int {
	return len(sp.Policies.Scheduling) * len(sp.Policies.Migration) * sp.Runs
}

// warmPoolSize is how many distinct specs sweep_warm cycles through.
const warmPoolSize = 4

// warmSpec is op i of sweep_warm: the pool spec it replays, 192 cells.
func warmSpec(seed uint64, i int) *scenario.Spec {
	return churnSmallSpec(seed+uint64(i%warmPoolSize), 32)
}

// hotSetSize is how many seeds serve_mixed keeps resubmitting.
const hotSetSize = 4

// warmupBase is the op index of the first warm-up op. Warm-up seeds are thus
// disjoint from every measured seed, so a warm-up never pre-populates a cache
// entry a timed op would have missed (sweep_warm, whose pool is meant to be
// shared, folds the index back into the pool: warmupBase is a multiple of
// warmPoolSize).
const warmupBase = 1 << 40

// serveSpec is op i of serve_mixed: even ops submit churn-small × 3 runs,
// odd ops the small DAG; every third op resubmits a hot-set seed.
func serveSpec(seed uint64, i int) *scenario.Spec {
	s := seed + uint64(i)
	if serveHot(i) {
		s = seed + uint64(i%hotSetSize)
	}
	if i%2 == 0 {
		return churnSmallSpec(s, 3)
	}
	return dagSmallSpec(s)
}

// serveHot reports whether op i of serve_mixed resubmits a hot-set spec.
// Warm-up ops never do: they must not simulate the hot set ahead of the pass.
func serveHot(i int) bool { return i%3 == 0 && i < warmupBase }
