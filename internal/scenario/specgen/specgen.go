// Package specgen is the seeded random generator of valid scenario specs —
// the input half of the engine's property-testing harness (its output half is
// internal/scenario/check). Given a uint64 seed it deterministically samples
// a heterogeneous machine set, a workload mix, optional owner-churn and fault
// models, and a scheduling × migration policy matrix, and returns a Spec that
// always passes scenario.Validate.
//
// Determinism is the contract: Generate(seed, caps) yields a byte-identical
// spec on every call, platform and Go version, so a failing property can be
// reported and replayed as just (seed, caps) — and the committed corpus under
// testdata/corpus stays in sync with the generator by regeneration.
//
// Generated sizes are bounded by Caps so a whole `vcebench check -seeds N`
// sweep stays cheap; every knob the scenario schema exposes is exercised
// across seeds, including the ones the shipped example specs never combine.
// Two combinations the free draw reaches too rarely to rely on — an
// overloaded bounded-queue stream and a two-site DAG — are strata: one seed
// in strataEvery draws each (see OverloadedStream and TwoSiteDAG), so any
// run of consecutive seeds covers them.
package specgen

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"vce/internal/rng"
	"vce/internal/scenario"
)

// Caps bound the generated scenario's size. The zero value means
// DefaultCaps.
type Caps struct {
	// MaxMachines bounds the total generated machine count (≥ 1).
	MaxMachines int
	// MaxTasks bounds the workload size (≥ 1).
	MaxTasks int
	// MaxRuns bounds runs-per-cell (≥ 1).
	MaxRuns int
	// MaxHorizonS bounds the simulated duration (> 0).
	MaxHorizonS float64
	// MaxCells bounds the policy matrix area: scheduling × migration list
	// sizes are drawn so their product never exceeds it (≥ 1).
	MaxCells int
}

// DefaultCaps keep a generated spec's full property sweep in the
// milliseconds range: small worlds find the same accounting bugs big ones
// do, just faster.
func DefaultCaps() Caps {
	return Caps{MaxMachines: 10, MaxTasks: 32, MaxRuns: 2, MaxHorizonS: 900, MaxCells: 6}
}

// withDefaults fills zero fields from DefaultCaps.
func (c Caps) withDefaults() Caps {
	d := DefaultCaps()
	if c.MaxMachines <= 0 {
		c.MaxMachines = d.MaxMachines
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = d.MaxTasks
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = d.MaxRuns
	}
	if c.MaxHorizonS <= 0 {
		c.MaxHorizonS = d.MaxHorizonS
	}
	if c.MaxCells <= 0 {
		c.MaxCells = d.MaxCells
	}
	return c
}

// classes are the machine classes the generator draws from, each at most
// once per spec.
var classes = []string{"workstation", "mimd", "simd", "vector"}

// round2 quantizes a float to two decimals so generated specs serialize
// compactly and reproduce exactly through JSON.
func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// dist draws a parameterized work/speed distribution inside [lo, hi].
func dist(r *rng.Source, lo, hi float64) scenario.Dist {
	a, b := round2(r.Range(lo, hi)), round2(r.Range(lo, hi))
	if a > b {
		a, b = b, a
	}
	switch r.Intn(4) {
	case 0:
		return scenario.Dist{Kind: "fixed", Value: a}
	case 1:
		if a == b {
			b = round2(a + 1)
		}
		return scenario.Dist{Kind: "uniform", Min: a, Max: b}
	case 2:
		// Alpha stays above 1.1 so the heavy tail cannot draw work beyond
		// what a bounded horizon can express.
		return scenario.Dist{Kind: "pareto", Alpha: round2(r.Range(1.1, 3)), Xmin: a}
	default:
		return scenario.Dist{Kind: "normal", Mean: b, Stddev: round2(r.Range(0, b/4))}
	}
}

// quantRate quantizes an arrival rate to 1e-3 for compact serialization,
// floored there: a rate must stay positive.
func quantRate(rate float64) float64 {
	return math.Max(0.001, round2(rate*1000)/1000)
}

// genRate draws an open-arrival rate that lands most of the workload inside
// the horizon.
func genRate(r *rng.Source, sp *scenario.Spec) float64 {
	return quantRate(float64(sp.Workload.Tasks) / (sp.HorizonS * r.Range(0.3, 0.9)))
}

// subset returns a random non-empty subset of all, preserving order.
func subset(r *rng.Source, all []string, max int) []string {
	if max > len(all) {
		max = len(all)
	}
	n := 1 + r.Intn(max)
	picked := make([]string, 0, n)
	idx := r.Perm(len(all))[:n]
	// Keep canonical order so equal subsets serialize identically whatever
	// permutation selected them.
	for _, name := range all {
		for _, i := range idx {
			if all[i] == name {
				picked = append(picked, name)
				break
			}
		}
	}
	return picked
}

// Generate returns the deterministic random spec for seed under caps.
// The result always validates; a generator change that breaks that
// invariant is caught by this package's tests, not by downstream harness
// noise.
func Generate(seed uint64, caps Caps) *scenario.Spec {
	caps = caps.withDefaults()
	r := rng.New(seed).Derive("specgen")

	sp := &scenario.Spec{
		Name:        fmt.Sprintf("gen-%016x", seed),
		Description: fmt.Sprintf("specgen seed %d", seed),
		HorizonS:    round2(r.Range(caps.MaxHorizonS/3, caps.MaxHorizonS)),
		Runs:        1 + r.Intn(caps.MaxRuns),
		Seed:        r.Uint64(),
	}
	switch {
	case seed%strataEvery == streamResidue:
		drawOverloadedStream(sp, r.Derive("stream"), caps)
	case seed%strataEvery == dagResidue && caps.MaxMachines >= 2 && caps.MaxCells >= 2:
		drawTwoSiteDAG(sp, r.Derive("dag"), caps)
	default:
		drawAny(sp, r, caps)
	}
	if err := sp.Validate(); err != nil {
		// The generator's whole point is emitting valid specs; an invalid
		// one is a specgen bug, never scenario input noise.
		panic(fmt.Sprintf("specgen: seed %d generated an invalid spec: %v", seed, err))
	}
	return sp
}

// drawGraph draws a dependency shape and its edge payload.
func drawGraph(r *rng.Source) *scenario.GraphSpec {
	g := &scenario.GraphSpec{DataMiB: round2(r.Range(0.25, 8))}
	switch r.Intn(3) {
	case 0:
		g.Kind = "chain"
	case 1:
		g.Kind = "fanout"
		g.FanOut = 2 + r.Intn(3)
	default:
		g.Kind = "random"
		g.EdgeProb = round2(r.Range(0.05, 0.6))
	}
	return g
}

// drawAny fills sp with the free draw: every axis sampled independently.
func drawAny(sp *scenario.Spec, r *rng.Source, caps Caps) {
	// ---- machine set ----
	mr := r.Derive("machines")
	nclasses := 1 + mr.Intn(3)
	if nclasses > caps.MaxMachines {
		nclasses = caps.MaxMachines
	}
	order := mr.Perm(len(classes))
	budget := caps.MaxMachines
	for i := 0; i < nclasses; i++ {
		count := 1 + mr.Intn(budget-(nclasses-1-i)) // leave ≥1 for later classes
		budget -= count
		cl := scenario.MachineClassSpec{
			Class: classes[order[i]],
			Count: count,
			Speed: dist(mr, 0.5, 4),
		}
		if mr.Bool(0.3) {
			cl.Slots = 1 + mr.Intn(3)
		}
		if mr.Bool(0.2) {
			cl.MemoryMB = 32 << mr.Intn(5)
		}
		sp.Machines.Classes = append(sp.Machines.Classes, cl)
	}
	sp.Machines.BandwidthMiBps = scenario.Float64(round2(mr.Range(0.5, 16)))
	if mr.Bool(0.5) {
		sp.Machines.LatencyMs = round2(mr.Range(0, 20))
	}
	// Network positions: a slice of the multi-class worlds splits across two
	// sites (alternating class blocks guarantees both are populated), and
	// most of those also shape the per-site link model — so the topology
	// engine path and the locality policy get steady corpus coverage.
	if nclasses >= 2 && mr.Bool(0.4) {
		for i := range sp.Machines.Classes {
			sp.Machines.Classes[i].Site = fmt.Sprintf("s%d", i%2)
		}
		if mr.Bool(0.7) {
			t := &scenario.TopologySpec{
				InterLatencyMs:      round2(mr.Range(1, 50)),
				InterBandwidthMiBps: round2(mr.Range(0.1, 4)),
			}
			if mr.Bool(0.5) {
				t.IntraLatencyMs = round2(mr.Range(0, 2))
				t.IntraBandwidthMiBps = round2(mr.Range(4, 32))
			}
			if mr.Bool(0.2) {
				t.Links = []scenario.LinkSpec{{A: "s0", B: "s1", LatencyMs: round2(mr.Range(1, 100))}}
			}
			sp.Machines.Topology = t
		}
	}

	// ---- workload ----
	wr := r.Derive("workload")
	sp.Workload = scenario.WorkloadSpec{
		Tasks:          1 + wr.Intn(caps.MaxTasks),
		Work:           dist(wr, 10, sp.HorizonS/4),
		Arrivals:       scenario.ArrivalSpec{Kind: "batch"},
		ImageMiB:       round2(wr.Range(0.5, 8)),
		Checkpointable: wr.Bool(0.6),
	}
	// Arrival process: every registered source kind gets corpus coverage —
	// batch most often (the paper's closed-workload baseline), then the open
	// kinds, so the streaming engine path is property-tested too.
	switch wr.Intn(6) {
	case 0, 1:
		// batch stays as initialized above.
	case 2, 3:
		// A rate that lands most arrivals inside the horizon; stragglers
		// exercise the rejected-at-horizon path deliberately.
		sp.Workload.Arrivals = scenario.ArrivalSpec{Kind: "poisson", RatePerS: genRate(wr, sp)}
	case 4:
		a := scenario.ArrivalSpec{
			Kind:      "diurnal",
			RatePerS:  genRate(wr, sp),
			Amplitude: round2(wr.Range(0, 1)),
			PeriodS:   round2(wr.Range(sp.HorizonS/4, sp.HorizonS)),
		}
		if wr.Bool(0.3) {
			a.PhaseS = round2(wr.Range(0, a.PeriodS))
		}
		sp.Workload.Arrivals = a
	default:
		// A short gap list; repeat tiles it so the run still sees every task.
		mean := sp.HorizonS * wr.Range(0.3, 0.9) / float64(sp.Workload.Tasks)
		gaps := make([]float64, 2+wr.Intn(6))
		for i := range gaps {
			gaps[i] = round2(wr.Range(0, 2*mean))
		}
		if gaps[0] < 0.01 {
			gaps[0] = 0.01 // a positive total keeps repeat valid
		}
		sp.Workload.Arrivals = scenario.ArrivalSpec{Kind: "trace", TraceS: gaps, Repeat: wr.Bool(0.7)}
	}
	if sp.Workload.Arrivals.Streaming() && wr.Bool(0.5) {
		// Bounded admission queue: exercises the reject path and the pool cap.
		sp.Workload.QueueLimit = 1 + wr.Intn(2*sp.Workload.Tasks)
	}
	// Dependent workloads: a third of the closed-source specs link their
	// tasks into a DAG (graph workloads require a materialized world, so
	// streaming sources are excluded by construction, matching Validate).
	if !sp.Workload.Arrivals.Streaming() && wr.Bool(0.35) {
		sp.Workload.Graph = drawGraph(wr)
	}
	if wr.Bool(0.3) {
		pin := sp.Machines.Classes[wr.Intn(len(sp.Machines.Classes))].Class
		sp.Workload.Constrained = &scenario.ConstrainedSpec{
			Fraction: round2(wr.Range(0.1, 0.5)),
			Class:    pin,
		}
	}

	// ---- churn and faults ----
	cr := r.Derive("churn")
	if cr.Bool(0.5) {
		sp.Owner = &scenario.OwnerSpec{
			MeanIdleS: round2(cr.Range(30, sp.HorizonS/2)),
			MeanBusyS: round2(cr.Range(30, sp.HorizonS/2)),
			BusyLoad:  round2(cr.Range(0.5, 1.5)),
		}
	}
	if cr.Bool(0.3) {
		sp.Faults = &scenario.FaultSpec{
			MTBFHours: round2(cr.Range(0.1, 2)),
			DownS:     round2(cr.Range(30, 600)),
		}
		sp.CheckpointIntervalS = round2(cr.Range(10, 120))
	}

	// ---- policy matrix ----
	pr := r.Derive("policies")
	scheds := subset(pr, scenario.SchedPolicyNames(), caps.MaxCells)
	maxMig := caps.MaxCells / len(scheds)
	if maxMig < 1 {
		maxMig = 1
	}
	sp.Policies = scenario.PolicyMatrix{
		Scheduling: scheds,
		Migration:  subset(pr, scenario.MigrationNames(), maxMig),
	}
}

// The strata: seeds in one residue class mod strataEvery each draw from a
// narrow family instead of the free draw, so any strataEvery consecutive
// seeds hold a spec of each. The predicates define the families;
// internal/scenario/check runs its streaming and topology properties exactly
// on the specs they accept.
const (
	strataEvery   = 8
	streamResidue = 2
	dagResidue    = 5
)

// fixedFleet returns the aggregate and the slowest speed of a fleet whose
// classes all run at fixed speeds, zeros otherwise: the strata reason about
// worst cases, which sampled speeds do not bound.
func fixedFleet(ms scenario.MachineSetSpec) (total, slowest float64) {
	slowest = math.Inf(1)
	for _, cl := range ms.Classes {
		if cl.Speed.Kind != "fixed" {
			return 0, 0
		}
		total += float64(cl.Count) * cl.Speed.Value
		slowest = math.Min(slowest, cl.Speed.Value)
	}
	return total, slowest
}

// OverloadedStream reports whether sp is an overloaded bounded-queue stream:
// a diurnal source offering more work than the fleet can serve into a
// bounded admission queue, more tasks than the queue holds, work short enough
// to complete many times inside the horizon, owners idle at least as long as
// busy. Faults are out: a fault requeue re-enters the queue past admission,
// so the queue bound is not an invariant under them.
func OverloadedStream(sp *scenario.Spec) bool {
	w := &sp.Workload
	capacity, slowest := fixedFleet(sp.Machines)
	return w.Arrivals.Kind == "diurnal" && w.Work.Kind == "uniform" && slowest > 0 &&
		sp.Faults == nil && w.Constrained == nil && w.QueueLimit > 0 && w.Tasks > 2*w.QueueLimit &&
		w.Arrivals.RatePerS*w.Work.Min > capacity && 10*w.Work.Max/slowest <= sp.HorizonS &&
		(sp.Owner == nil || sp.Owner.MeanIdleS >= sp.Owner.MeanBusyS)
}

// TwoSiteDAG reports whether sp is a sited DAG whose accounting closes inside
// the horizon: a batch task graph over a topology with a priced inter-site
// link, locality swept against a site-blind policy, no churn, faults or
// constraints, and a horizon at least twice what running every task back to
// back on the slowest machine, each staging its input across sites, takes.
func TwoSiteDAG(sp *scenario.Spec) bool {
	w, g, t := &sp.Workload, sp.Workload.Graph, sp.Machines.Topology
	if g == nil || t == nil || len(t.Links) > 0 || g.DataMiB <= 0 || t.InterBandwidthMiBps <= 0 ||
		w.Work.Kind != "uniform" || w.Arrivals.Kind != "batch" ||
		sp.Owner != nil || sp.Faults != nil || w.Constrained != nil {
		return false
	}
	scheds := sp.Policies.Scheduling
	_, slowest := fixedFleet(sp.Machines)
	stageS := g.DataMiB/t.InterBandwidthMiBps + t.InterLatencyMs/1000
	return slices.Contains(scheds, "locality") && len(scheds) > 1 && slowest > 0 &&
		2*float64(w.Tasks)*(w.Work.Max/slowest+stageS) <= sp.HorizonS
}

// stratumTasks draws a task count in the upper half of the cap: the strata
// want all the traffic the caps allow.
func stratumTasks(r *rng.Source, caps Caps) int {
	return caps.MaxTasks/2 + 1 + r.Intn((caps.MaxTasks+1)/2)
}

// uniform returns the uniform distribution on [lo, hi], quantized and kept
// valid (0 < min ≤ max) however small the caps make it.
func uniform(lo, hi float64) scenario.Dist {
	lo = math.Max(0.01, round2(lo))
	return scenario.Dist{Kind: "uniform", Min: lo, Max: math.Max(lo, round2(hi))}
}

// pick draws one of names.
func pick(r *rng.Source, names ...string) string { return names[r.Intn(len(names))] }

// drawOverloadedStream fills sp with a member of the OverloadedStream
// family: a small fixed-speed pool, arrivals at several times what it can
// serve, owner churn and checkpointing — so admission rejections, slot
// recycling and the checkpoint record's lifetime all engage.
func drawOverloadedStream(sp *scenario.Spec, r *rng.Source, caps Caps) {
	n, speed := 1+r.Intn(min(3, caps.MaxMachines)), float64(1+r.Intn(2))
	sp.Machines = scenario.MachineSetSpec{
		BandwidthMiBps: scenario.Float64(4),
		Classes:        []scenario.MachineClassSpec{{Class: "workstation", Count: n, Speed: scenario.Dist{Kind: "fixed", Value: speed}}},
	}
	// A task holds a machine for a 15th to a 30th of the horizon at most,
	// half that at least, so the fleet serves at most 2n/serviceS tasks a
	// second; the margin above that absorbs quantization.
	serviceS := sp.HorizonS / r.Range(15, 30)
	rate := quantRate(r.Range(3, 6) * float64(n) / serviceS)
	tasks := stratumTasks(r, caps)
	sp.Workload = scenario.WorkloadSpec{
		Tasks: tasks,
		Work:  uniform(serviceS*speed/2, serviceS*speed),
		Arrivals: scenario.ArrivalSpec{
			Kind: "diurnal", RatePerS: rate, Amplitude: round2(r.Range(0, 0.8)),
			PeriodS: round2(sp.HorizonS / r.Range(2, 6)), PhaseS: round2(r.Range(0, sp.HorizonS/6)),
		},
		QueueLimit:     1 + r.Intn(max(1, tasks/6)),
		ImageMiB:       1,
		Checkpointable: true,
	}
	sp.Owner = &scenario.OwnerSpec{
		MeanIdleS: round2(sp.HorizonS / r.Range(3, 6)),
		MeanBusyS: round2(sp.HorizonS / r.Range(20, 40)),
		BusyLoad:  1,
	}
	sp.CheckpointIntervalS = round2(serviceS / r.Range(1, 3))
	migs := []string{pick(r, "none", "suspend"), "checkpoint"}
	if caps.MaxCells < 2 {
		migs = migs[1:]
	}
	sp.Policies = scenario.PolicyMatrix{
		Scheduling: []string{pick(r, "greedy-best-fit", "utilization-first")},
		Migration:  migs,
	}
}

// drawTwoSiteDAG fills sp with a member of the TwoSiteDAG family: two sites
// joined by a link that costs about as much as a task's compute, a task
// graph whose shape is drawn per seed, and locality swept against a
// site-blind policy. Work and staging are sized from a task's share of half
// the horizon, so every offered task completes or rejects in time.
func drawTwoSiteDAG(sp *scenario.Spec, r *rng.Source, caps Caps) {
	a := 1 + r.Intn(caps.MaxMachines/2)
	b := 1 + r.Intn(min(3, caps.MaxMachines-a))
	interBW := round2(r.Range(0.5, 2))
	sp.Machines = scenario.MachineSetSpec{
		BandwidthMiBps: scenario.Float64(2),
		LatencyMs:      1,
		Classes: []scenario.MachineClassSpec{
			{Class: "workstation", Count: a, Speed: scenario.Dist{Kind: "fixed", Value: 1}, Site: "s0"},
			{Class: "mimd", Count: b, Speed: scenario.Dist{Kind: "fixed", Value: 2}, Slots: 2, Site: "s1"},
		},
		Topology: &scenario.TopologySpec{
			IntraLatencyMs: 0.5, IntraBandwidthMiBps: 16,
			InterLatencyMs: 20, InterBandwidthMiBps: interBW,
		},
	}
	tasks := stratumTasks(r, caps)
	shareS := sp.HorizonS / float64(2*tasks)
	g := drawGraph(r)
	g.DataMiB = math.Max(0.01, round2(interBW*shareS*r.Range(0.1, 0.3)))
	sp.Workload = scenario.WorkloadSpec{
		Tasks:    tasks,
		Work:     uniform(shareS*0.2, shareS*0.6),
		Arrivals: scenario.ArrivalSpec{Kind: "batch"},
		Graph:    g,
		ImageMiB: 1,
	}
	sp.Policies = scenario.PolicyMatrix{
		Scheduling: []string{pick(r, "greedy-best-fit", "utilization-first"), "locality"},
		Migration:  []string{"none"},
	}
}

// MarshalCanonical serializes a spec the way the corpus stores it: indented,
// key order fixed by the struct, trailing newline.
func MarshalCanonical(sp *scenario.Spec) ([]byte, error) {
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("specgen: %w", err)
	}
	return append(data, '\n'), nil
}
