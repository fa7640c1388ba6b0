// Package scenario is the declarative experiment engine over the VCE
// simulator: a Spec describes a machine-set model, a workload model, a
// fault/churn model and a policy matrix; the engine expands the spec into
// concrete instances (one per scheduling-policy × migration-strategy cell),
// runs each instance for N independent seeds on the discrete-event cluster,
// and aggregates per-run indexes into mean±stddev comparison tables.
//
// The shape follows the simulation modules of the load-balancing literature:
// an instance generator, a simulation controller that repeats each instance
// across seeds for stable statistics, and an analyzer that computes the
// comparison indexes and exports them as text, Markdown, CSV and JSON. It
// generalizes the hand-coded harnesses in internal/experiments: a new VCE
// evaluation is a JSON file, not a Go program.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vce/internal/rng"
	"vce/internal/sched"
)

// Dist is a parameterized scalar distribution, the generator primitive for
// machine speeds and task work.
type Dist struct {
	// Kind selects the distribution: "fixed", "uniform", "pareto" or
	// "normal".
	Kind string `json:"dist"`
	// Value is the constant for "fixed".
	Value float64 `json:"value,omitempty"`
	// Min and Max bound "uniform".
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Alpha and Xmin shape "pareto" (bounded Pareto, heavy tail).
	Alpha float64 `json:"alpha,omitempty"`
	Xmin  float64 `json:"xmin,omitempty"`
	// Mean and Stddev shape "normal".
	Mean   float64 `json:"mean,omitempty"`
	Stddev float64 `json:"stddev,omitempty"`
}

// validate checks the distribution's parameters; field names the spec
// location for error messages.
func (d Dist) validate(field string) error {
	switch d.Kind {
	case "fixed":
		if d.Value <= 0 {
			return fmt.Errorf("scenario: %s: fixed dist needs positive value, got %v", field, d.Value)
		}
	case "uniform":
		if d.Min <= 0 || d.Max < d.Min {
			return fmt.Errorf("scenario: %s: uniform dist needs 0 < min <= max, got [%v, %v]", field, d.Min, d.Max)
		}
	case "pareto":
		if d.Alpha <= 0 || d.Xmin <= 0 {
			return fmt.Errorf("scenario: %s: pareto dist needs positive alpha and xmin, got alpha=%v xmin=%v", field, d.Alpha, d.Xmin)
		}
	case "normal":
		if d.Mean <= 0 || d.Stddev < 0 {
			return fmt.Errorf("scenario: %s: normal dist needs positive mean and non-negative stddev, got mean=%v stddev=%v", field, d.Mean, d.Stddev)
		}
	case "":
		return fmt.Errorf("scenario: %s: missing \"dist\" kind", field)
	default:
		return fmt.Errorf("scenario: %s: unknown dist kind %q (want fixed, uniform, pareto or normal)", field, d.Kind)
	}
	return nil
}

// Sample draws one variate. Draws are clamped to a small positive floor so
// speeds and work units stay valid whatever the parameters.
func (d Dist) Sample(r *rng.Source) float64 {
	var v float64
	switch d.Kind {
	case "fixed":
		v = d.Value
	case "uniform":
		v = r.Range(d.Min, d.Max)
	case "pareto":
		v = r.Pareto(d.Alpha, d.Xmin)
	case "normal":
		v = d.Mean + d.Stddev*r.NormFloat64()
	}
	if v < 1e-3 {
		v = 1e-3
	}
	return v
}

// MachineClassSpec generates one group of machines of a single architecture
// class — the "MIMD group, SIMD group and workstation group" population
// model, with per-class counts and speed distributions.
type MachineClassSpec struct {
	// Class is the architecture class keyword: "workstation", "mimd",
	// "simd" or "vector".
	Class string `json:"class"`
	// Count is how many machines of this class to generate.
	Count int `json:"count"`
	// Speed distributes relative machine speed (1.0 = 1994 workstation).
	Speed Dist `json:"speed"`
	// MemoryMB overrides the class default physical memory.
	MemoryMB int `json:"memory_mb,omitempty"`
	// Slots is how many concurrent remote tasks each machine accepts
	// (default 1).
	Slots int `json:"slots,omitempty"`
	// Site names the network position of this class's machines. Sites feed
	// the per-site network model (machines.topology) and the locality
	// scheduling policy's data-affinity accounting; empty means no declared
	// position (required to be non-empty when topology is present).
	Site string `json:"site,omitempty"`
}

// Float64 returns a pointer to v, for optional spec fields that distinguish
// "absent" (nil, defaulted) from an explicit value.
func Float64(v float64) *float64 { return &v }

// LinkSpec overrides the link between one pair of sites. The pair is
// unordered (links are symmetric); a == b overrides that site's intra-site
// link. A zero latency or bandwidth field inherits the topology's intra/inter
// value for that pair.
type LinkSpec struct {
	// A and B name the endpoints; both must be declared class sites.
	A string `json:"a"`
	B string `json:"b"`
	// LatencyMs is the one-way latency in milliseconds for this pair.
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// BandwidthMiBps is the pair's bandwidth in MiB/s.
	BandwidthMiBps float64 `json:"bandwidth_mib_s,omitempty"`
}

// TopologySpec shapes the per-site network model: machines within a site
// talk over the intra-site link, machines in different sites over the
// inter-site link, with optional per-pair overrides. Zero-valued fields
// inherit the flat machines.bandwidth_mib_s / machines.latency_ms link, so a
// topology can override just the dimension it cares about.
type TopologySpec struct {
	// IntraLatencyMs and IntraBandwidthMiBps shape same-site links.
	IntraLatencyMs      float64 `json:"intra_latency_ms,omitempty"`
	IntraBandwidthMiBps float64 `json:"intra_bandwidth_mib_s,omitempty"`
	// InterLatencyMs and InterBandwidthMiBps shape cross-site links.
	InterLatencyMs      float64 `json:"inter_latency_ms,omitempty"`
	InterBandwidthMiBps float64 `json:"inter_bandwidth_mib_s,omitempty"`
	// Links overrides individual site pairs.
	Links []LinkSpec `json:"links,omitempty"`
}

// MachineSetSpec is the generated cluster configuration: treating the
// machine population itself as a parameterized input rather than a fixed
// testbed.
type MachineSetSpec struct {
	// Classes lists the machine groups to generate.
	Classes []MachineClassSpec `json:"classes"`
	// BandwidthMiBps sets interconnect bandwidth in MiB/s (default 1).
	// When set it must be positive: the engine refuses a zero-bandwidth
	// network instead of silently making every transfer free.
	BandwidthMiBps *float64 `json:"bandwidth_mib_s,omitempty"`
	// LatencyMs sets per-transfer latency in milliseconds (default 0).
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// Topology, when present, replaces the single flat link with a per-site
	// model keyed by each class's site. It requires every class to declare
	// a site and at least two distinct sites to exist.
	Topology *TopologySpec `json:"topology,omitempty"`
}

// ArrivalSpec shapes task submission times. Kind resolves against the
// workload-source registry (see WorkloadSource and ArrivalKinds): "batch"
// and "poisson" are closed sources materialized up front; "diurnal" and
// "trace" are open-loop streaming sources pumped during the simulation from
// a bounded task pool.
type ArrivalSpec struct {
	// Kind selects the arrival source; see ArrivalKinds.
	Kind string `json:"kind"`
	// RatePerS is the mean arrival rate in tasks/second ("poisson"), or the
	// base rate the diurnal cycle modulates ("diurnal").
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// Amplitude is the diurnal modulation depth in [0, 1]: the rate swings
	// between rate·(1−amplitude) and rate·(1+amplitude).
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodS is the diurnal cycle length in seconds (default 86400).
	PeriodS float64 `json:"period_s,omitempty"`
	// PhaseS shifts the diurnal cycle start, in seconds.
	PhaseS float64 `json:"phase_s,omitempty"`
	// TracePath names a compact arrival file for "trace": one inter-arrival
	// gap in seconds per line, blank lines and #-comments skipped (CRLF
	// line endings accepted). scenario.Load inlines the file into TraceS
	// (relative to the spec's directory) so artifacts and cache keys are
	// self-contained.
	TracePath string `json:"trace_path,omitempty"`
	// TraceS is the inlined inter-arrival gap sequence, in seconds. When a
	// spec carries both trace_s and trace_path, the inline gaps win and the
	// path is dropped without being read — inlining is how a loaded spec
	// stays content-addressed, so the inline form is always authoritative.
	TraceS []float64 `json:"trace_s,omitempty"`
	// Repeat tiles the trace until the horizon or the task cap.
	Repeat bool `json:"repeat,omitempty"`
}

// ConstrainedSpec marks a fraction of tasks as capability-constrained: they
// can only run on machines of one class. This is the §4.3 "machine A"
// situation — the axis on which throughput-first and per-job greedy
// placement diverge.
type ConstrainedSpec struct {
	// Fraction of tasks that are constrained, in [0, 1].
	Fraction float64 `json:"fraction"`
	// Class is the only machine class the constrained tasks accept.
	Class string `json:"class"`
}

// GraphSpec makes the workload a dependent task graph instead of a bag of
// independent tasks: a task becomes placeable only when all its parents have
// completed, and placing it on a machine costs the data transfer from each
// parent's host over the actual network link. Graph workloads need a closed
// arrival source (batch or poisson): the graph is part of the generated
// world, which streaming sources do not materialize.
type GraphSpec struct {
	// Kind selects the dependency shape: "chain" (task i-1 → i), "fanout"
	// (a FanOut-ary tree rooted at task 0), or "random" (each task draws
	// edges from a window of earlier tasks with probability EdgeProb).
	Kind string `json:"kind"`
	// FanOut is the tree arity for "fanout" (default 2).
	FanOut int `json:"fan_out,omitempty"`
	// EdgeProb is the per-candidate edge probability for "random", in
	// (0, 1] (default 0.15). Candidates are the 8 preceding tasks.
	EdgeProb float64 `json:"edge_prob,omitempty"`
	// DataMiB sizes the payload a child stages from each parent, in MiB
	// (default 1).
	DataMiB float64 `json:"data_mib,omitempty"`
}

// WorkloadSpec generates the task population.
type WorkloadSpec struct {
	// Tasks is the number of tasks submitted.
	Tasks int `json:"tasks"`
	// Work distributes per-task work units.
	Work Dist `json:"work"`
	// Arrivals shapes submission times.
	Arrivals ArrivalSpec `json:"arrivals"`
	// Graph, when present, links the tasks into a dependency DAG. Only
	// root tasks follow Arrivals; every other task arrives when its last
	// parent completes.
	Graph *GraphSpec `json:"graph,omitempty"`
	// ImageMiB sizes the task image in MiB (migration cost; default 1).
	ImageMiB float64 `json:"image_mib,omitempty"`
	// Checkpointable marks tasks as checkpoint-cooperative.
	Checkpointable bool `json:"checkpointable,omitempty"`
	// Constrained, when present, pins a fraction of tasks to one class.
	Constrained *ConstrainedSpec `json:"constrained,omitempty"`
	// QueueLimit bounds the waiting queue for open-loop sources: an arrival
	// that finds the queue full is rejected at admission and counted in the
	// reject-rate index. Zero means unbounded (the backlog — and with a
	// streaming source, the task pool — then grows with overload).
	QueueLimit int `json:"queue_limit,omitempty"`
}

// OwnerSpec is the workstation-owner churn model: alternating exponential
// idle/busy periods on every machine ("execution of remote tasks is resumed
// when activity of locally initiated tasks diminishes", §4.3).
type OwnerSpec struct {
	// MeanIdleS and MeanBusyS are the mean period lengths in seconds.
	MeanIdleS float64 `json:"mean_idle_s"`
	MeanBusyS float64 `json:"mean_busy_s"`
	// BusyLoad is the local load level while the owner is active
	// (default 1.0).
	BusyLoad float64 `json:"busy_load,omitempty"`
}

// FaultSpec is the machine-failure model: each machine fails independently
// with exponential inter-failure times; a failure kills resident tasks
// (restarting them from their last checkpoint, or scratch) and takes the
// machine down for a repair period.
type FaultSpec struct {
	// MTBFHours is the per-machine mean time between failures, in hours.
	MTBFHours float64 `json:"mtbf_h"`
	// DownS is how long a failed machine stays down, in seconds.
	DownS float64 `json:"down_s"`
}

// PolicyMatrix crosses scheduling policies with migration strategies; each
// cell becomes one concrete instance.
type PolicyMatrix struct {
	// Scheduling lists sched policy names ("greedy-best-fit",
	// "utilization-first").
	Scheduling []string `json:"scheduling"`
	// Migration lists migration strategy names ("none", "suspend",
	// "address-space", "checkpoint", "recompile", "adaptive").
	Migration []string `json:"migration"`
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario in artifacts.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// HorizonS is the simulated duration in seconds (default 3600).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Machines generates the cluster.
	Machines MachineSetSpec `json:"machines"`
	// Workload generates the tasks.
	Workload WorkloadSpec `json:"workload"`
	// Owner, when present, plays owner-activity churn on every machine.
	Owner *OwnerSpec `json:"owner_activity,omitempty"`
	// Faults, when present, injects machine failures.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Policies is the comparison matrix.
	Policies PolicyMatrix `json:"policies"`
	// Runs is how many independent seeds each instance runs (default 5).
	Runs int `json:"runs,omitempty"`
	// Seed is the root seed; every stream derives from it, so equal
	// (spec, seed) reproduce identical indexes.
	Seed uint64 `json:"seed,omitempty"`
	// CheckpointIntervalS is the checkpoint period for the "checkpoint"
	// and "adaptive" strategies, in seconds (default 30).
	CheckpointIntervalS float64 `json:"checkpoint_interval_s,omitempty"`
}

// SchedPolicyNames lists the recognized scheduling policy names.
func SchedPolicyNames() []string {
	return []string{"greedy-best-fit", "utilization-first", "locality"}
}

// MigrationNames lists the recognized migration strategy names.
func MigrationNames() []string {
	return []string{"none", "suspend", "address-space", "checkpoint", "recompile", "adaptive"}
}

// newSchedPolicy resolves a scheduling policy name. The New constructors
// return scratch-carrying policies: one cell's placement rounds run
// serially over one policy value, so repeated Place calls recycle their
// round buffers instead of allocating.
func newSchedPolicy(name string) (sched.Policy, error) {
	switch name {
	case "greedy-best-fit":
		return sched.NewGreedyBestFit(), nil
	case "utilization-first":
		return sched.NewUtilizationFirst(), nil
	case "locality":
		return sched.NewLocality(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown scheduling policy %q (want one of %s)",
			name, strings.Join(SchedPolicyNames(), ", "))
	}
}

// knownMigration reports whether name is a recognized migration strategy.
func knownMigration(name string) bool {
	for _, m := range MigrationNames() {
		if m == name {
			return true
		}
	}
	return false
}

// classDefaults maps class keywords to generated machine-name prefixes and
// default memory.
var classDefaults = map[string]struct {
	prefix   string
	memoryMB int
}{
	"workstation": {"ws", 64},
	"ws":          {"ws", 64},
	"mimd":        {"mimd", 512},
	"simd":        {"simd", 1024},
	"vector":      {"vec", 2048},
}

// Validate checks the spec for structural errors: empty matrices, unknown
// policy or class names, and malformed distributions.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Machines.Classes) == 0 {
		return fmt.Errorf("scenario: %s: machines.classes is empty", s.Name)
	}
	total := 0
	for i, cl := range s.Machines.Classes {
		key := strings.ToLower(strings.TrimSpace(cl.Class))
		if _, ok := classDefaults[key]; !ok {
			return fmt.Errorf("scenario: %s: machines.classes[%d]: unknown class %q (want workstation, mimd, simd or vector)", s.Name, i, cl.Class)
		}
		if cl.Count <= 0 {
			return fmt.Errorf("scenario: %s: machines.classes[%d] (%s): count must be positive, got %d", s.Name, i, cl.Class, cl.Count)
		}
		if cl.Slots < 0 {
			return fmt.Errorf("scenario: %s: machines.classes[%d] (%s): negative slots", s.Name, i, cl.Class)
		}
		if err := cl.Speed.validate(fmt.Sprintf("%s: machines.classes[%d].speed", s.Name, i)); err != nil {
			return err
		}
		total += cl.Count
	}
	// Explicit bandwidth must be positive: netsim treats a zero-bandwidth
	// link as latency-only (free payload), which is an internal-caller
	// convention, not something a spec should be able to ask for silently.
	if bw := s.Machines.BandwidthMiBps; bw != nil && *bw <= 0 {
		return fmt.Errorf("scenario: %s: machines.bandwidth_mib_s must be positive, got %v", s.Name, *bw)
	}
	if s.Machines.LatencyMs < 0 {
		return fmt.Errorf("scenario: %s: negative machines.latency_ms", s.Name)
	}
	if err := s.validateTopology(); err != nil {
		return err
	}
	if s.Workload.Tasks <= 0 {
		return fmt.Errorf("scenario: %s: workload.tasks must be positive, got %d", s.Name, s.Workload.Tasks)
	}
	if err := s.Workload.Work.validate(s.Name + ": workload.work"); err != nil {
		return err
	}
	src, err := WorkloadSourceFor(s.Workload.Arrivals.Kind)
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	if err := src.Validate(s.Name, s.Workload.Arrivals); err != nil {
		return err
	}
	if g := s.Workload.Graph; g != nil {
		switch g.Kind {
		case "chain", "fanout", "random":
		case "":
			return fmt.Errorf("scenario: %s: workload.graph needs a kind (chain, fanout or random)", s.Name)
		default:
			return fmt.Errorf("scenario: %s: workload.graph: unknown kind %q (want chain, fanout or random)", s.Name, g.Kind)
		}
		if src.Streaming() {
			return fmt.Errorf("scenario: %s: workload.graph needs a closed arrival source (batch or poisson), not streaming %q", s.Name, s.Workload.Arrivals.Kind)
		}
		if g.FanOut < 0 {
			return fmt.Errorf("scenario: %s: workload.graph: negative fan_out", s.Name)
		}
		if g.EdgeProb < 0 || g.EdgeProb > 1 {
			return fmt.Errorf("scenario: %s: workload.graph: edge_prob %v outside [0, 1]", s.Name, g.EdgeProb)
		}
		if g.DataMiB < 0 {
			return fmt.Errorf("scenario: %s: workload.graph: negative data_mib", s.Name)
		}
	}
	if s.Workload.QueueLimit < 0 {
		return fmt.Errorf("scenario: %s: negative queue_limit", s.Name)
	}
	if s.Workload.ImageMiB < 0 {
		return fmt.Errorf("scenario: %s: negative image_mib", s.Name)
	}
	if con := s.Workload.Constrained; con != nil {
		if con.Fraction < 0 || con.Fraction > 1 {
			return fmt.Errorf("scenario: %s: constrained.fraction %v outside [0, 1]", s.Name, con.Fraction)
		}
		key := strings.ToLower(strings.TrimSpace(con.Class))
		def, ok := classDefaults[key]
		if !ok {
			return fmt.Errorf("scenario: %s: constrained.class: unknown class %q", s.Name, con.Class)
		}
		present := false
		for _, cl := range s.Machines.Classes {
			if d, ok := classDefaults[strings.ToLower(strings.TrimSpace(cl.Class))]; ok && d.prefix == def.prefix {
				present = true
				break
			}
		}
		if !present {
			return fmt.Errorf("scenario: %s: constrained.class %q has no machines in machines.classes — constrained tasks could never run", s.Name, con.Class)
		}
	}
	if s.Owner != nil {
		if s.Owner.MeanIdleS <= 0 || s.Owner.MeanBusyS <= 0 {
			return fmt.Errorf("scenario: %s: owner_activity needs positive mean_idle_s and mean_busy_s", s.Name)
		}
		if s.Owner.BusyLoad < 0 {
			return fmt.Errorf("scenario: %s: negative owner busy_load", s.Name)
		}
	}
	if s.Faults != nil {
		if s.Faults.MTBFHours <= 0 || s.Faults.DownS <= 0 {
			return fmt.Errorf("scenario: %s: faults need positive mtbf_h and down_s", s.Name)
		}
	}
	if len(s.Policies.Scheduling) == 0 {
		return fmt.Errorf("scenario: %s: policies.scheduling is empty", s.Name)
	}
	for _, name := range s.Policies.Scheduling {
		if _, err := newSchedPolicy(name); err != nil {
			return err
		}
	}
	if len(s.Policies.Migration) == 0 {
		return fmt.Errorf("scenario: %s: policies.migration is empty", s.Name)
	}
	for _, name := range s.Policies.Migration {
		if !knownMigration(name) {
			return fmt.Errorf("scenario: unknown migration strategy %q (want one of %s)",
				name, strings.Join(MigrationNames(), ", "))
		}
	}
	if s.Runs < 0 || s.HorizonS < 0 || s.CheckpointIntervalS < 0 {
		return fmt.Errorf("scenario: %s: negative runs, horizon_s or checkpoint_interval_s", s.Name)
	}
	return s.validateClock()
}

// Bounds on what the engine's clock, a time.Duration of nanoseconds, can
// run: a horizon past maxHorizonS overflows it, and a checkpoint tick
// shorter than minCheckpointIntervalS, or one that fires more than
// maxCheckpointInstants times per run, turns a run into a tick loop that
// never reaches its cancellation point.
const (
	maxHorizonS            = 1e9 // sim caps completion ETAs at the same bound
	minCheckpointIntervalS = 0.001
	maxCheckpointInstants  = 1e5
)

// validateClock rejects horizons and checkpoint intervals the engine's
// clock cannot run, naming the field at fault.
func (s *Spec) validateClock() error {
	if s.HorizonS > maxHorizonS {
		return fmt.Errorf("scenario: %s: horizon_s %g exceeds %g, the longest run the engine's clock can time", s.Name, s.HorizonS, maxHorizonS)
	}
	horizon := s.HorizonS
	if horizon == 0 {
		horizon = defaultHorizonS
	}
	floor := max(minCheckpointIntervalS, horizon/maxCheckpointInstants)
	if iv := s.CheckpointIntervalS; iv > 0 && iv < floor {
		return fmt.Errorf("scenario: %s: checkpoint_interval_s %g is below %g, the larger of %g s and horizon_s %g over %g checkpoint instants",
			s.Name, iv, floor, minCheckpointIntervalS, horizon, float64(maxCheckpointInstants))
	}
	return nil
}

// validateTopology checks the per-site network model: a topology requires
// every class to declare a site and at least two distinct sites (a one-site
// topology is the flat link wearing a costume), link overrides must name
// declared sites, and no parameter may be negative.
func (s *Spec) validateTopology() error {
	sites := make(map[string]bool)
	for _, cl := range s.Machines.Classes {
		if cl.Site != "" {
			sites[cl.Site] = true
		}
	}
	t := s.Machines.Topology
	if t == nil {
		return nil
	}
	for i, cl := range s.Machines.Classes {
		if cl.Site == "" {
			return fmt.Errorf("scenario: %s: machines.topology requires machines.classes[%d] (%s) to declare a site", s.Name, i, cl.Class)
		}
	}
	if len(sites) < 2 {
		return fmt.Errorf("scenario: %s: machines.topology needs at least two distinct sites, got %d", s.Name, len(sites))
	}
	if t.IntraLatencyMs < 0 || t.InterLatencyMs < 0 {
		return fmt.Errorf("scenario: %s: machines.topology: negative latency", s.Name)
	}
	if t.IntraBandwidthMiBps < 0 || t.InterBandwidthMiBps < 0 {
		return fmt.Errorf("scenario: %s: machines.topology: negative bandwidth", s.Name)
	}
	for i, l := range t.Links {
		if !sites[l.A] || !sites[l.B] {
			return fmt.Errorf("scenario: %s: machines.topology.links[%d]: sites %q and %q must both be declared class sites", s.Name, i, l.A, l.B)
		}
		if l.LatencyMs < 0 || l.BandwidthMiBps < 0 {
			return fmt.Errorf("scenario: %s: machines.topology.links[%d]: negative latency or bandwidth", s.Name, i)
		}
	}
	return nil
}

// defaultHorizonS is the simulated duration of a spec without horizon_s.
const defaultHorizonS = 3600

// withDefaults returns a copy with defaulted fields filled in.
func (s *Spec) withDefaults() *Spec {
	out := *s
	if out.HorizonS == 0 {
		out.HorizonS = defaultHorizonS
	}
	if out.Runs == 0 {
		out.Runs = 5
	}
	if out.Machines.BandwidthMiBps == nil {
		out.Machines.BandwidthMiBps = Float64(1)
	}
	if out.Workload.ImageMiB == 0 {
		out.Workload.ImageMiB = 1
	}
	if g := out.Workload.Graph; g != nil {
		c := *g
		if c.FanOut == 0 {
			c.FanOut = 2
		}
		if c.EdgeProb == 0 {
			c.EdgeProb = 0.15
		}
		if c.DataMiB == 0 {
			c.DataMiB = 1
		}
		out.Workload.Graph = &c
	}
	if out.Workload.Arrivals.Kind == "" {
		out.Workload.Arrivals.Kind = "batch"
	}
	if out.Workload.Arrivals.Kind == "diurnal" && out.Workload.Arrivals.PeriodS == 0 {
		out.Workload.Arrivals.PeriodS = defaultDiurnalPeriodS
	}
	if out.CheckpointIntervalS == 0 {
		out.CheckpointIntervalS = 30
	}
	if out.Owner != nil && out.Owner.BusyLoad == 0 {
		o := *out.Owner
		o.BusyLoad = 1
		out.Owner = &o
	}
	return &out
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// typos fail loudly instead of silently running a different scenario.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file. A trace arrival source referencing a
// file (trace_path, resolved relative to the spec's directory) is inlined
// into the spec here, so everything downstream — artifacts, cache keys,
// worker processes — sees a self-contained spec.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if err := s.inlineTrace(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return s, nil
}
