package sim

import (
	"fmt"
	"sort"
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
	"vce/internal/vtime"
)

// ChangeListener observes machine state changes (task arrivals/departures,
// load steps). Load-balancing policies hang off this hook.
type ChangeListener func(m *Machine, now time.Duration)

// Cluster is a simulated VCE network: the machines in registration order
// (a machine's position is its Index), one event kernel and one network
// model. Machines is the fleet itself, not a copy, so a walk
// over it allocates nothing; Machine resolves a name. Change listeners
// (policies, the scenario engine, the auditor) see every state change of
// every machine, in the order the changes happen.
type Cluster struct {
	// Sim is the discrete-event kernel driving everything.
	Sim *vtime.Sim
	// Net models the interconnect (migration and staging costs).
	Net *netsim.Model

	machines  []*Machine
	byName    map[string]*Machine
	listeners []ChangeListener
	changes   int64
	notifying bool
	pending   []*Machine
	// speedOrder caches machines by descending speed (stable on
	// registration order) for AppendIdleMachines; invalidated by AddMachine.
	speedOrder []*Machine
}

// NewCluster returns an empty cluster over a fresh kernel and a 1994-LAN
// network model.
func NewCluster() *Cluster {
	return &Cluster{
		Sim:    vtime.NewSim(),
		Net:    netsim.LAN1994(),
		byName: make(map[string]*Machine),
	}
}

// AddMachine registers a machine.
func (c *Cluster) AddMachine(spec arch.Machine) (*Machine, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("sim: machine needs a name")
	}
	if spec.Speed <= 0 {
		return nil, fmt.Errorf("sim: machine %q needs positive speed", spec.Name)
	}
	if _, dup := c.byName[spec.Name]; dup {
		return nil, fmt.Errorf("sim: duplicate machine %q", spec.Name)
	}
	m := &Machine{cluster: c, index: len(c.machines), Spec: spec, speed: spec.Speed}
	// One completion callback per machine, bound once: rescheduling the
	// completion event never allocates a closure.
	m.completionFn = m.onCompletion
	c.byName[spec.Name] = m
	c.machines = append(c.machines, m)
	c.speedOrder = nil
	return m, nil
}

// Reset recycles the cluster for a fresh simulation over the same fleet:
// the kernel rewinds to virtual time zero (Sim.Reset — every outstanding
// event handle goes inert, the kernel's counters zero and the audit hook
// detaches), every machine returns to its just-registered state
// (Machine.Reset), change listeners are dropped, and the traffic counters
// zero. The machine registry, the kernel's slot arena and every per-machine
// buffer keep their storage, so rebuilding a world on a reset cluster
// allocates almost nothing — the scenario engine's per-worker arena
// recycles whole 10⁴-machine worlds this way. Task records are not the
// cluster's: a task resident at Reset keeps its checkpoint record until its
// owner recycles it (Task.Reset). The network model alone is left as-is —
// it is pure configuration, and callers that vary it per run overwrite it,
// as they do on a fresh cluster.
func (c *Cluster) Reset() {
	c.Sim.Reset()
	for _, m := range c.machines {
		m.Reset()
	}
	c.listeners = c.listeners[:0]
	c.changes = 0
	c.notifying = false
	c.pending = c.pending[:0]
}

// ReplaceSpecs re-specs the registered fleet in place: machine i takes
// specs[i]. The replacement set must match the current fleet name-for-name
// in registration order — this is re-provisioning the same world shape with
// different sampled hardware (the scenario engine's per-run speed draws),
// not growing or renaming the fleet. Call on a reset cluster; live
// residents would otherwise see their host's speed change mid-residency.
func (c *Cluster) ReplaceSpecs(specs []arch.Machine) error {
	if len(specs) != len(c.machines) {
		return fmt.Errorf("sim: ReplaceSpecs got %d specs for a %d-machine fleet", len(specs), len(c.machines))
	}
	for i, spec := range specs {
		if name := c.machines[i].Name(); spec.Name != name {
			return fmt.Errorf("sim: ReplaceSpecs spec %d named %q, machine is %q", i, spec.Name, name)
		}
		if spec.Speed <= 0 {
			return fmt.Errorf("sim: machine %q needs positive speed", spec.Name)
		}
	}
	for i, spec := range specs {
		m := c.machines[i]
		m.Spec = spec
		m.speed = spec.Speed
	}
	c.speedOrder = nil // speeds moved: the cached descending order is stale
	return nil
}

// Machine returns a machine by name.
func (c *Cluster) Machine(name string) (*Machine, bool) {
	m, ok := c.byName[name]
	return m, ok
}

// Machines returns all machines in registration order. The slice is the
// cluster's own: callers read it and must not modify it.
func (c *Cluster) Machines() []*Machine { return c.machines }

// OnChange registers a machine-state listener.
func (c *Cluster) OnChange(l ChangeListener) {
	c.listeners = append(c.listeners, l)
}

// StateChanges returns how many machine state changes (task arrivals and
// departures, load steps, suspension flips) the cluster has seen — a
// telemetry counter for attributing where simulated activity concentrates.
func (c *Cluster) StateChanges() int64 { return c.changes }

// notifyChange fans a machine change out to listeners. Re-entrant changes
// (listeners migrating tasks, which themselves notify) are queued and
// drained iteratively so callbacks observe a consistent world.
func (c *Cluster) notifyChange(m *Machine) {
	c.changes++
	if len(c.listeners) == 0 {
		return
	}
	c.pending = append(c.pending, m)
	if c.notifying {
		return
	}
	c.notifying = true
	defer func() { c.notifying = false }()
	// Index-based FIFO drain: re-entrant notifications append while we
	// iterate, and the buffer's capacity is reused across events instead of
	// being sliced away from the front (which would force an allocation per
	// notification).
	for i := 0; i < len(c.pending); i++ {
		next := c.pending[i]
		now := c.Sim.Now()
		for _, l := range c.listeners {
			l(next, now)
		}
	}
	c.pending = c.pending[:0]
}

// PlayLoadTrace schedules local-load steps on a machine.
func (c *Cluster) PlayLoadTrace(machine string, steps []LoadStep) error {
	m, ok := c.byName[machine]
	if !ok {
		return fmt.Errorf("sim: no machine %q", machine)
	}
	for _, s := range steps {
		load := s.Load
		c.Sim.At(s.At, func() { m.SetLocalLoad(load) })
	}
	return nil
}

// LoadStep is one step of a local-load trace.
type LoadStep struct {
	// At is the virtual time of the step.
	At time.Duration
	// Load is the local load fraction from At onward.
	Load float64
}

// TransferTime exposes the network model for migration strategies.
func (c *Cluster) TransferTime(src, dst string, bytes int64) (time.Duration, error) {
	return c.Net.TransferTime(src, dst, bytes)
}

// AppendIdleMachines appends the machines with local load below threshold
// and no resident remote tasks to dst, by descending speed — the
// free-parallelism harvest set (§4.5) — and returns the extended slice.
// Speeds are fixed at registration, so the speed order is computed once per
// fleet and each call is a filter pass, not a sort; callers reuse one buffer
// across calls (AppendIdleMachines(buf[:0], threshold)).
func (c *Cluster) AppendIdleMachines(dst []*Machine, threshold float64) []*Machine {
	if c.speedOrder == nil && len(c.machines) > 0 {
		c.speedOrder = append([]*Machine(nil), c.machines...)
		sort.SliceStable(c.speedOrder, func(i, j int) bool {
			return c.speedOrder[i].Spec.Speed > c.speedOrder[j].Spec.Speed
		})
	}
	for _, m := range c.speedOrder {
		if m.localLoad < threshold && len(m.ordered) == 0 {
			dst = append(dst, m)
		}
	}
	return dst
}

// LeastLoaded returns the n least-loaded machines admitted by req (what a
// bid round would select), by ascending Load then name.
func (c *Cluster) LeastLoaded(req arch.Requirements, n int) []*Machine {
	var out []*Machine
	for _, m := range c.machines {
		if req.Admits(m.Spec) {
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if li, lj := out[i].Load(), out[j].Load(); li != lj {
			return li < lj
		}
		return out[i].Name() < out[j].Name()
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
