package scenario

import (
	"fmt"
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
	"vce/internal/sched"
	"vce/internal/sim"
)

// runArena executes the (policy, run) cells of one spec, one at a time: it
// is the engine object of one worker. It is bound to a validated,
// defaults-applied spec at construction (newArena) and runCell is the only
// way a cell executes: the executor gives each worker one arena for the
// whole sweep, and RunInstanceContext runs one cell on a single-use arena —
// the from-scratch reference the execution-identity property's fresh-arena
// mode (internal/scenario/check) compares every sweep cell against. Cells
// arrive sequentially, so nothing here is synchronized.
//
// Everything that is constant for the spec resolves once, at construction:
// the arrival kind's streaming bit, the horizon, the default link
// and the site topology, the fleet's shape (names, classes, slots — all but
// the per-run speed draws), the placement candidate sets, the payload sizes
// and the handlers the kernel and the cluster call back. Two kinds of state
// then recycle across cells:
//
//   - The generated world of a run index (see world): consecutive cells
//     sharing a run index replay it instead of re-deriving it.
//   - The simulation substrate — the kernel, machine structs, the task
//     pool and every machine-keyed scratch buffer. These reset in place
//     between cells (Cluster.Reset, Task.Reset discipline), so
//     steady-state sweep execution allocates per-cell policies, not worlds.
//
// The state of the executing cell is the embedded cell, and the event
// handlers are the arena's methods (cell.go).
type runArena struct {
	sp        *Spec
	streaming bool
	dag       bool // workload.graph is set
	horizon   time.Duration
	// net is the network model every cell's cluster uses — pure per-spec
	// configuration no cell mutates: the flat default link, with topo's
	// per-site-pair resolver layered on top. topo is nil for flat (site-less)
	// machine sets. A one-site topology is deliberately not how flat specs are
	// expressed: it would set HomeSite on DAG items and switch Locality from
	// greedy placement to its wait/forward/drop triad, which is not bit-exact
	// with flat engines.
	net  *netsim.Model
	topo *siteTopology
	// locCost prices the workload's dominant payload — the dependency edge
	// for DAG workloads, the task image otherwise — between every site pair:
	// the locality policy's forwarding-cost input. nil without a topology.
	locCost    [][]float64
	imageBytes int64
	edgeBytes  int64

	// fleet is the machine set with every spec-determined field filled in
	// and Speed zero (each run's world samples speeds); slots is the
	// per-machine task capacity.
	fleet []arch.Machine
	slots []int
	// Candidate sets. Portable tasks accept every machine; constrained tasks
	// only their pinned class. The sets are machine positions
	// (Machine.Index), which the placement policies resolve by indexing the
	// cell's fleet snapshot, without hashing a name.
	allIDs    []int
	pinnedIDs []int

	world world

	// cluster carries the specs of world run clusterRun-1 (0: never built);
	// machines is its fleet (Cluster.Machines), so machine i is the one
	// with Index i.
	cluster    *sim.Cluster
	clusterRun int
	machines   []*sim.Machine

	pool taskPool

	// Per-cell scratch, index-keyed by machine. down marks failed machines;
	// ownerLoad remembers the owner trace's current level so repair restores
	// the owner's load, not idle, and a trace step during an outage is
	// deferred instead of reviving the machine. Both are keyed by
	// Machine.Index: these are consulted on every machine-change
	// notification, so no name hashing on that path.
	down      []bool
	ownerLoad []float64
	// inflight counts per-machine deliveries in transit (DAG data staging):
	// capacity the placement snapshot reserves so a transfer never lands on
	// a slot a later placement round already spent.
	inflight []int
	// states is the cell's one fleet snapshot, built by prepare: entry i is
	// machines[i], so a machine's placement id is its position. A pass
	// re-derives Slots and Load (freeSlots, Machine.Load) only for the
	// machines in the stale set, and PlaceWaiting spends Slots as it
	// assigns. free is the sum of every entry's Slots, the round's budget.
	states []sched.MachineState
	free   int
	// stale lists, once each (isStale marks membership), the machines whose
	// entry may no longer be what freeSlots and Machine.Load would derive.
	// Every write to what those read marks its machine (markStale lists the
	// writers), so a pass touches only what changed. changed lists the
	// positions refreshStale re-derived since the last PlaceWaiting, the
	// policy's cue to rescore them; a pass that stops before placing keeps
	// them for the next one, so a position may repeat.
	stale   []int
	isStale []bool
	changed []int
	// residents is the fault handler's walk buffer (a failure kills every
	// resident, so it walks a copy).
	residents []*sim.Task
	// policies holds one placement policy per scheduling name the arena
	// has run, so a cell's queue, score column and site splits reuse the
	// previous cell's storage (policy).
	policies []sched.Policy

	// The handlers the kernel and the cluster call back, bound once: the
	// pending world event (worldEvent), a task's completion (taskDone, every
	// pooled record's OnDone), the streaming arrival pump (pump) and the
	// placement change listener (machineChanged).
	worldFn  func()
	onDone   func(*sim.Task, time.Duration)
	pumpFn   func()
	changeFn sim.ChangeListener

	// cell is the state of the cell being executed; startCell resets it.
	cell
}

// newArena binds an arena to sp, which must be validated with defaults
// applied: every name it resolves — arrival kind, machine classes,
// policies — is one Validate accepted.
func newArena(sp *Spec) *runArena {
	fleet, slots := fleetShape(sp.Machines)
	ar := &runArena{
		sp:        sp,
		streaming: sp.Workload.Arrivals.Streaming(),
		dag:       sp.Workload.Graph != nil,
		horizon:   time.Duration(sp.HorizonS * float64(time.Second)),
		net: netsim.New(netsim.Link{
			Latency:   time.Duration(sp.Machines.LatencyMs * float64(time.Millisecond)),
			Bandwidth: *sp.Machines.BandwidthMiBps * (1 << 20),
		}),
		topo:       buildTopology(&sp.Machines, fleet),
		imageBytes: int64(sp.Workload.ImageMiB * (1 << 20)),
		fleet:      fleet,
		slots:      slots,
	}
	ar.worldFn, ar.onDone, ar.pumpFn, ar.changeFn = ar.worldEvent, ar.taskDone, ar.pump, ar.machineChanged
	payload := ar.imageBytes
	if g := sp.Workload.Graph; g != nil {
		ar.edgeBytes = int64(g.DataMiB * (1 << 20))
		payload = ar.edgeBytes
	}
	if ar.topo != nil {
		// Machine pairs with declared positions price by their site-pair
		// link; everything else (nothing, today) falls back to the default.
		ar.net.SetResolver(ar.topo.resolver())
		ar.locCost = ar.topo.costMatrix(payload)
	}
	// Machines register in fleet order, so Machine.Index is the position.
	for i := range fleet {
		ar.allIDs = append(ar.allIDs, i)
	}
	if con := sp.Workload.Constrained; con != nil {
		class, _ := arch.ParseClass(con.Class)
		for i, m := range fleet {
			if m.Class == class {
				ar.pinnedIDs = append(ar.pinnedIDs, i)
			}
		}
	}
	return ar
}

// growSlices resizes a slice-of-slices to n entries with every inner slice
// emptied in place (capacity kept).
func growSlices[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// resetFill resizes a scratch slice to n with every entry set to v.
func resetFill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// resetCluster provides a clean cluster whose registered fleet carries the
// current world's specs: a fresh build on first use, Cluster.Reset (plus
// ReplaceSpecs when the run changed) afterwards. A failed build or re-spec
// leaves the arena as it was, so the next cell fails the same way instead of
// running on a half-provisioned fleet.
func (ar *runArena) resetCluster() error {
	if ar.cluster == nil {
		c := sim.NewCluster()
		c.Net = ar.net // Reset leaves the network model in place
		for _, mspec := range ar.world.specs {
			if _, err := c.AddMachine(mspec); err != nil {
				return err
			}
		}
		ar.cluster, ar.machines, ar.clusterRun = c, c.Machines(), ar.world.run
		return nil
	}
	ar.cluster.Reset()
	if ar.clusterRun != ar.world.run {
		if err := ar.cluster.ReplaceSpecs(ar.world.specs); err != nil {
			return err
		}
		ar.clusterRun = ar.world.run
	}
	return nil
}

// prepare readies the substrate for one cell of run: the run's world, a
// clean cluster carrying its specs and network model, cleared per-cell
// scratch and fleet snapshot, and a recycled task pool — every
// slot ever materialized is free again. A closed cell then takes slots
// 0..n-1 in task order for the world's task bag, so a task's slot is its
// index (the DAG adjacency is keyed by it); a streaming cell starts empty
// and acquires at admission. For DAG workloads each slot's readiness
// countdown is its task's parent count.
func (ar *runArena) prepare(run int) error {
	ar.generateWorld(run)
	if err := ar.resetCluster(); err != nil {
		return err
	}
	nm := len(ar.machines)
	ar.down = resetFill(ar.down, nm, false)
	ar.ownerLoad = resetFill(ar.ownerLoad, nm, 0)
	ar.inflight = resetFill(ar.inflight, nm, 0)
	// The cell's fleet snapshot starts with nothing free and every machine
	// stale; the first pass fills each machine's Slots. Specs are per run,
	// so it is rebuilt here.
	ar.states = resetFill(ar.states, nm, sched.MachineState{})
	ar.free = 0
	ar.isStale = resetFill(ar.isStale, nm, true)
	ar.stale, ar.changed = ar.stale[:0], ar.changed[:0]
	for i, m := range ar.machines {
		ar.states[i].Machine = m.Spec
		ar.stale = append(ar.stale, i)
	}
	ar.pool.reset()
	for i, g := range ar.world.tasks {
		sl := ar.pool.slot(ar.acquire(g))
		if ar.dag {
			sl.remParents = int32(len(ar.world.parents[i]))
		}
	}
	return nil
}

// poolChunk is the task pool's block size: slots allocate in blocks so
// growth never moves existing records (machines hold pointers into them).
// Small, because every cell draws from the pool: a sweep of few-task cells
// builds an arena per worker and should not pay for hundreds of idle slots.
const poolChunk = 64

// slot is one pooled task record and every per-task fact the engine keeps
// beside it. What names the record — ID, Ref, image size,
// checkpointability, the completion callback — and the delivery callback
// are set once, when the slot is materialized (acquire), and Task.Reset
// keeps them; the rest describes the slot's current tenant.
type slot struct {
	task sim.Task
	// gen is the tenant's draws; submit sets its arrival to the instant the
	// task entered the system.
	gen        taskGen
	everPlaced bool
	// DAG state: the parents not yet complete, the machine that completed
	// the task and the site its dependency data lives at (-1: unknown).
	remParents int32
	doneHost   int32
	homeSite   int32
	// deliverTo is the destination of the tenant's staged delivery, which
	// deliver lands. A slot stages at most one delivery at a time — its
	// task is neither queued nor resident while the transfer runs.
	deliverTo int32
	deliver   func()
}

// taskPool is the arena's task storage, one path for every workload. Slots
// live in fixed-size blocks — blocks never move as the pool grows, so
// *sim.Task pointers held by machines stay valid. Every cell releases a
// slot when its task completes or is dropped. A streaming cell acquires a
// slot at arrival admission, so live slots track the backlog + residents,
// not the task count; a closed cell acquires slots 0..n-1 in prepare and
// never after, so no id is reused within a cell — task ids feed the
// machines' resident ordering. Nothing maps an id back: tasks and queue
// items carry their slot as Ref.
type taskPool struct {
	chunks [][]slot
	// free is the recycle stack; created counts slots ever materialized
	// (slot s lives at chunks[s/poolChunk][s%poolChunk]). A slot is created
	// only when none is free, so created is the high-water mark of the
	// arena's held slots.
	free    []int
	created int
}

// reset frees every materialized slot for a new cell. Pop order is
// ascending slot ids, so task IDs assign in arrival order and recycling is
// deterministic.
func (p *taskPool) reset() {
	p.free = p.free[:0]
	for s := p.created - 1; s >= 0; s-- {
		p.free = append(p.free, s)
	}
}

// slot returns slot s.
func (p *taskPool) slot(s int) *slot {
	return &p.chunks[s/poolChunk][s%poolChunk]
}

// release returns a completed or dropped task's slot to the pool.
func (p *taskPool) release(s int) {
	p.free = append(p.free, s)
}

// acquire hands out a free slot for a tenant with draws g, materializing a
// new one when the recycle stack is empty, and returns its index. The new
// tenant starts never placed, with no completion host or data site.
func (ar *runArena) acquire(g taskGen) int {
	p := &ar.pool
	var s int
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = p.created
		p.created++
		if s%poolChunk == 0 {
			p.chunks = append(p.chunks, make([]slot, poolChunk))
		}
		sl := p.slot(s)
		sl.task = sim.Task{
			ID: fmt.Sprintf("task-%03d", s), Ref: s,
			ImageBytes: ar.imageBytes, Checkpointable: ar.sp.Workload.Checkpointable, OnDone: ar.onDone,
		}
		sl.deliver = func() { ar.deliver(s) }
	}
	sl := p.slot(s)
	sl.gen, sl.everPlaced, sl.doneHost, sl.homeSite = g, false, -1, -1
	return s
}

// policy returns the arena's placement policy of the given name, emptied
// for a new cell. A reset policy places exactly as a new one does.
func (ar *runArena) policy(name string) sched.Policy {
	for _, p := range ar.policies {
		if p.Name() == name {
			p.Reset()
			return p
		}
	}
	build, _ := lookup(schedPolicies, name)
	p := build()
	ar.policies = append(ar.policies, p)
	return p
}
