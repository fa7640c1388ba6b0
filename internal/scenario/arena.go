package scenario

import (
	"fmt"
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
	"vce/internal/sched"
	"vce/internal/sim"
)

// runArena executes the (policy, run) cells of one spec. It is bound to a
// validated, defaults-applied spec at construction (newArena) and runCell is
// the only way a cell executes: the executor gives each worker one arena for
// the whole sweep, and RunInstanceContext runs one cell on a single-use
// arena — the from-scratch reference the execution-identity property's
// fresh-arena mode (internal/scenario/check) compares every sweep cell
// against. Cells arrive sequentially, so nothing here is synchronized.
//
// Everything that is constant for the spec resolves once, at construction:
// the workload source and its streaming bit, the horizon, the default link
// and the site topology, the fleet's shape (names, classes, slots — all but
// the per-run speed draws), the placement candidate sets and the payload
// sizes. Two kinds of state then recycle across cells:
//
//   - The generated world of a run index (see world): consecutive cells
//     sharing a run index replay it instead of re-deriving it.
//   - The simulation substrate — the kernel, machine structs, the task
//     record pool and every index-keyed scratch buffer. These reset in place
//     between cells (Cluster.Reset, Task.Recycle discipline), so
//     steady-state sweep execution allocates per-event closures and policy
//     scratch, not worlds.
type runArena struct {
	sp        *Spec
	src       WorkloadSource
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

	// cluster carries the specs of world run clusterRun-1 (0: never built).
	cluster    *sim.Cluster
	clusterRun int
	machines   []*sim.Machine

	pool taskPool

	// acc is the per-run streaming index accumulator, arena-resident so its
	// fixed-shape sketch recycles across cells.
	acc StreamingIndexes

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
	// states backs the cell's fleet snapshot (cell.states), one entry per
	// machine, and stale/isStale its stale set (cell.stale); residents is
	// the checkpoint tick's and the fault handler's resident walk buffer.
	states    []sched.MachineState
	stale     []int
	isStale   []bool
	residents []*sim.Task

	// Per-cell DAG scratch (see prepare): readiness countdown, the instant
	// a task's last parent finished (its effective arrival), the machine
	// that completed it, and the site its dependency data lives at.
	remParents []int32
	readyAt    []time.Duration
	doneHost   []int32
	homeSite   []int32
	submitted  []bool

	// Cached event closures, allocated once per arena position and replayed
	// by every subsequent cell: scheduling a cell's owner steps, arrivals
	// and faults then allocates nothing. Each closure reads current arena
	// state at fire time (and dispatches per-cell behavior to ar.cell), so
	// one closure is valid across worlds and cells; a world with fewer steps
	// or tasks simply schedules a prefix of the cache.
	ownerFns  [][]func()
	arriveFns []func()
	failFns   []func()
	repairFns []func()
	// deliverFns are the per-slot staged-delivery callbacks; deliverTo
	// holds each one's destination machine. A slot stages at most one
	// delivery at a time — its task is neither queued nor resident while
	// the transfer runs — so one entry per slot suffices.
	deliverFns []func()
	deliverTo  []int32

	// cell is the state of the cell being executed; runCell re-initializes
	// it in place, so the cached closures above reach the current cell.
	cell cell
}

// newArena binds an arena to sp, which must be validated with defaults
// applied. A spec the engine cannot run — trace arrivals whose trace_path
// was never inlined — fails here, once, instead of once per cell.
func newArena(sp *Spec) (*runArena, error) {
	src, err := WorkloadSourceFor(sp.Workload.Arrivals.Kind)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", sp.Name, err)
	}
	if a := sp.Workload.Arrivals; a.Kind == "trace" && len(a.TraceS) == 0 {
		return nil, fmt.Errorf("scenario: %s: trace arrivals not inlined — trace_path requires scenario.Load", sp.Name)
	}
	fleet, slots, err := fleetShape(sp.Machines)
	if err != nil {
		return nil, err
	}
	ar := &runArena{
		sp:        sp,
		src:       src,
		streaming: src.Streaming(),
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
		class, err := arch.ParseClass(con.Class)
		if err != nil {
			return nil, err
		}
		for i, m := range fleet {
			if m.Class == class {
				ar.pinnedIDs = append(ar.pinnedIDs, i)
			}
		}
	}
	return ar, nil
}

// ownerFn returns the cached callback for machine mi's si-th owner-trace
// step, growing the cache on first use.
func (ar *runArena) ownerFn(mi, si int) func() {
	for len(ar.ownerFns) <= mi {
		ar.ownerFns = append(ar.ownerFns, nil)
	}
	fns := ar.ownerFns[mi]
	for len(fns) <= si {
		mi, si := mi, len(fns)
		fns = append(fns, func() {
			load := ar.world.ownerSteps[mi][si].Load
			ar.ownerLoad[mi] = load
			if !ar.down[mi] {
				ar.machines[mi].SetLocalLoad(load)
			}
		})
	}
	ar.ownerFns[mi] = fns
	return fns[si]
}

// arriveFn returns the cached arrival callback for task index i.
func (ar *runArena) arriveFn(i int) func() {
	for len(ar.arriveFns) <= i {
		i := len(ar.arriveFns)
		ar.arriveFns = append(ar.arriveFns, func() { ar.cell.submit(i) })
	}
	return ar.arriveFns[i]
}

// failFn and repairFn return machine mi's cached fault callbacks. One
// closure per machine suffices — every failure instant of a machine runs
// the same body — so a fault schedule costs zero allocations to replay.
func (ar *runArena) failFn(mi int) func() {
	for len(ar.failFns) <= mi {
		mi := len(ar.failFns)
		ar.failFns = append(ar.failFns, func() { ar.cell.fail(mi) })
	}
	return ar.failFns[mi]
}

// deliverFn returns slot ti's cached staged-delivery callback, aimed at
// machine hi.
func (ar *runArena) deliverFn(ti, hi int) func() {
	for len(ar.deliverFns) <= ti {
		ti := len(ar.deliverFns)
		ar.deliverFns = append(ar.deliverFns, func() { ar.cell.deliver(ti, int(ar.deliverTo[ti])) })
		ar.deliverTo = append(ar.deliverTo, 0)
	}
	ar.deliverTo[ti] = int32(hi)
	return ar.deliverFns[ti]
}

func (ar *runArena) repairFn(mi int) func() {
	for len(ar.repairFns) <= mi {
		mi := len(ar.repairFns)
		ar.repairFns = append(ar.repairFns, func() { ar.cell.repair(mi) })
	}
	return ar.repairFns[mi]
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
		machines := ar.machines[:0]
		for _, mspec := range ar.world.specs {
			m, err := c.AddMachine(mspec)
			if err != nil {
				return err
			}
			machines = append(machines, m)
		}
		ar.cluster, ar.machines, ar.clusterRun = c, machines, ar.world.run
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
// scratch and accumulator, and a recycled task pool — every record ever
// materialized is free again. A closed cell then takes slots 0..n-1 in task
// order for the world's task bag, so a task's slot is its index (the DAG
// adjacency is keyed by it); a streaming cell starts empty and acquires at
// admission. For DAG workloads the readiness countdowns rebuild from the
// world's adjacency, and completion hosts / affinity sites clear to
// "unknown".
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
	ar.isStale = resetFill(ar.isStale, nm, true)
	ar.stale = ar.stale[:0]
	for i, m := range ar.machines {
		ar.states[i].Machine = m.Spec
		ar.stale = append(ar.stale, i)
	}
	ar.acc.Reset()
	ar.pool.reset()
	for _, g := range ar.world.tasks {
		ar.pool.acquire(g)
	}
	if !ar.dag {
		return nil
	}
	n := len(ar.world.tasks)
	ar.remParents = resetFill(ar.remParents, n, 0)
	for i, ps := range ar.world.parents {
		ar.remParents[i] = int32(len(ps))
	}
	ar.readyAt = resetFill(ar.readyAt, n, 0)
	ar.doneHost = resetFill(ar.doneHost, n, -1)
	ar.homeSite = resetFill(ar.homeSite, n, -1)
	ar.submitted = resetFill(ar.submitted, n, false)
	return nil
}

// poolChunk is the task pool's block size: records allocate in blocks so
// growth never moves existing records (machines hold pointers into them).
// Small, because every cell draws from the pool: a sweep of few-task cells
// builds an arena per worker and should not pay for hundreds of idle records.
const poolChunk = 64

// taskPool is the arena's task record storage, one path for every workload.
// A slot is a pooled sim.Task record plus its per-slot draws and scratch.
// Records live in fixed-size blocks — blocks never move as the pool grows,
// so *sim.Task pointers held by machines stay valid. A streaming cell
// acquires a slot at arrival admission and releases it at completion, so
// live records track the backlog + residents, not the task count; a closed
// cell holds slots 0..n-1 for its whole life and never releases, because
// task ids feed the machines' resident ordering and must not be reused
// within a cell.
type taskPool struct {
	chunks [][]sim.Task
	// free is the recycle stack; created counts slots ever materialized
	// (slot s lives at chunks[s/poolChunk][s%poolChunk]).
	free    []int
	created int
	// live/peak track the cell's live-record high-water mark, the number the
	// bounded-memory smoke asserts on.
	live, peak int

	// ids caches the task ID strings ("task-%03d"), which depend only on the
	// slot. Nothing maps an id back: tasks and queue items carry their slot
	// as Ref.
	ids []string
	// Per-slot state: the draws of the task occupying the slot and whether it
	// was ever placed.
	gens       []taskGen
	everPlaced []bool
}

// reset frees every materialized slot for a new cell. Pop order is
// ascending slot ids, so task IDs assign in arrival order and recycling is
// deterministic.
func (p *taskPool) reset() {
	p.free = p.free[:0]
	for s := p.created - 1; s >= 0; s-- {
		p.free = append(p.free, s)
	}
	p.live, p.peak = 0, 0
}

// task returns the pooled record of slot s.
func (p *taskPool) task(s int) *sim.Task {
	return &p.chunks[s/poolChunk][s%poolChunk]
}

// acquire hands out a free slot for a task with draws g, materializing a
// new one (and its id) when the recycle stack is empty. The
// caller initializes the task record; acquire guarantees clean placement
// scratch.
func (p *taskPool) acquire(g taskGen) int {
	var s int
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = p.created
		p.created++
		if s%poolChunk == 0 {
			p.chunks = append(p.chunks, make([]sim.Task, poolChunk))
		}
		id := fmt.Sprintf("task-%03d", s)
		p.ids = append(p.ids, id)
		p.gens = append(p.gens, taskGen{})
		p.everPlaced = append(p.everPlaced, false)
	}
	p.gens[s] = g
	p.everPlaced[s] = false
	p.live++
	if p.live > p.peak {
		p.peak = p.live
	}
	return s
}

// release returns a completed task's slot to the pool.
func (p *taskPool) release(s int) {
	p.live--
	p.free = append(p.free, s)
}
