package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vce/internal/compilemgr"
	"vce/internal/loadbalance"
	"vce/internal/migrate"
	"vce/internal/obs"
	"vce/internal/rng"
	"vce/internal/sched"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vtime"
)

// AuditError reports engine-invariant violations recorded by an audited run
// (see Options.Audit).
type AuditError struct {
	// Instance and Run locate the violating cell.
	Instance string
	Run      int
	// Violations are the auditor's messages; Dropped counts messages beyond
	// the auditor's retention cap.
	Violations []string
	Dropped    int
}

func (e *AuditError) Error() string {
	// No "scenario: <instance> run <n>" prefix here: the executor wraps
	// collected run errors with exactly that context, and direct callers
	// have the Instance/Run fields.
	msg := "engine audit failed:\n  " + strings.Join(e.Violations, "\n  ")
	if e.Dropped > 0 {
		msg += fmt.Sprintf("\n  ... and %d more violations", e.Dropped)
	}
	return msg
}

// RunInstanceContext executes one instance for one run index and returns its
// indexes. It is deterministic: equal (spec, instance, run) yield equal
// indexes. A cancelled or expired ctx halts the discrete-event loop before
// its next virtual instant and returns ctx's error; an uncancelled one
// changes nothing — the kernel's halt request is outside the simulation.
//
// The cell runs on a single-use arena: a fully isolated world — its own
// event kernel, cluster, machines, policies and derived random streams —
// built from scratch, so concurrent calls share no mutable state. That makes
// it the from-scratch reference for the sweep executor, whose workers run
// the same runCell on arenas they recycle across cells.
func RunInstanceContext(ctx context.Context, inst Instance, run int) (Indexes, error) {
	sp := inst.Spec.withDefaults()
	if err := sp.Validate(); err != nil {
		return Indexes{}, err
	}
	ar, err := newArena(sp)
	if err != nil {
		return Indexes{}, err
	}
	return ar.runCell(ctx, inst.Sched, inst.Migration, run, false, nil)
}

// cell is the state of one executing (policy, run) cell: the policies under
// comparison (the scheduling policy holds the placement queue) and the
// counters behind the indexes. Its methods are the event handlers of the
// simulation. It lives in the arena (runArena.cell) and is re-initialized
// per cell.
type cell struct {
	ar *runArena
	cl *sim.Cluster
	// acc is the run's one-pass index accumulator: completions, rejections
	// and queue-depth changes fold in as events fire, so measurement state
	// is fixed-size however many tasks the cell absorbs.
	acc *StreamingIndexes

	key string // "sched/migration", for error messages
	run int

	pol sched.Policy
	loc *sched.Locality // pol, when it is the locality policy
	ck  *migrate.Checkpointer
	lb  *loadbalance.VCEMigrate
	// stealth is the cell's suspension rule: its own policy under
	// "suspend", lb's embedded one under a migrating strategy.
	stealth *loadbalance.Stealth
	onDone  func(*sim.Task, time.Duration)

	// states is the cell's one fleet snapshot, built by prepare: entry i
	// is ar.machines[i], so a machine's placement id is its position. A
	// pass re-derives Slots and Load (freeSlots, Machine.Load) only for the
	// machines in the stale set, and PlaceWaiting spends Slots as it
	// assigns. free is the sum of every entry's Slots, the round's budget.
	states []sched.MachineState
	free   int
	// stale lists, once each (isStale marks membership), the machines
	// whose entry may no longer be what freeSlots and Machine.Load would
	// derive. Every write to what those read marks its machine (markStale
	// lists the writers), so a pass touches only what changed.
	stale   []int
	isStale []bool
	// changed lists the positions refreshStale re-derived since the last
	// PlaceWaiting, the policy's cue to rescore them. A pass that stops
	// before placing keeps them for the next one, so a position may repeat.
	changed []int
	// auditor, set on audited runs, receives a violation for every entry
	// (and the free total) a pass finds different from a full re-derivation.
	auditor *sim.Auditor
	// tryPlace is re-entered through cluster change notifications (AddTask
	// fires OnChange, which calls tryPlace): the guard collapses re-entrant
	// calls into one extra pass after the current one finishes, so every
	// pass works from a fresh free-slot snapshot and machines are never
	// over-subscribed past their Slots.
	placing    bool
	placeAgain bool

	// Affinity accounting: affine counts first placements of tasks with a
	// known data site, forwarded those placed off it; xferWaitS integrates
	// time spent staging dependency data.
	affine, forwarded int
	xferWaitS         float64
	dagErr            error
	failed            int64
	// offered counts the tasks that arrived: submitted, or refused at a
	// streaming cell's bounded queue. The rest of the workload never
	// arrived, and measure rejects it.
	offered int

	// next is the position in world.events of the cell's one pending world
	// event, and worldSeq the kernel sequence number reserved for each tie
	// block (worldEventKind.block).
	next     int
	worldSeq [2]int64

	// Open-loop arrival pump state (streaming cells).
	cursor  ArrivalCursor
	workRng *rng.Source
	conRng  *rng.Source
	pumpFn  func()
}

// runCell executes one cell of the arena's spec — the only execution path.
// A non-nil tr attaches run telemetry: wall-clock phase attribution (setup
// / simulate / measure) plus the kernel's traffic counters, recorded into
// tr for the executor to fold into the sweep recorder. Telemetry only
// observes — with tr == nil (the default and the production path) no clock
// is read and the kernel's stats hook stays detached, and either way the
// returned Indexes are identical. audit attaches the engine invariant
// auditor to the run's kernel (sim.AttachAuditor): virtual-time
// monotonicity, conservation of work and per-task progress sanity are
// re-derived event by event, and any violation fails the run with an
// *AuditError; the auditor observes without perturbing, so a clean audited
// run returns bitwise-identical indexes.
//
// The kernel breaks time ties by sequence number, so the order in which
// setup takes numbers is part of the result: one reserved for owner steps
// and closed arrivals, the first pump, the first checkpoint tick
// (Checkpointer.Start), the OnChange registration, one reserved for faults
// and repairs. A world event is armed late, under its block's reserved
// number (armWorld), and so ties as if setup had scheduled it. Change
// listeners run in registration order: the auditor's, the migration
// policy's (attachPolicies), then the cell's placement listener.
func (ar *runArena) runCell(ctx context.Context, schedName, migration string, run int, audit bool, tr *obs.RunTrace) (Indexes, error) {
	var kstats vtime.Stats
	var phaseAt time.Time
	if tr != nil {
		phaseAt = time.Now()
	}
	if err := ctx.Err(); err != nil {
		return Indexes{}, err
	}
	if err := ar.prepare(run); err != nil {
		return Indexes{}, err
	}
	cl := ar.cluster
	if tr != nil {
		cl.Sim.SetStats(&kstats)
	}
	var auditor *sim.Auditor
	if audit {
		auditor = sim.AttachAuditor(cl)
	}
	c, err := ar.startCell(schedName, migration, run)
	if err != nil {
		return Indexes{}, err
	}
	c.auditor = auditor

	// ctx's end halts the kernel from whichever goroutine ends it. The halt
	// request never touches world state or random streams, so indexes are
	// unchanged when ctx survives.
	stop := context.AfterFunc(ctx, cl.Sim.Halt)
	if tr != nil {
		now := time.Now()
		tr.Setup = now.Sub(phaseAt)
		phaseAt = now
	}
	end := cl.Sim.RunUntil(ar.horizon)
	stop()
	if tr != nil {
		now := time.Now()
		tr.Simulate = now.Sub(phaseAt)
		phaseAt = now
	}
	// Only a run the halt actually truncated is discarded: a context that
	// expires after the final event has run leaves the indexes complete and
	// valid, and throwing them away would shrink partial reports for no
	// reason.
	if end < ar.horizon {
		return Indexes{}, ctx.Err()
	}
	if auditor != nil {
		auditor.Finish()
		if v := auditor.Violations(); len(v) > 0 {
			return Indexes{}, &AuditError{
				Instance: c.key, Run: run,
				Violations: v, Dropped: auditor.Dropped,
			}
		}
	}
	if c.dagErr != nil {
		return Indexes{}, c.dagErr
	}
	idx := c.measure(end)
	if tr != nil {
		tr.Measure = time.Since(phaseAt)
		tr.Kernel = obs.KernelCounters{
			Scheduled:    kstats.Scheduled,
			Fired:        kstats.Fired,
			Cancelled:    kstats.Cancelled,
			AuditCalls:   kstats.AuditCalls,
			HeapMax:      kstats.HeapMax,
			StateChanges: cl.StateChanges(),
		}
	}
	return idx, nil
}

// startCell makes ar.cell a new cell on the prepared substrate: it attaches
// the cell's policies, schedules its setup-time events in the order runCell
// documents, and arms the world's first event.
func (ar *runArena) startCell(schedName, migration string, run int) (*cell, error) {
	sp, cl := ar.sp, ar.cluster
	c := &ar.cell
	*c = cell{
		ar: ar, cl: cl, acc: &ar.acc,
		key: schedName + "/" + migration, run: run,
		states: ar.states, stale: ar.stale, isStale: ar.isStale,
		changed: c.changed[:0], // the previous cell's storage
	}
	c.onDone = c.taskDone
	c.worldSeq[0] = cl.Sim.Reserve()
	if err := c.attachPolicies(schedName, migration); err != nil {
		return nil, err
	}
	c.acc.NoteQueueDepth(0, 0)
	if ar.streaming {
		c.startPump()
	}
	// One checkpoint cadence per cell (§4.4 "migratable jobs checkpoint
	// regularly"). A cell's tasks are checkpointable all or none.
	if c.ck != nil && sp.Workload.Checkpointable {
		c.ck.Start(cl)
	}
	// Every change makes its machine's snapshot entry stale, and a change
	// to a machine that takes work gets a pass: owner departures and
	// completions free capacity. A pass with nothing new to place costs a
	// visit per candidate set.
	cl.OnChange(func(m *sim.Machine, _ time.Duration) {
		i := m.Index()
		c.markStale(i)
		if c.takesWork(i) {
			c.tryPlace()
		}
	})
	c.worldSeq[1] = cl.Sim.Reserve()
	c.armWorld()
	return c, nil
}

// armWorld schedules the world's next event, if one is left, under its
// block's reserved number. A checkpoint tick re-arms while anything is
// pending, so it keeps ticking while a world event remains.
func (c *cell) armWorld() {
	evs := c.ar.world.events
	if c.next == len(evs) {
		return
	}
	e := &evs[c.next]
	c.cl.Sim.AtSeq(e.at, c.worldSeq[e.kind.block()], c.ar.worldFn)
}

// worldEvent applies the pending world event and arms the next one. An owner
// step during an outage only moves the level repair restores.
func (c *cell) worldEvent() {
	ar := c.ar
	e := &ar.world.events[c.next]
	c.next++
	switch i := int(e.i); e.kind {
	case evOwner:
		ar.ownerLoad[i] = e.load
		if !ar.down[i] {
			ar.machines[i].SetLocalLoad(e.load)
		}
	case evArrive:
		c.submit(i)
	case evFail:
		c.fail(i)
	case evRepair:
		c.repair(i)
	}
	c.armWorld()
}

// attachPolicies resolves the cell's scheduling policy and attaches its
// migration strategy to the cluster.
func (c *cell) attachPolicies(schedName, migration string) error {
	ar, sp, cl := c.ar, c.ar.sp, c.cl
	pol, err := ar.policy(schedName)
	if err != nil {
		return err
	}
	c.pol = pol
	c.loc, _ = pol.(*sched.Locality)
	// Only DAG items carry a home site (newItem). Elsewhere Locality places
	// every item greedily either way, and without a topology its round
	// skips the walk over every item that its backlog counters need.
	if c.loc != nil && ar.dag && ar.topo != nil {
		c.loc.SetTopology(ar.topo.siteOf, ar.locCost)
	}

	attachMigrate := func(strategy migrate.Strategy) {
		c.lb = loadbalance.NewVCEMigrate(strategy)
		c.lb.Attach(cl)
		c.stealth = &c.lb.Stealth
	}
	newRecompile := func() *migrate.Recompile {
		return &migrate.Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second, PerMiB: time.Second}}
	}
	ckInterval := time.Duration(sp.CheckpointIntervalS * float64(time.Second))
	switch migration {
	case "none":
	case "suspend":
		c.stealth = loadbalance.NewStealth()
		c.stealth.Attach(cl)
	case "address-space":
		attachMigrate(migrate.AddressSpace{})
	case "checkpoint":
		c.ck = migrate.NewCheckpointer(ckInterval)
		attachMigrate(c.ck)
	case "recompile":
		attachMigrate(newRecompile())
	case "adaptive":
		c.ck = migrate.NewCheckpointer(ckInterval)
		picker, err := migrate.NewPicker(migrate.AddressSpace{}, c.ck, newRecompile())
		if err != nil {
			return err
		}
		attachMigrate(picker)
	default:
		return fmt.Errorf("scenario: unknown migration strategy %q", migration)
	}
	return nil
}

// startPump starts a streaming cell's open-loop arrival pump: a
// self-scheduling event draws the next instant from the source cursor and
// admits or rejects the arrival against the bounded queue.
func (c *cell) startPump() {
	sp := c.ar.sp
	root := derivedStreams(sp, c.run)
	c.cursor = c.ar.src.Cursor(sp.Workload.Arrivals, root.Derive("arrivals"))
	c.workRng = root.Derive("work")
	if sp.Workload.Constrained != nil {
		c.conRng = root.Derive("constraints")
	}
	c.pumpFn = c.pump
	c.scheduleNext()
}

func (c *cell) scheduleNext() {
	if c.offered >= c.ar.sp.Workload.Tasks {
		return
	}
	if at, ok := c.cursor(); ok && at < c.ar.horizon {
		c.cl.Sim.At(at, c.pumpFn)
	}
}

// pump is one streaming arrival. The work and constraint draws always
// happen — even for a rejected arrival — so every cell of the run consumes
// the derived streams identically whatever its queue state.
func (c *cell) pump() {
	w := &c.ar.sp.Workload
	g := taskGen{work: w.Work.Sample(c.workRng), arrival: c.cl.Sim.Now()}
	g.constrained = c.conRng != nil && c.conRng.Bool(w.Constrained.Fraction)
	if w.QueueLimit > 0 && c.pol.Len() >= w.QueueLimit {
		c.offered++
		c.acc.TaskRejected()
	} else {
		c.submit(c.ar.pool.acquire(g))
	}
	c.scheduleNext()
}

// candsFor returns slot i's admissible machines as dense ids.
func (c *cell) candsFor(i int) []int {
	if c.ar.pool.gens[i].constrained {
		return c.ar.pinnedIDs
	}
	return c.ar.allIDs
}

// newItem builds the placement-queue entry for slot i with the
// data-affinity site riding along: the one way a task joins the queue, for
// submission, the transfer bounce and the fault requeue.
func (c *cell) newItem(i int, work float64) sched.Item {
	ar := c.ar
	it := sched.Item{Task: taskgraph.TaskID(ar.pool.ids[i]), Ref: i, CandidateIDs: c.candsFor(i), Work: work}
	if ar.dag && ar.topo != nil && ar.homeSite[i] >= 0 {
		it.HomeSite = int(ar.homeSite[i]) + 1
	}
	return it
}

// submit enters slot i's task into the system: the pooled record is
// re-initialized and the task joins the placement queue.
func (c *cell) submit(i int) {
	ar := c.ar
	g := &ar.pool.gens[i]
	t := ar.pool.task(i)
	if err := t.Reset(); err != nil {
		// Impossible by construction: completion detaches the record
		// before OnDone returns its slot, and Cluster.Reset detaches
		// residents between cells.
		panic(err)
	}
	t.ID, t.Ref, t.Work = ar.pool.ids[i], i, g.work
	t.ImageBytes, t.Checkpointable, t.OnDone = ar.imageBytes, ar.sp.Workload.Checkpointable, c.onDone
	c.offered++
	if ar.dag {
		ar.readyAt[i] = c.cl.Sim.Now()
	}
	c.pol.Enqueue(c.newItem(i, g.work))
	c.tryPlace()
}

// stageDelay is the data-staging time a DAG placement pays before the task
// can start: the slowest transfer of the edge payload from any parent's
// completion host over the actual network link. Co-located parents (and
// root tasks) stage for free.
func (c *cell) stageDelay(ti, hi int) time.Duration {
	ar := c.ar
	if !ar.dag {
		return 0
	}
	var d time.Duration
	dst := ar.machines[hi].Name()
	for _, p := range ar.world.parents[ti] {
		ph := ar.doneHost[p]
		if ph < 0 || int(ph) == hi {
			continue
		}
		t, err := c.cl.Net.TransferTime(ar.machines[ph].Name(), dst, ar.edgeBytes)
		if err == nil && t > d {
			d = t
		}
	}
	return d
}

// notePlaced marks a task placed and, on its first placement, folds it into
// the affinity accounting behind forwarded_pct.
func (c *cell) notePlaced(ti, hi int) {
	ar := c.ar
	if ar.dag && ar.topo != nil && !ar.pool.everPlaced[ti] && ar.homeSite[ti] >= 0 {
		c.affine++
		if ar.topo.siteOf[hi] != int(ar.homeSite[ti]) {
			c.forwarded++
		}
	}
	ar.pool.everPlaced[ti] = true
}

// settle is tryPlace's outermost exit, where the queue has settled for this
// event: record its depth for the time-weighted backlog integral.
func (c *cell) settle() {
	c.placing = false
	c.acc.NoteQueueDepth(c.cl.Sim.Now(), c.pol.Len())
}

// takesWork reports whether machine i accepts new tasks: it is up and its
// owner is not active (local load below loadbalance.Hi, the DAWGS
// idle-placement discipline). A machine the engine refuses work is exactly
// one the migration policies evacuate; its residents are their problem.
func (c *cell) takesWork(i int) bool {
	return !c.ar.down[i] && c.ar.machines[i].LocalLoad() < loadbalance.Hi
}

// freeSlots derives machine i's snapshot capacity: its free slots less the
// deliveries in transit to it (DAG data staging reserves its slot up front,
// so a later placement round can't spend it), and 0 for a machine that
// takes no work.
func (c *cell) freeSlots(i int) int {
	ar := c.ar
	if !c.takesWork(i) {
		return 0
	}
	return max(0, ar.slots[i]-ar.machines[i].RemoteTasks()-ar.inflight[i])
}

// markStale adds machine i to the stale set. The writers of what
// freeSlots and Machine.Load read, and where each marks:
//   - every change notification (a placement, completion, kill or owner
//     step), in the listener before its gates;
//   - the completing host, in taskDone: OnDone fires before that machine's
//     notification, and the completion's own passes must see the freed slot;
//   - every machine a pass assigned to: Place left its in-round Load
//     estimate in the entry, and the AddTask notification can queue behind
//     the next pass;
//   - deliver (inflight), fail and repair (down);
//   - cell start (prepare lists every machine).
func (c *cell) markStale(i int) {
	if !c.isStale[i] {
		c.isStale[i] = true
		c.stale = append(c.stale, i)
	}
}

// refreshStale re-derives the stale machines' snapshot entries, keeps free
// in step and lists the entries as changed. A policy never reads the Load
// of a machine without a free slot, so theirs is not derived.
func (c *cell) refreshStale() {
	machines := c.ar.machines
	c.changed = append(c.changed, c.stale...)
	for _, i := range c.stale {
		c.isStale[i] = false
		st := &c.states[i]
		n := c.freeSlots(i)
		if n > 0 {
			st.Load = machines[i].Load()
		}
		c.free += n - st.Slots
		st.Slots = n
	}
	c.stale = c.stale[:0]
}

// auditSnapshot re-derives every snapshot entry and the free total, and
// reports each disagreement with the stale-set snapshot as a violation.
func (c *cell) auditSnapshot() {
	free := 0
	for i, m := range c.ar.machines {
		n := c.freeSlots(i)
		free += n
		st := &c.states[i]
		if st.Slots != n || (n > 0 && st.Load != m.Load()) {
			c.auditor.Violatef("placement snapshot: %s at %v holds slots %d load %g, the machine derives slots %d load %g",
				m.Name(), c.cl.Sim.Now(), st.Slots, st.Load, n, m.Load())
		}
	}
	if free != c.free {
		c.auditor.Violatef("placement snapshot: free total %d at %v, the machines derive %d", c.free, c.cl.Sim.Now(), free)
	}
}

// tryPlace runs placement passes until the queue or the free capacity is
// exhausted (see the placing guard on cell).
func (c *cell) tryPlace() {
	if c.placing {
		c.placeAgain = true
		return
	}
	c.placing = true
	defer c.settle()
	ar := c.ar
	// The per-machine slices are fixed-length for the cell, so their headers
	// can be hoisted; the pool's per-slot slices grow mid-run in a streaming
	// cell and must be reached through ar.pool every time.
	machines, inflight := ar.machines, ar.inflight
	for {
		c.placeAgain = false
		if c.pol.Len() == 0 {
			return
		}
		c.refreshStale()
		if c.auditor != nil {
			c.auditSnapshot()
		}
		if c.free == 0 {
			return
		}
		placed := c.pol.PlaceWaiting(c.states, c.free, c.changed)
		c.changed = c.changed[:0]
		c.free -= len(placed)
		if c.loc != nil {
			// Backpressure rejections leave the system here: dropped
			// items are in neither output, so account them now.
			for _, d := range c.loc.Dropped() {
				c.acc.TaskRejected()
				if ar.streaming {
					ar.pool.release(d.Ref)
				}
			}
		}
		for _, a := range placed {
			// Item.Ref is the pool slot and the machine id the position
			// in ar.machines.
			ti, hi := a.Ref, a.Machine
			c.markStale(hi)
			t := ar.pool.task(ti)
			if delay := c.stageDelay(ti, hi); delay > 0 {
				// Dependency data must cross the network first: hold the
				// slot and deliver the task when the transfer lands.
				c.notePlaced(ti, hi)
				c.xferWaitS += delay.Seconds()
				inflight[hi]++
				c.cl.Sim.After(delay, ar.deliverFn(ti, hi))
				continue
			}
			if err := machines[hi].AddTask(t); err != nil {
				// Impossible by construction: a queued task is unplaced
				// and unfinished, and its slot-derived ID is unique on
				// the machine.
				panic(err)
			}
			c.notePlaced(ti, hi)
		}
		if !c.placeAgain {
			return
		}
	}
}

// deliver lands a DAG task whose dependency transfer just finished: the
// reserved slot converts into a real placement, unless the destination
// failed or filled with owner work mid-transfer — then the task bounces
// back to the queue for a fresh decision.
func (c *cell) deliver(ti, hi int) {
	c.ar.inflight[hi]--
	c.markStale(hi)
	t := c.ar.pool.task(ti)
	if !c.takesWork(hi) || c.ar.machines[hi].AddTask(t) != nil {
		c.pol.Enqueue(c.newItem(ti, t.Remaining()))
		c.tryPlace() // the reservation just became real capacity
	}
}

// taskDone is the one completion callback shared by every task of the cell:
// the pooled task records are re-initialized per cell, but the callback is
// identical across them, so tasks never carry per-task closures. In a
// streaming cell, completion also returns the record's slot to the pool for
// the next arrival. For DAG workloads it is also the dependency engine: a
// completion records its host (where the output data now lives), decrements
// each child's readiness countdown and submits children whose last parent
// just finished.
func (c *cell) taskDone(t *sim.Task, at time.Duration) {
	ar := c.ar
	ti := t.Ref
	host := t.DoneOn()
	c.markStale(host.Index())
	arrival := ar.pool.gens[ti].arrival
	if ar.dag {
		arrival = ar.readyAt[ti]
		if at < arrival && c.dagErr == nil {
			c.dagErr = fmt.Errorf("scenario: %s run %d: task %s completed at %v before its last parent at %v",
				c.key, c.run, t.ID, at, arrival)
		}
		ar.doneHost[ti] = int32(host.Index())
		for _, ci := range ar.world.children[ti] {
			ar.remParents[ci]--
			if ar.remParents[ci] == 0 {
				ar.readyAt[ci] = at
				if ar.topo != nil {
					ar.homeSite[ci] = int32(ar.topo.siteOf[host.Index()])
				}
				c.submit(int(ci))
			}
		}
	}
	c.acc.TaskDone(at, arrival, t.Work)
	if ar.streaming {
		ar.pool.release(ti)
	}
	c.tryPlace()
}

// fail takes machine mi down: its residents are killed and requeued from
// their last checkpoint, and the machine accepts nothing until repair.
func (c *cell) fail(mi int) {
	if c.ar.down[mi] {
		return
	}
	c.ar.down[mi] = true
	c.markStale(mi)
	m := c.ar.machines[mi]
	c.ar.residents = m.AppendTasks(c.ar.residents[:0])
	for _, victim := range c.ar.residents {
		if m.Kill(victim) != nil {
			continue
		}
		c.failed++
		// Restart from the last checkpoint (scratch if none).
		_ = victim.Rewind(victim.CheckpointedWork)
		c.pol.Enqueue(c.newItem(victim.Ref, victim.Remaining()))
	}
	m.SetLocalLoad(1)
	// Surviving machines may have free slots for the requeued victims;
	// don't wait for an unrelated event.
	c.tryPlace()
}

// repair hands machine mi back to its owner at the owner trace's current
// level, not blanket idle.
func (c *cell) repair(mi int) {
	c.ar.down[mi] = false
	c.markStale(mi)
	c.ar.machines[mi].SetLocalLoad(c.ar.ownerLoad[mi])
	c.tryPlace()
}

// measure closes the run's accounting at virtual time end and derives the
// cell's indexes.
func (c *cell) measure(end time.Duration) Indexes {
	ar, sp := c.ar, c.ar.sp
	// Rejected counts tasks that never got a placement; fault-requeued tasks
	// stranded in the queue at the horizon were placed once and already show
	// up in Failed, not here.
	c.pol.Each(func(it *sched.Item) {
		if !ar.pool.everPlaced[it.Ref] {
			c.acc.TaskRejected()
		}
	})
	// A task that never arrived — a closed arrival past the horizon, a DAG
	// child whose ancestry did not finish in time, arrivals a streaming pump
	// never drew before the horizon or an exhausted trace — never entered
	// the system: rejected. (Locality drops were counted at drop time; tasks
	// still staging data at the horizon were placed.)
	c.acc.rejected += sp.Workload.Tasks - c.offered
	idx := Indexes{Failed: c.failed}
	c.acc.Finalize(&idx, end, sp.Workload.Tasks)
	if c.affine > 0 {
		idx.ForwardedPct = 100 * float64(c.forwarded) / float64(c.affine)
	}
	idx.XferWaitS = c.xferWaitS
	if ar.dag && ar.world.graphCP > 0 {
		idx.CriticalPathStretch = idx.MakespanS / ar.world.graphCP
	}
	var util float64
	for _, m := range ar.machines {
		util += m.RemoteUtilization(end)
	}
	if len(ar.machines) > 0 {
		idx.UtilizationPct = 100 * util / float64(len(ar.machines))
	}
	if c.lb != nil {
		idx.Migrations = c.lb.Migrations
	}
	if c.stealth != nil {
		idx.Suspensions = c.stealth.Suspensions
	}
	return idx
}
