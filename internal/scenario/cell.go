package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vce/internal/compilemgr"
	"vce/internal/loadbalance"
	"vce/internal/metrics"
	"vce/internal/migrate"
	"vce/internal/obs"
	"vce/internal/sched"
	"vce/internal/sim"
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
	// No "scenario: <instance> run <n>" prefix here: the executor wraps a
	// failed run's error with exactly that context, and direct callers have
	// the Instance/Run fields.
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
	return newArena(sp).runCell(ctx, inst.Sched, inst.Migration, run, false, nil)
}

// cell is the per-cell state of the arena (runArena embeds it): the policies
// under comparison — the scheduling policy holds the placement queue — and
// the counters and accumulators behind the indexes, which measure reads.
// startCell resets it with one assignment. The event handlers that read and
// write it are the arena's methods.
type cell struct {
	key string // "sched/migration", for error messages

	pol sched.Policy
	loc *sched.Locality // pol, when it is the locality policy
	ck  *migrate.Checkpointer
	lb  *loadbalance.VCEMigrate
	// stealth is the cell's suspension rule: its own policy under
	// "suspend", lb's embedded one under a migrating strategy.
	stealth *loadbalance.Stealth

	// auditor, set on audited runs, receives a violation for every snapshot
	// entry (and the free total) a pass finds different from a full
	// re-derivation.
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
	// doneErr records the first task that completed before it arrived (a
	// DAG child arrives when its last parent completes); it fails the run.
	doneErr error
	failed  int64
	// placedOnce counts the tasks placed at least once, and placedDrops the
	// Locality drops of tasks placed before (a fault requeue or a staging
	// bounce): measure derives rejected from the two.
	placedOnce, placedDrops int
	// offered counts the arrivals a streaming cell's pump has drawn,
	// admitted or refused: the pump stops at the workload's task count.
	// draws is the cell's task stream and arriving the drawn task the
	// pending pump event admits or refuses.
	offered  int
	draws    taskDraws
	arriving taskGen

	// The one-pass accumulators behind the completion and queue indexes:
	// every completion (taskDone) and settled queue depth (noteQueueDepth)
	// folds in as it happens, so a cell holds a fixed-size record instead of
	// per-task ones — what lets an open-loop cell absorb millions of tasks
	// in bounded memory. completionSum and lastDone are the sum and the
	// latest of the completion instants; slowdown sketches each completion's
	// response time over its work; queue integrates the depth over virtual
	// time and queueMax is its largest settled value.
	completed     int
	completionSum float64
	lastDone      time.Duration
	slowdown      metrics.QuantileSketch
	queue         metrics.TimeWeighted
	queueMax      int

	// next is the position in world.events of the cell's one pending world
	// event, and worldSeq the kernel sequence number reserved for each tie
	// block (worldEventKind.block).
	next     int
	worldSeq [2]int64
}

// runCell executes one cell of the arena's spec — the only execution path.
// A non-nil tel attaches run telemetry: wall-clock phase attribution (setup
// / simulate / measure) plus the kernel's traffic counters, written into
// the cell's record, which the executor hands to the sweep recorder.
// Telemetry only observes — with tel == nil (the default and the
// production path) no clock is read, and either way the returned Indexes
// are identical. audit attaches the engine invariant auditor to the run's
// kernel (sim.AttachAuditor): virtual-time monotonicity, conservation of
// work and per-task progress sanity are re-derived event by event, and any
// violation fails the run with an *AuditError; the auditor observes
// without perturbing, so a clean audited run returns bitwise-identical
// indexes.
//
// The kernel breaks time ties by sequence number, so the order in which
// setup takes numbers is part of the result: one reserved for owner steps
// and closed arrivals, the first pump, the first checkpoint tick
// (Checkpointer.Start), the OnChange registration, one reserved for faults
// and repairs. A world event is armed late, under its block's reserved
// number (armWorld), and so ties as if setup had scheduled it. Change
// listeners run in registration order: the auditor's, the migration
// policy's (attachPolicies), then the arena's placement listener
// (machineChanged). Every handler the kernel or the cluster calls back is
// an arena method bound once, in newArena.
func (ar *runArena) runCell(ctx context.Context, schedName, migration string, run int, audit bool, tel *obs.Cell) (Indexes, error) {
	var phaseAt time.Time
	if tel != nil {
		phaseAt = time.Now()
	}
	if err := ctx.Err(); err != nil {
		return Indexes{}, err
	}
	if err := ar.prepare(run); err != nil {
		return Indexes{}, err
	}
	cl := ar.cluster
	var auditor *sim.Auditor
	if audit {
		auditor = sim.AttachAuditor(cl)
	}
	ar.startCell(schedName, migration, run)
	ar.auditor = auditor

	// ctx's end halts the kernel from whichever goroutine ends it. The halt
	// request never touches world state or random streams, so indexes are
	// unchanged when ctx survives.
	stop := context.AfterFunc(ctx, cl.Sim.Halt)
	if tel != nil {
		now := time.Now()
		tel.Setup = now.Sub(phaseAt)
		phaseAt = now
	}
	end := cl.Sim.RunUntil(ar.horizon)
	stop()
	if tel != nil {
		now := time.Now()
		tel.Simulate = now.Sub(phaseAt)
		phaseAt = now
	}
	// Only a run the halt actually truncated is discarded: a context that
	// expires after the final event has run leaves the indexes complete and
	// valid.
	if end < ar.horizon {
		return Indexes{}, ctx.Err()
	}
	if auditor != nil {
		auditor.Finish()
		if v := auditor.Violations(); len(v) > 0 {
			return Indexes{}, &AuditError{
				Instance: ar.key, Run: run,
				Violations: v, Dropped: auditor.Dropped,
			}
		}
	}
	if ar.doneErr != nil {
		return Indexes{}, ar.doneErr
	}
	idx := ar.measure(end)
	if tel != nil {
		tel.Measure = time.Since(phaseAt)
		tel.Kernel = obs.KernelCounters{Stats: cl.Sim.Stats(), StateChanges: cl.StateChanges()}
	}
	return idx, nil
}

// startCell starts a new cell on the prepared substrate: it resets the
// cell's state, attaches its policies, schedules its setup-time events in
// the order runCell documents, and arms the world's first event.
func (ar *runArena) startCell(schedName, migration string, run int) {
	cl := ar.cluster
	ar.cell = cell{key: schedName + "/" + migration}
	ar.worldSeq[0] = cl.Sim.Reserve()
	ar.attachPolicies(schedName, migration)
	ar.noteQueueDepth(0, 0)
	// A streaming cell draws its tasks as they arrive: the pump is a
	// self-scheduling event that admits or refuses each one.
	if ar.streaming {
		ar.draws = newTaskDraws(ar.sp, derivedStreams(ar.sp, run))
		ar.scheduleNext()
	}
	// One checkpoint cadence per cell (§4.4 "migratable jobs checkpoint
	// regularly"). A cell's tasks are checkpointable all or none.
	if ar.ck != nil && ar.sp.Workload.Checkpointable {
		ar.ck.Start(cl)
	}
	cl.OnChange(ar.changeFn)
	ar.worldSeq[1] = cl.Sim.Reserve()
	ar.armWorld()
}

// machineChanged is the cell's change listener. Every change makes its
// machine's snapshot entry stale, and a change to a machine that takes work
// gets a pass: owner departures and completions free capacity. A pass with
// nothing new to place costs a visit per candidate set.
func (ar *runArena) machineChanged(m *sim.Machine, _ time.Duration) {
	i := m.Index()
	ar.markStale(i)
	if ar.takesWork(i) {
		ar.tryPlace()
	}
}

// armWorld schedules the world's next event, if one is left, under its
// block's reserved number. A checkpoint tick re-arms while anything is
// pending, so it keeps ticking while a world event remains.
func (ar *runArena) armWorld() {
	evs := ar.world.events
	if ar.next == len(evs) {
		return
	}
	e := &evs[ar.next]
	ar.cluster.Sim.AtSeq(e.at, ar.worldSeq[e.kind.block()], ar.worldFn)
}

// worldEvent applies the pending world event and arms the next one. An owner
// step during an outage only moves the level repair restores.
func (ar *runArena) worldEvent() {
	e := &ar.world.events[ar.next]
	ar.next++
	switch i := int(e.i); e.kind {
	case evOwner:
		ar.ownerLoad[i] = e.load
		if !ar.down[i] {
			ar.machines[i].SetLocalLoad(e.load)
		}
	case evArrive:
		ar.submit(i)
	case evFail:
		ar.fail(i)
	case evRepair:
		ar.repair(i)
	}
	ar.armWorld()
}

// attachPolicies resolves the cell's scheduling policy and attaches its
// migration strategy (the migrations table) to the cluster.
func (ar *runArena) attachPolicies(schedName, migration string) {
	ar.pol = ar.policy(schedName)
	ar.loc, _ = ar.pol.(*sched.Locality)
	// Only DAG items carry a home site (newItem). Elsewhere Locality places
	// every item greedily either way, and without a topology its round
	// skips the walk over every item that its backlog counters need.
	if ar.loc != nil && ar.dag && ar.topo != nil {
		ar.loc.SetTopology(ar.topo.siteOf, ar.locCost)
	}
	attach, _ := lookup(migrations, migration)
	attach(ar)
}

// migrations is the migration axis: every strategy name a spec may list,
// in MigrationNames order, and how a cell attaches it.
var migrations = []option[func(*runArena)]{
	{"none", func(*runArena) {}},
	{"suspend", func(ar *runArena) {
		ar.stealth = loadbalance.NewStealth()
		ar.stealth.Attach(ar.cluster)
	}},
	{"address-space", func(ar *runArena) { ar.attachMigrate(migrate.AddressSpace{}) }},
	{"checkpoint", func(ar *runArena) { ar.attachMigrate(ar.newCheckpointer()) }},
	{"recompile", func(ar *runArena) { ar.attachMigrate(newRecompile()) }},
	{"adaptive", func(ar *runArena) {
		picker, err := migrate.NewPicker(migrate.AddressSpace{}, ar.newCheckpointer(), newRecompile())
		if err != nil {
			// Impossible by construction: the repertoire is fixed and
			// every member estimates its costs.
			panic(err)
		}
		ar.attachMigrate(picker)
	}},
}

// attachMigrate attaches VCE migration under strategy; its embedded
// suspension rule is the cell's.
func (ar *runArena) attachMigrate(strategy migrate.Strategy) {
	ar.lb = loadbalance.NewVCEMigrate(strategy)
	ar.lb.Attach(ar.cluster)
	ar.stealth = &ar.lb.Stealth
}

// newCheckpointer makes the cell's checkpointer at the spec's interval.
func (ar *runArena) newCheckpointer() *migrate.Checkpointer {
	ar.ck = migrate.NewCheckpointer(time.Duration(ar.sp.CheckpointIntervalS * float64(time.Second)))
	return ar.ck
}

func newRecompile() *migrate.Recompile {
	return &migrate.Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second, PerMiB: time.Second}}
}

// scheduleNext draws a streaming cell's next task and schedules its
// arrival, unless the pump has offered the workload's task count or the
// source has run dry or past the horizon.
func (ar *runArena) scheduleNext() {
	if ar.offered >= ar.sp.Workload.Tasks {
		return
	}
	if g, ok := ar.draws.next(); ok && g.arrival < ar.horizon {
		ar.arriving = g
		ar.cluster.Sim.At(g.arrival, ar.pumpFn)
	}
}

// pump is one streaming arrival: the drawn task joins the bounded queue or
// is refused.
func (ar *runArena) pump() {
	ar.offered++
	if q := ar.sp.Workload.QueueLimit; q == 0 || ar.pol.Len() < q {
		ar.submit(ar.acquire(ar.arriving))
	}
	ar.scheduleNext()
}

// newItem builds the placement-queue entry for slot i with the
// data-affinity site riding along: the one way a task joins the queue, for
// submission, the transfer bounce and the fault requeue.
func (ar *runArena) newItem(i int, work float64) sched.Item {
	sl := ar.pool.slot(i)
	it := sched.Item{Ref: i, CandidateIDs: ar.allIDs, Work: work}
	if sl.gen.constrained {
		it.CandidateIDs = ar.pinnedIDs
	}
	if ar.dag && ar.topo != nil && sl.homeSite >= 0 {
		it.HomeSite = int(sl.homeSite) + 1
	}
	return it
}

// submit enters slot i's task into the system at the current instant, its
// arrival: the record is re-initialized and the task joins the placement
// queue.
func (ar *runArena) submit(i int) {
	sl := ar.pool.slot(i)
	if err := sl.task.Reset(); err != nil {
		// Impossible by construction: completion detaches the record
		// before OnDone returns its slot, and Cluster.Reset detaches
		// residents between cells.
		panic(err)
	}
	sl.task.Work = sl.gen.work
	sl.gen.arrival = ar.cluster.Sim.Now()
	ar.pol.Enqueue(ar.newItem(i, sl.gen.work))
	ar.tryPlace()
}

// stageDelay is the data-staging time a DAG placement pays before the task
// can start: the slowest transfer of the edge payload from any parent's
// completion host over the actual network link. Co-located parents (and
// root tasks) stage for free.
func (ar *runArena) stageDelay(ti, hi int) time.Duration {
	if !ar.dag {
		return 0
	}
	var d time.Duration
	dst := ar.machines[hi].Name()
	for _, p := range ar.world.parents[ti] {
		ph := ar.pool.slot(int(p)).doneHost
		if ph < 0 || int(ph) == hi {
			continue
		}
		t, err := ar.net.TransferTime(ar.machines[ph].Name(), dst, ar.edgeBytes)
		if err == nil && t > d {
			d = t
		}
	}
	return d
}

// notePlaced marks a task placed and, on its first placement, counts it and
// folds it into the affinity accounting behind forwarded_pct.
func (ar *runArena) notePlaced(ti, hi int) {
	sl := ar.pool.slot(ti)
	if sl.everPlaced {
		return
	}
	sl.everPlaced = true
	ar.placedOnce++
	if ar.dag && ar.topo != nil && sl.homeSite >= 0 {
		ar.affine++
		if ar.topo.siteOf[hi] != int(sl.homeSite) {
			ar.forwarded++
		}
	}
}

// takesWork reports whether machine i accepts new tasks: it is up and its
// owner is not active (local load below loadbalance.Hi, the DAWGS
// idle-placement discipline). A machine the engine refuses work is exactly
// one the migration policies evacuate; its residents are their problem.
func (ar *runArena) takesWork(i int) bool {
	return !ar.down[i] && ar.machines[i].LocalLoad() < loadbalance.Hi
}

// freeSlots derives machine i's snapshot capacity: its free slots less the
// deliveries in transit to it (DAG data staging reserves its slot up front,
// so a later placement round can't spend it), and 0 for a machine that
// takes no work.
func (ar *runArena) freeSlots(i int) int {
	if !ar.takesWork(i) {
		return 0
	}
	return max(0, ar.slots[i]-ar.machines[i].RemoteTasks()-ar.inflight[i])
}

// markStale adds machine i to the stale set. The writers of what
// freeSlots and Machine.Load read, and where each marks:
//   - every change notification (a placement, completion, kill or owner
//     step), in machineChanged before its gates;
//   - the completing host, in taskDone: OnDone fires before that machine's
//     notification, and the completion's own passes must see the freed slot;
//   - every machine a pass assigned to: Place left its in-round Load
//     estimate in the entry, and the AddTask notification can queue behind
//     the next pass;
//   - deliver (inflight), fail and repair (down);
//   - cell start (prepare lists every machine).
func (ar *runArena) markStale(i int) {
	if !ar.isStale[i] {
		ar.isStale[i] = true
		ar.stale = append(ar.stale, i)
	}
}

// refreshStale re-derives the stale machines' snapshot entries, keeps free
// in step and lists the entries as changed. A policy never reads the Load
// of a machine without a free slot, so theirs is not derived.
func (ar *runArena) refreshStale() {
	ar.changed = append(ar.changed, ar.stale...)
	for _, i := range ar.stale {
		ar.isStale[i] = false
		st := &ar.states[i]
		n := ar.freeSlots(i)
		if n > 0 {
			st.Load = ar.machines[i].Load()
		}
		ar.free += n - st.Slots
		st.Slots = n
	}
	ar.stale = ar.stale[:0]
}

// auditSnapshot re-derives every snapshot entry and the free total, and
// reports each disagreement with the stale-set snapshot as a violation.
func (ar *runArena) auditSnapshot() {
	free := 0
	now := ar.cluster.Sim.Now()
	for i, m := range ar.machines {
		n := ar.freeSlots(i)
		free += n
		st := &ar.states[i]
		if st.Slots != n || (n > 0 && st.Load != m.Load()) {
			ar.auditor.Violatef("placement snapshot: %s at %v holds slots %d load %g, the machine derives slots %d load %g",
				m.Name(), now, st.Slots, st.Load, n, m.Load())
		}
	}
	if free != ar.free {
		ar.auditor.Violatef("placement snapshot: free total %d at %v, the machines derive %d", ar.free, now, free)
	}
}

// tryPlace runs placement passes until the queue or the free capacity is
// exhausted (see the placing guard on cell). Its outermost exit, where the
// queue has settled for this event, records the depth for the time-weighted
// backlog integral.
func (ar *runArena) tryPlace() {
	if ar.placing {
		ar.placeAgain = true
		return
	}
	ar.placing = true
	defer func() {
		ar.placing = false
		ar.noteQueueDepth(ar.cluster.Sim.Now(), ar.pol.Len())
	}()
	for {
		ar.placeAgain = false
		if ar.pol.Len() == 0 {
			return
		}
		ar.refreshStale()
		if ar.auditor != nil {
			ar.auditSnapshot()
		}
		if ar.free == 0 {
			return
		}
		placed := ar.pol.PlaceWaiting(ar.states, ar.free, ar.changed)
		ar.changed = ar.changed[:0]
		ar.free -= len(placed)
		if ar.loc != nil {
			// Backpressure drops leave the system here, in neither output.
			for _, d := range ar.loc.Dropped() {
				if ar.pool.slot(d.Ref).everPlaced {
					ar.placedDrops++
				}
				ar.pool.release(d.Ref)
			}
		}
		for _, a := range placed {
			// Item.Ref is the pool slot and the machine id the position
			// in ar.machines.
			ti, hi := a.Ref, a.Machine
			ar.markStale(hi)
			ar.notePlaced(ti, hi)
			sl := ar.pool.slot(ti)
			if delay := ar.stageDelay(ti, hi); delay > 0 {
				// Dependency data must cross the network first: hold the
				// slot and deliver the task when the transfer lands.
				ar.xferWaitS += delay.Seconds()
				ar.inflight[hi]++
				sl.deliverTo = int32(hi)
				ar.cluster.Sim.After(delay, sl.deliver)
			} else if err := ar.machines[hi].AddTask(&sl.task); err != nil {
				// Impossible by construction: a queued task is unplaced
				// and unfinished, and its slot-derived ID is unique on
				// the machine.
				panic(err)
			}
		}
		if !ar.placeAgain {
			return
		}
	}
}

// deliver lands slot ti's task when its dependency transfer finishes: the
// reserved slot converts into a real placement, unless the destination
// failed or filled with owner work mid-transfer — then the task bounces
// back to the queue for a fresh decision.
func (ar *runArena) deliver(ti int) {
	sl := ar.pool.slot(ti)
	hi := int(sl.deliverTo)
	ar.inflight[hi]--
	ar.markStale(hi)
	if !ar.takesWork(hi) || ar.machines[hi].AddTask(&sl.task) != nil {
		ar.pol.Enqueue(ar.newItem(ti, sl.task.Remaining()))
		ar.tryPlace() // the reservation just became real capacity
	}
}

// taskDone is the one completion callback of every pooled task record.
// Completion also returns the record's slot to the pool, for a streaming
// cell's next arrival. For DAG workloads it is also the dependency
// engine: a completion records its host (where the output data now lives),
// decrements each child's readiness countdown and submits children whose
// last parent just finished — so a child's arrival is that instant.
func (ar *runArena) taskDone(t *sim.Task, at time.Duration) {
	ti := t.Ref
	sl := ar.pool.slot(ti)
	host := t.DoneOn().Index()
	ar.markStale(host)
	if at < sl.gen.arrival && ar.doneErr == nil {
		// The executor prefixes the cell and run, as for AuditError.
		ar.doneErr = fmt.Errorf("task %s completed at %v before it arrived at %v", t.ID, at, sl.gen.arrival)
	}
	if ar.dag {
		sl.doneHost = int32(host)
		for _, ci := range ar.world.children[ti] {
			child := ar.pool.slot(int(ci))
			if child.remParents--; child.remParents == 0 {
				if ar.topo != nil {
					child.homeSite = int32(ar.topo.siteOf[host])
				}
				ar.submit(int(ci))
			}
		}
	}
	// Slowdown is the response time against a dedicated speed-1.0 machine:
	// work units are seconds at unit speed.
	ar.completed++
	ar.completionSum += at.Seconds()
	ar.lastDone = max(ar.lastDone, at)
	ar.slowdown.Observe((at - sl.gen.arrival).Seconds() / t.Work)
	ar.pool.release(ti)
	ar.tryPlace()
}

// noteQueueDepth records the settled waiting-queue depth at virtual instant
// now. Intermediate same-instant values are harmless for the integral
// (zero-width), but callers report settled states so the max is the max of
// observable backlogs, not of transients inside one event.
func (ar *runArena) noteQueueDepth(now time.Duration, depth int) {
	ar.queue.Set(now, float64(depth))
	ar.queueMax = max(ar.queueMax, depth)
}

// fail takes machine mi down: its residents are killed and requeued from
// their last checkpoint, and the machine accepts nothing until repair.
func (ar *runArena) fail(mi int) {
	if ar.down[mi] {
		return
	}
	ar.down[mi] = true
	ar.markStale(mi)
	m := ar.machines[mi]
	ar.residents = m.AppendTasks(ar.residents[:0])
	for _, victim := range ar.residents {
		if m.Kill(victim) != nil {
			continue
		}
		ar.failed++
		// Restart from the last checkpoint (scratch if none).
		_ = victim.Rewind(victim.CheckpointedWork)
		ar.pol.Enqueue(ar.newItem(victim.Ref, victim.Remaining()))
	}
	m.SetLocalLoad(1)
	// Surviving machines may have free slots for the requeued victims;
	// don't wait for an unrelated event.
	ar.tryPlace()
}

// repair hands machine mi back to its owner at the owner trace's current
// level, not blanket idle.
func (ar *runArena) repair(mi int) {
	ar.down[mi] = false
	ar.markStale(mi)
	ar.machines[mi].SetLocalLoad(ar.ownerLoad[mi])
	ar.tryPlace()
}

// measure closes the run's accounting at virtual time end and derives every
// index of the cell from its counters and accumulators, the policies' own
// counters and the machines' utilization.
//
// Determinism rules (the artifacts pin bytes, so these are contractual):
//
//   - Sums are exact and accumulate in event order, which is itself
//     deterministic in (spec, instance, run). Mean completion is the exact
//     sum over the exact count — deliberately not a Welford running mean,
//     whose different rounding would move artifact bytes.
//   - Quantiles come from a fixed-shape log-bucketed sketch
//     (metrics.QuantileSketch): counts-only state, so p50/p99 are invariant
//     to observation order and identical across worker counts, shards and
//     cache replays.
//   - Queue depth integrates as a piecewise-constant function of virtual
//     time (metrics.TimeWeighted). Wall-clock never enters a cell.
func (ar *runArena) measure(end time.Duration) Indexes {
	tasks := ar.sp.Workload.Tasks
	idx := Indexes{
		Completed:      ar.completed,
		Failed:         ar.failed,
		XferWaitS:      ar.xferWaitS,
		QueueDepthMean: ar.queue.Average(end),
		QueueDepthMax:  float64(ar.queueMax),
	}
	// Rejected is one identity: the tasks never placed. A submitted task
	// leaves the queue only through a placement or a Locality drop, so this
	// counts the pump's refusals, drops of never-placed tasks, never-placed
	// waiters at the horizon and the tasks that never arrived (a closed
	// arrival past the horizon, a DAG child whose ancestry did not finish,
	// arrivals a pump never drew). A task placed once is never rejected —
	// except when Locality drops it after a fault requeue or a staging
	// bounce, the last term, a known defect (ROADMAP item 6 deletes it).
	idx.Rejected = tasks - ar.placedOnce + ar.placedDrops
	if tasks > 0 {
		idx.RejectRatePct = 100 * float64(idx.Rejected) / float64(tasks)
	}
	// A cell that completed nothing spans its whole run.
	makespan := ar.lastDone
	if makespan == 0 {
		makespan = end
	}
	idx.MakespanS = makespan.Seconds()
	if end > 0 {
		idx.ThroughputPerH = float64(ar.completed) / end.Hours()
	}
	if ar.completed > 0 {
		idx.MeanCompletionS = ar.completionSum / float64(ar.completed)
		idx.SlowdownP50 = ar.slowdown.Quantile(0.50)
		idx.SlowdownP99 = ar.slowdown.Quantile(0.99)
	}
	if ar.affine > 0 {
		idx.ForwardedPct = 100 * float64(ar.forwarded) / float64(ar.affine)
	}
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
	if ar.lb != nil {
		idx.Migrations = ar.lb.Migrations
	}
	if ar.stealth != nil {
		idx.Suspensions = ar.stealth.Suspensions
	}
	return idx
}
