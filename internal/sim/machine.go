// Package sim is the discrete-event cluster simulator used by the VCE
// experiments: processor-sharing machines with time-varying local load,
// remote VCE tasks competing for leftover capacity, suspension (for
// Stealth-style policies), and kill/restart hooks (for migration
// strategies). Hours of virtual cluster time run in milliseconds, which is
// what makes the §4 policy comparisons measurable.
//
// Execution model: a machine of speed S executes S work units per second.
// Locally initiated processes have absolute priority (the premise shared by
// Krueger, Clark and Ju in §4.3): a local load fraction l leaves max(0,
// S·(1−l)) for remote VCE tasks, which share it equally (processor sharing).
// Rates change only at events (task arrival/departure, load steps,
// suspension), so progress is piecewise linear and completion times are
// exact.
//
// Because every resident task progresses at the same rate, per-task progress
// is bookkept in O(1) per event: the machine integrates a single cumulative
// per-task "virtual work" accumulator, each task's progress is the
// accumulator delta since its placement, and residents stay ordered by a
// placement-time finish key, so the next completion is the front of the
// slice and no event ever walks the full task set.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"vce/internal/arch"
	"vce/internal/metrics"
	"vce/internal/vtime"
)

// Task is one remote VCE task instance executing on the simulated cluster.
// It carries its own checkpoint record (Checkpoint), so the record lives
// exactly as long as the task: completion empties it, and so does Reset.
type Task struct {
	// ID uniquely names the task instance.
	ID string
	// Ref is the owner's handle for the task (the scenario engine's pool
	// slot). sim never reads it; a migration re-adds the same record, so
	// it survives moves.
	Ref int
	// App groups instances of an application.
	App string
	// Work is the total work units required.
	Work float64
	// ImageBytes sizes the binary/address-space image (migration cost).
	ImageBytes int64
	// Checkpointable marks cooperative tasks (checkpoint migration).
	Checkpointable bool
	// OnDone fires at completion with the completion time.
	OnDone func(t *Task, at time.Duration)

	// CheckpointedWork is the work captured by the latest checkpoint.
	CheckpointedWork float64
	// holders are the machines with a current copy of the checkpoint
	// record: the host that took the latest checkpoint, then every machine
	// it was replicated to. Empty means no record. A record is always
	// ImageBytes long, so where its copies are is all it holds.
	holders []*Machine

	machine *Machine
	// doneOn is the machine that ran the task to completion, recorded just
	// as the machine detaches the finished record (machine is already nil
	// when OnDone fires).
	doneOn *Machine
	// doneWork is the materialized progress: exact while unplaced, the
	// placement-time baseline while resident (current progress is doneWork
	// plus the machine's accumulator delta since placement).
	doneWork float64
	// accumBase is the machine accumulator value at placement.
	accumBase float64
	// placements counts AddTask acceptances — a generation stamp that
	// uniquely identifies each residency (the auditor's progress-monotone
	// check is scoped by it; accumulator values can collide across
	// machines).
	placements int
	// finishKey = (Work - doneWork) + accumBase at placement: constant for
	// the whole residency, and ordering residents by (finishKey, ID) is
	// ordering them by remaining work — the heart of the O(1) accounting.
	finishKey float64
	finished  bool
}

// DoneWork returns the work completed so far (valid after the owning
// machine's advance, i.e. inside event callbacks).
func (t *Task) DoneWork() float64 {
	if t.machine != nil {
		return t.machine.progress(t)
	}
	return t.doneWork
}

// Remaining returns work still to do.
func (t *Task) Remaining() float64 { return t.Work - t.DoneWork() }

// Machine returns the current host (nil when not placed).
func (t *Task) Machine() *Machine { return t.machine }

// DoneOn returns the machine that completed the task, nil until it finishes.
// Unlike Machine it is valid inside OnDone callbacks — completion detaches
// the record before the callback fires — so callers can attribute the finish
// to a host (e.g. dependent-workload data staging).
func (t *Task) DoneOn() *Machine { return t.doneOn }

// Finished reports completion.
func (t *Task) Finished() bool { return t.finished }

// errNoCheckpoint refuses a replication of a record that does not exist. A
// migration before the first checkpoint meets it, so it is one value, not
// formatted per call.
var errNoCheckpoint = errors.New("sim: no checkpoint record to replicate")

// Checkpoint captures the resident task's progress at the current virtual
// instant in its checkpoint record, which the host then holds alone: every
// older copy is stale. Only a resident task checkpoints.
func (t *Task) Checkpoint() {
	t.machine.Sync()
	t.CheckpointedWork = t.DoneWork()
	t.holders = append(t.holders[:0], t.machine)
}

// CheckpointOn reports whether m holds a current copy of the task's
// checkpoint record.
func (t *Task) CheckpointOn(m *Machine) bool { return slices.Contains(t.holders, m) }

// ReplicateCheckpoint copies the task's checkpoint record to m (a no-op
// where a copy is current). A task with no record has nothing to copy.
func (t *Task) ReplicateCheckpoint(m *Machine) error {
	if len(t.holders) == 0 {
		return errNoCheckpoint
	}
	if !t.CheckpointOn(m) {
		t.holders = append(t.holders, m)
	}
	return nil
}

// Machine is one simulated computer.
//
// Field order is deliberate: the per-event hot path (advance → progress →
// reschedule) reads accum, lastUpdate, localLoad, speed, suspended and the
// ordered-residents header, which the layout packs together at the top of
// the struct so a churn event touches one or two cache lines per machine,
// not the whole struct. Spec (strings, cold identity data) and the
// monitoring gauge sit below the hot prefix.
type Machine struct {
	cluster *Cluster

	// accum integrates the per-task execution rate over time: the total
	// work any task resident since the machine's creation would have
	// completed. A task's progress is its placement baseline plus the
	// accumulator delta since placement — O(1) per event, independent of
	// the resident count.
	accum      float64
	lastUpdate time.Duration // virtual instant accum was advanced to

	localLoad float64 // fraction of capacity consumed locally, >= 0
	// speed caches Spec.Speed for the rate arithmetic: the hot path reads
	// it without dragging Spec's string-heavy cache lines in. Spec is
	// read-only after registration (ReplaceSpecs is the one sanctioned
	// mutation and keeps the cache in sync).
	speed     float64
	suspended bool // remote tasks frozen (Stealth)

	// ordered holds residents ascending by (finishKey, ID): front is the
	// next completion. It also serves AddTask's duplicate-ID check by linear
	// scan — residents per machine are bounded by the placement slots, so
	// a scan beats a per-machine map's allocation and hashing at fleet
	// scale.
	ordered []*Task

	// pending is the machine's single scheduled completion event; a
	// reschedule cancels it natively instead of leaving a dead closure
	// queued. completionFn is allocated once so rescheduling is
	// closure-free — and it survives Reset, so a recycled machine never
	// reallocates it.
	pending      vtime.Event
	completionFn func()

	// maxWork is the high-water task size ever placed here; it bounds the
	// completion-scan epsilon (workEpsilon is monotone in Work).
	maxWork float64

	index int // registration order, see Index
	// Spec is the hardware description.
	Spec arch.Machine

	// finishedScratch is the reusable buffer for completion batches.
	finishedScratch []*Task

	// Monitoring.
	remoteBusy metrics.TimeWeighted // fraction of capacity running VCE work
}

// LocalLoad returns the current local load fraction.
func (m *Machine) LocalLoad() float64 { return m.localLoad }

// Suspended reports whether remote tasks are frozen.
func (m *Machine) Suspended() bool { return m.suspended }

// RemoteTasks returns the number of resident VCE tasks.
func (m *Machine) RemoteTasks() int { return len(m.ordered) }

// Name returns the machine name.
func (m *Machine) Name() string { return m.Spec.Name }

// Index returns the machine's registration order in its cluster (dense,
// starting at 0). Event-frequency consumers key per-machine state by this
// instead of hashing names.
func (m *Machine) Index() int { return m.index }

// Load returns the scheduler-visible load: local load plus remote demand
// per unit capacity.
func (m *Machine) Load() float64 {
	return m.localLoad + float64(len(m.ordered))/maxf(m.speed, 0.001)
}

// RemoteUtilization returns the time-weighted average fraction of capacity
// spent on VCE work up to now.
func (m *Machine) RemoteUtilization(now time.Duration) float64 {
	return m.remoteBusy.Average(now)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// remoteRatePerTask returns each resident task's current execution rate.
func (m *Machine) remoteRatePerTask() float64 {
	if m.suspended || len(m.ordered) == 0 {
		return 0
	}
	avail := m.speed * maxf(0, 1-m.localLoad)
	return avail / float64(len(m.ordered))
}

// advance accrues the shared progress accumulator from lastUpdate to now at
// the current rate — O(1) regardless of how many tasks are resident.
func (m *Machine) advance(now time.Duration) {
	if dt := now - m.lastUpdate; dt > 0 {
		if rate := m.remoteRatePerTask(); rate > 0 {
			m.accum += rate * dt.Seconds()
		}
	}
	m.lastUpdate = now
}

// progress returns a resident task's completed work: the placement baseline
// plus the accumulator delta since placement, capped at Work.
func (m *Machine) progress(t *Task) float64 {
	d := t.doneWork + (m.accum - t.accumBase)
	if d > t.Work {
		d = t.Work
	}
	return d
}

// recordUtil snapshots the utilization gauge after a state mutation; the
// recorded value holds until the next mutation (piecewise-constant).
func (m *Machine) recordUtil(now time.Duration) {
	frac := 0.0
	if m.speed > 0 {
		frac = m.remoteRatePerTask() * float64(len(m.ordered)) / m.speed
	}
	m.remoteBusy.Set(now, frac)
}

// maxETASeconds bounds a completion ETA (~31 virtual years): far beyond any
// plausible horizon, yet safely inside time.Duration's int64 range.
const maxETASeconds = 1e9

// workEpsilon is the completion tolerance: absolute floor plus a relative
// component so large work values with float residue still terminate.
func workEpsilon(work float64) float64 {
	return 1e-9 + 1e-12*work
}

// findByID returns the resident task with the given ID, or nil. Residents
// per machine are bounded by the caller's placement slots (a handful), so a
// linear scan of the ordered slice is cheaper than maintaining a per-machine
// hash map — and it removes one map allocation per machine, which matters
// at 10⁵-machine fleet scale.
func (m *Machine) findByID(id string) *Task {
	for _, t := range m.ordered {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// insertOrdered places t into the residency order by (finishKey, ID).
func (m *Machine) insertOrdered(t *Task) {
	i := sort.Search(len(m.ordered), func(i int) bool {
		o := m.ordered[i]
		if o.finishKey != t.finishKey {
			return o.finishKey > t.finishKey
		}
		return o.ID > t.ID
	})
	m.ordered = append(m.ordered, nil)
	copy(m.ordered[i+1:], m.ordered[i:])
	m.ordered[i] = t
}

// removeOrdered deletes resident t from the residency order. A resident's
// (finishKey, ID) is fixed while it resides and IDs are unique on a machine,
// so the search lands on t itself; landing anywhere else means the order is
// corrupt.
func (m *Machine) removeOrdered(t *Task) {
	i := sort.Search(len(m.ordered), func(i int) bool {
		o := m.ordered[i]
		if o.finishKey != t.finishKey {
			return o.finishKey >= t.finishKey
		}
		return o.ID >= t.ID
	})
	if i == len(m.ordered) || m.ordered[i] != t {
		panic(fmt.Sprintf("sim: %s: task %q is not where the residency order puts it", m.Name(), t.ID))
	}
	m.ordered = slices.Delete(m.ordered, i, i+1)
}

// reschedule cancels the machine's pending completion event and, when work
// can progress, schedules the front resident's completion. The front of the
// residency order is the earliest completion (ties by ID), so this is O(1)
// plus the kernel's O(log n) queue ops — no scan, and no dead event left
// behind.
func (m *Machine) reschedule(now time.Duration) {
	m.cluster.Sim.Cancel(m.pending)
	rate := m.remoteRatePerTask()
	if rate <= 0 || len(m.ordered) == 0 {
		return // frozen or empty: nothing will complete
	}
	next := m.ordered[0]
	etaSec := (next.Work - m.progress(next)) / rate
	// Cap the ETA below the Duration range: an extreme work draw (the heavy
	// Pareto tail, or a generated/fuzzed spec) would otherwise overflow the
	// float→int64 conversion into an implementation-defined value. The cap is
	// ~31 virtual years — past any horizon, so the event just sits unfired.
	if etaSec > maxETASeconds || etaSec != etaSec {
		etaSec = maxETASeconds
	}
	eta := time.Duration(etaSec * float64(time.Second))
	if eta < time.Nanosecond {
		// Floor at the clock granularity: a zero-delay event would
		// re-fire at the same timestamp without accruing progress,
		// livelocking the simulation on float residue.
		eta = time.Nanosecond
	}
	m.pending = m.cluster.Sim.After(eta, m.completionFn)
}

// onCompletion fires when the earliest task finishes.
func (m *Machine) onCompletion() {
	now := m.cluster.Sim.Now()
	m.advance(now)
	// Completion candidates form a prefix of the residency order: bound the
	// scan by the largest per-task epsilon any resident could have.
	bound := workEpsilon(m.maxWork)
	scan := 0
	for scan < len(m.ordered) {
		t := m.ordered[scan]
		if t.Work-m.progress(t) > bound {
			break
		}
		scan++
	}
	finished := m.finishedScratch[:0]
	w := 0
	for i := 0; i < scan; i++ {
		t := m.ordered[i]
		if t.Work-m.progress(t) <= workEpsilon(t.Work) {
			t.doneWork = m.progress(t)
			t.finished = true
			t.holders = t.holders[:0] // a finished task restarts nowhere
			t.machine = nil
			t.doneOn = m
			finished = append(finished, t)
		} else {
			m.ordered[w] = t
			w++
		}
	}
	if w != scan {
		copy(m.ordered[w:], m.ordered[scan:])
		n := len(m.ordered) - (scan - w)
		for i := n; i < len(m.ordered); i++ {
			m.ordered[i] = nil
		}
		m.ordered = m.ordered[:n]
	}
	m.reschedule(now)
	m.recordUtil(now)
	// Simultaneous completions fire OnDone in ID order, not residency
	// order, so scenario runs are reproducible event-for-event.
	if len(finished) > 1 {
		sort.Slice(finished, func(i, j int) bool { return finished[i].ID < finished[j].ID })
	}
	for _, t := range finished {
		if t.OnDone != nil {
			t.OnDone(t, now)
		}
	}
	for i := range finished {
		finished[i] = nil // don't retain finished tasks via the scratch buffer
	}
	m.finishedScratch = finished[:0]
	m.cluster.notifyChange(m)
}

// AddTask places a task on the machine at the current virtual time. A task
// may only reside on one machine.
func (m *Machine) AddTask(t *Task) error {
	if t.machine != nil {
		return fmt.Errorf("sim: task %q already placed on %s", t.ID, t.machine.Name())
	}
	if t.finished {
		return fmt.Errorf("sim: task %q already finished", t.ID)
	}
	if m.findByID(t.ID) != nil {
		return fmt.Errorf("sim: duplicate task %q on %s", t.ID, m.Name())
	}
	now := m.cluster.Sim.Now()
	m.advance(now)
	t.machine = m
	t.accumBase = m.accum
	t.placements++
	t.finishKey = (t.Work - t.doneWork) + m.accum
	m.insertOrdered(t)
	if t.Work > m.maxWork {
		m.maxWork = t.Work
	}
	m.reschedule(now)
	m.recordUtil(now)
	m.cluster.notifyChange(m)
	return nil
}

// Kill removes resident t without completing it. The task's accrued work
// survives in the record (checkpoint strategies read it), so a caller may
// rewind it or place it again. Killing a task that does not reside here is
// an error.
func (m *Machine) Kill(t *Task) error {
	if t.machine != m {
		return fmt.Errorf("sim: no task %q on %s", t.ID, m.Name())
	}
	now := m.cluster.Sim.Now()
	m.advance(now)
	t.doneWork = m.progress(t)
	m.removeOrdered(t)
	t.machine = nil
	m.reschedule(now)
	m.recordUtil(now)
	m.cluster.notifyChange(m)
	return nil
}

// SetLocalLoad steps the machine's local load (trace playback).
func (m *Machine) SetLocalLoad(l float64) {
	if l < 0 {
		l = 0
	}
	now := m.cluster.Sim.Now()
	m.advance(now)
	m.localLoad = l
	m.reschedule(now)
	m.recordUtil(now)
	m.cluster.notifyChange(m)
}

// SetSuspended freezes or thaws remote tasks (Stealth-style suspension).
func (m *Machine) SetSuspended(s bool) {
	if m.suspended == s {
		return
	}
	now := m.cluster.Sim.Now()
	m.advance(now)
	m.suspended = s
	m.reschedule(now)
	m.recordUtil(now)
	m.cluster.notifyChange(m)
}

// AppendTasks appends the resident tasks to dst in ID order, so policies
// that walk residents (migration evacuation) behave deterministically, and
// returns the extended slice. Only the appended part is sorted. The result
// is a copy: callers may add and remove residents while walking it, and
// reuse one buffer across calls (AppendTasks(buf[:0])).
func (m *Machine) AppendTasks(dst []*Task) []*Task {
	n := len(dst)
	dst = append(dst, m.ordered...)
	// IDs are unique on a machine, so the order is total; the generic sort
	// boxes nothing, where sort.Slice would allocate per call.
	slices.SortFunc(dst[n:], func(a, b *Task) int { return strings.Compare(a.ID, b.ID) })
	return dst
}

// Sync accrues progress up to the current virtual instant so observers
// outside machine events (checkpointers, migration policies) read fresh
// DoneWork values.
func (m *Machine) Sync() {
	m.advance(m.cluster.Sim.Now())
}

// Rewind resets an unplaced task's progress to the given completed work —
// how checkpoint restarts discard work done since the last checkpoint. It
// fails on placed or finished tasks and on out-of-range values.
func (t *Task) Rewind(work float64) error {
	if t.machine != nil {
		return fmt.Errorf("sim: cannot rewind placed task %q", t.ID)
	}
	if t.finished {
		return fmt.Errorf("sim: cannot rewind finished task %q", t.ID)
	}
	if work < 0 || work > t.Work {
		return fmt.Errorf("sim: rewind of %q to %v out of range [0,%v]", t.ID, work, t.Work)
	}
	t.doneWork = work
	return nil
}

// Reset returns an unplaced task to its virgin state — no progress, no
// checkpoint record, not finished, no completion host — so pooled task
// records can be recycled across simulation runs (or re-submitted as fresh
// work within one) without reallocating. It keeps the checkpoint record's
// storage but none of its copies: a task resident or queued when its world
// ended still holds its record, and the record's next tenant must restart
// from its own image. Identity (ID, App), sizing (Work, ImageBytes) and the
// callbacks are kept; call sites that reuse a record for different work
// overwrite those fields directly. Resetting a placed task is an error:
// the hosting machine's accounting still references it.
func (t *Task) Reset() error {
	if t.machine != nil {
		return fmt.Errorf("sim: cannot reset task %q while placed on %s", t.ID, t.machine.Name())
	}
	t.CheckpointedWork = 0
	t.holders = t.holders[:0]
	t.doneWork = 0
	t.accumBase = 0
	t.finishKey = 0
	t.finished = false
	t.doneOn = nil
	// placements survives: it is the record's residency generation stamp,
	// and the auditor keys progress watermarks by (ID, generation). Zeroing
	// it would make a recycled incarnation collide with its predecessor's
	// watermark and report progress "moving backwards".
	return nil
}

// Reset returns the machine to its just-registered state: no residents, no
// accrued progress, idle owner, a fresh monitoring gauge. Identity (Spec,
// Index, cluster membership) and the reusable completion closure survive, so
// a recycled machine allocates nothing. Resident task records are detached,
// not mutated, and keep their checkpoint records — the caller owns their
// recycling (Task.Reset), which empties those. The pending
// completion event is cancelled natively, so Reset is safe both standalone
// and under Cluster.Reset (where the kernel reset invalidates the handle
// anyway). Reset does not notify change listeners: it is world teardown,
// not a simulation event.
func (m *Machine) Reset() {
	m.cluster.Sim.Cancel(m.pending)
	m.localLoad = 0
	m.suspended = false
	m.accum = 0
	m.lastUpdate = 0
	for i := range m.ordered {
		m.ordered[i].machine = nil
		m.ordered[i] = nil
	}
	m.ordered = m.ordered[:0]
	m.maxWork = 0
	m.pending = vtime.Event{}
	m.remoteBusy = metrics.TimeWeighted{}
}
