package sim

import (
	"fmt"
	"time"
)

// Auditor is the engine-wide invariant monitor behind `vcebench check`: it
// attaches to a cluster's kernel audit hook (vtime.Sim.SetAuditHook) and
// change notifications, re-derives the simulation's accounting from public
// machine state, and records every disagreement as a violation.
//
// Checked invariants:
//
//   - virtual-time monotonicity: the kernel fires events at non-decreasing
//     instants (a heap-ordering bug surfaces here);
//   - conservation of work: each machine's progress accumulator equals the
//     auditor's independent event-by-event integral of the processor-sharing
//     rate — speed × max(0, 1−localLoad) / residents, zero when suspended —
//     so any drift in the O(1) accounting (a broken advance, a skipped
//     advance before a state mutation, a wrong rate) is caught;
//   - per-task progress sanity: a resident task's DoneWork never decreases
//     and never exceeds its Work.
//
// The auditor is an observer: it never mutates engine state the engine would
// not have reached itself (its only writes are Machine.advance calls to
// instants the machine is about to advance to anyway), so an audited run
// produces indexes identical to an unaudited one. The per-event full-fleet
// walk makes auditing O(machines) per event — a harness cost, not a
// production mode.
type Auditor struct {
	c       *Cluster
	started bool
	lastAt  time.Duration

	// accum is the independent per-machine integral, indexed by
	// Machine.Index; done is the per-residency progress high-water mark.
	accum []float64
	done  map[string]watermark

	violations []string
	// Dropped counts violations discarded after the cap; the first
	// maxViolations messages are kept verbatim.
	Dropped int
}

// maxViolations caps the retained messages: a systematically broken engine
// violates on every event, and the first few disagreements carry all the
// signal.
const maxViolations = 8

// AttachAuditor wires an Auditor to the cluster's kernel and change hooks.
// Attach before running; one auditor per cluster (it claims the kernel's
// audit hook).
// watermark is one resident task's progress high-water mark, scoped to a
// single residency by the task's placement generation (Task.placements —
// accumulator baselines can collide across machines, e.g. two virgin
// machines both at zero). Progress may legitimately move backwards ACROSS
// residencies (a checkpoint restart rewinds to the last checkpoint), but
// never within one.
type watermark struct {
	placement int
	done      float64
}

func AttachAuditor(c *Cluster) *Auditor {
	a := &Auditor{c: c, done: make(map[string]watermark)}
	c.Sim.SetAuditHook(a.observe)
	c.OnChange(a.onChange)
	return a
}

// Violatef records one violation message, capping retention. Observers
// layered on the auditor (the scenario cell's fleet-snapshot check) report
// through it too.
func (a *Auditor) Violatef(format string, args ...interface{}) {
	if len(a.violations) >= maxViolations {
		a.Dropped++
		return
	}
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

// rate re-derives the per-task processor-sharing rate from public machine
// state, independently of Machine.remoteRatePerTask — deliberately duplicated
// arithmetic, so a bug in the engine's formula disagrees with the audit.
func auditRate(m *Machine) float64 {
	if m.suspended || len(m.ordered) == 0 {
		return 0
	}
	return m.Spec.Speed * maxf(0, 1-m.localLoad) / float64(len(m.ordered))
}

// observe is the kernel audit hook: called at every fired event, after the
// clock advanced and before the callback runs. Machine state is constant
// since the previous event's callbacks finished, so accruing rate × dt here
// integrates delivered work exactly.
func (a *Auditor) observe(at time.Duration) {
	if a.started && at < a.lastAt {
		a.Violatef("vtime: event fired at %v after an event at %v — virtual time ran backwards", at, a.lastAt)
	}
	a.accrue(at)
	a.started = true
	a.lastAt = at
}

// accrue advances the independent integrals to now.
func (a *Auditor) accrue(now time.Duration) {
	dt := (now - a.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	for _, m := range a.c.machines {
		for len(a.accum) <= m.index {
			a.accum = append(a.accum, 0)
		}
		if r := auditRate(m); r > 0 {
			a.accum[m.index] += r * dt
		}
	}
}

// conservationTolerance bounds the acceptable float divergence between the
// engine's one-step-per-touch accumulator and the auditor's
// one-step-per-event integral: both sum the same piecewise-constant rates,
// so only summation order differs — parts in 1e16 per step. A real
// accounting bug diverges linearly in simulated time and crosses this
// within a handful of events.
func conservationTolerance(accum float64) float64 {
	return 1e-6 + 1e-9*accum
}

// onChange runs on every machine mutation. The engine advances the machine's
// accumulator to now before mutating, and the kernel hook advanced the
// auditor's integral to the same instant, so the two must agree here.
func (a *Auditor) onChange(m *Machine, now time.Duration) {
	// Mutations before Run (fleet setup at t=0) precede any fired event; the
	// integrals are all zero and there is nothing to compare yet.
	if m.lastUpdate != now {
		// The engine did not advance this machine to the mutation instant —
		// itself a conservation bug (progress accrued at a stale rate), but
		// only when virtual time actually passed since the last advance.
		if a.started && now > m.lastUpdate {
			a.Violatef("sim: %s mutated at %v without advancing from %v", m.Name(), now, m.lastUpdate)
		}
		return
	}
	var audit float64
	if m.index < len(a.accum) {
		audit = a.accum[m.index]
	}
	if diff := m.accum - audit; diff > conservationTolerance(audit) || -diff > conservationTolerance(audit) {
		a.Violatef("sim: %s at %v: conservation of work violated: engine accumulator %v, audited integral %v (Δ=%g)",
			m.Name(), now, m.accum, audit, diff)
	}
	for _, t := range m.ordered {
		d := m.progress(t)
		if d < 0 || d > t.Work {
			a.Violatef("sim: task %s on %s at %v: progress %v outside [0, %v]", t.ID, m.Name(), now, d, t.Work)
		}
		if prev, seen := a.done[t.ID]; seen && prev.placement == t.placements && d < prev.done-1e-9 {
			a.Violatef("sim: task %s on %s at %v: progress moved backwards within a residency: %v after %v",
				t.ID, m.Name(), now, d, prev.done)
		}
		a.done[t.ID] = watermark{placement: t.placements, done: d}
	}
}

// Finish settles the integrals at the run's end instant and runs a final
// conservation comparison across the fleet. Call once, after the kernel has
// quiesced (RunUntil returned).
func (a *Auditor) Finish() {
	now := a.c.Sim.Now()
	a.accrue(now)
	a.lastAt = now
	for _, m := range a.c.machines {
		m.advance(now)
		a.onChange(m, now)
	}
}

// Violations returns the recorded violation messages (nil when every checked
// invariant held). Dropped reports how many further messages were capped.
func (a *Auditor) Violations() []string {
	return a.violations
}
