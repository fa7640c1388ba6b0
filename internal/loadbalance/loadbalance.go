// Package loadbalance implements the workload-balancing policies §4.3–§4.4
// contrast:
//
//   - Stealth (Krueger & Chawla): "suspend (or drastically reduce the local
//     dispatching priority of) remotely initiated tasks when resource
//     requirements of locally initiated processes increase", resuming "when
//     activity of locally initiated tasks diminishes". No migration needed —
//     and no escape from a busy machine.
//   - DAWGS (Clark & McMillin): a distributed compute server that places
//     queued jobs on idle workstations only (non-preemptive placement);
//     Stealth beside it suspends them once the owner returns.
//   - VCEMigrate: the paper's position — when a host gets busy, move the
//     task "from a less suitable machine to a more suitable machine" using
//     whichever migration strategy applies, falling back to suspension only
//     when no idle machine exists.
//
// The §4.3 ripple-effect claim — suspension "could delay initiation of other
// tasks dependent on the output of the suspended task" — is exactly the
// difference experiment E8 measures between Stealth and VCEMigrate.
package loadbalance

import (
	"time"

	"vce/internal/migrate"
	"vce/internal/sim"
)

// Stealth suspends remote tasks while the owner is active.
type Stealth struct {
	// Hi is the local load at or above which remote tasks suspend.
	Hi float64
	// Lo is the local load at or below which they resume.
	Lo float64

	// Suspensions and Resumes count transitions.
	Suspensions, Resumes int64
}

// NewStealth returns the Krueger-style suspension policy with the given
// hysteresis band.
func NewStealth(hi, lo float64) *Stealth { return &Stealth{Hi: hi, Lo: lo} }

// Name identifies the policy.
func (s *Stealth) Name() string { return "stealth-suspend" }

// Attach hooks the policy to cluster change events.
func (s *Stealth) Attach(c *sim.Cluster) {
	c.OnChange(func(m *sim.Machine, now time.Duration) {
		s.react(m)
	})
}

func (s *Stealth) react(m *sim.Machine) {
	if m.LocalLoad() >= s.Hi && !m.Suspended() && m.RemoteTasks() > 0 {
		m.SetSuspended(true)
		s.Suspensions++
	} else if m.LocalLoad() <= s.Lo && m.Suspended() {
		m.SetSuspended(false)
		s.Resumes++
	}
}

// VCEMigrate moves tasks off busy machines to idle ones.
type VCEMigrate struct {
	// Hi is the local load at or above which residents are evacuated.
	Hi float64
	// Lo is the resume threshold for the suspension fallback.
	Lo float64
	// IdleBelow qualifies destination machines.
	IdleBelow float64
	// Strategy performs the moves.
	Strategy migrate.Strategy

	// Migrations and FallbackSuspends count what happened.
	Migrations       int64
	FallbackSuspends int64

	// bytesMoved is the running state-transfer total: fixed-size however
	// many migrations a long streaming cell performs.
	bytesMoved int64

	cluster *sim.Cluster
	// tasks and idle are react's and pickDestination's reused buffers, so an
	// evacuation allocates no per-event slices. react runs only inside the
	// cluster's change fan-out, which queues the changes its migrations
	// cause instead of re-entering it, so one of each suffices.
	tasks []*sim.Task
	idle  []*sim.Machine
}

// NewVCEMigrate returns the migration policy over the given strategy.
func NewVCEMigrate(hi, lo, idleBelow float64, strategy migrate.Strategy) *VCEMigrate {
	return &VCEMigrate{Hi: hi, Lo: lo, IdleBelow: idleBelow, Strategy: strategy}
}

// Name identifies the policy.
func (v *VCEMigrate) Name() string { return "vce-migrate" }

// Attach hooks the policy to cluster change events.
func (v *VCEMigrate) Attach(c *sim.Cluster) {
	v.cluster = c
	c.OnChange(func(m *sim.Machine, now time.Duration) {
		v.react(c, m)
	})
}

func (v *VCEMigrate) react(c *sim.Cluster, m *sim.Machine) {
	if m.LocalLoad() <= v.Lo && m.Suspended() {
		m.SetSuspended(false)
		return
	}
	if m.LocalLoad() < v.Hi || m.RemoteTasks() == 0 {
		return
	}
	// Owner is active: evacuate residents to idle machines. The walk is
	// over a copy, since every migration removes a resident.
	v.tasks = m.AppendTasks(v.tasks[:0])
	for _, t := range v.tasks {
		dst := v.pickDestination(c, m, t)
		if dst == nil {
			// Nowhere to go: fall back to Stealth behaviour.
			if !m.Suspended() {
				m.SetSuspended(true)
				v.FallbackSuspends++
			}
			return
		}
		res, err := v.Strategy.Migrate(c, t, m, dst)
		if err != nil {
			if !m.Suspended() {
				m.SetSuspended(true)
				v.FallbackSuspends++
			}
			return
		}
		v.Migrations++
		v.bytesMoved += res.BytesMoved
	}
}

func (v *VCEMigrate) pickDestination(c *sim.Cluster, src *sim.Machine, t *sim.Task) *sim.Machine {
	v.idle = c.AppendIdleMachines(v.idle[:0], v.IdleBelow)
	for _, cand := range v.idle {
		if cand == src {
			continue
		}
		if v.Strategy.CanMigrate(t, src, cand) == nil {
			return cand
		}
	}
	return nil
}

// TotalBytesMoved is the state transferred across all migrations.
func (v *VCEMigrate) TotalBytesMoved() int64 { return v.bytesMoved }

// DAWGS is the Clark & McMillin-style distributed compute server's
// placement queue: submitted jobs wait in a global queue for an idle
// workstation (non-preemptive placement). What happens to a placed job when
// its host's owner returns is a separate policy attached beside the queue:
// Stealth suspends it in place, VCEMigrate moves it.
type DAWGS struct {
	// IdleBelow is the local load under which a machine counts as idle.
	IdleBelow float64

	// Placed counts dispatches.
	Placed int64

	queue []*sim.Task
	// idle is drain's reused buffer. A placement may re-enter drain through
	// the change fan-out and refill it; the outer drain reads it only
	// before placing, then refills it on its next iteration.
	idle []*sim.Machine
}

// NewDAWGS returns the non-preemptive idle-workstation queue.
func NewDAWGS(idleBelow float64) *DAWGS {
	return &DAWGS{IdleBelow: idleBelow}
}

// Name identifies the policy.
func (d *DAWGS) Name() string { return "dawgs-queue" }

// Attach drains the queue on every cluster change event.
func (d *DAWGS) Attach(c *sim.Cluster) {
	c.OnChange(func(*sim.Machine, time.Duration) { d.drain(c) })
}

// Submit places the task on an idle machine or queues it until one appears.
func (d *DAWGS) Submit(c *sim.Cluster, t *sim.Task) {
	d.queue = append(d.queue, t)
	d.drain(c)
}

func (d *DAWGS) drain(c *sim.Cluster) {
	for len(d.queue) > 0 {
		d.idle = c.AppendIdleMachines(d.idle[:0], d.IdleBelow)
		if len(d.idle) == 0 {
			return
		}
		t := d.queue[0]
		d.queue = d.queue[1:]
		if err := d.idle[0].AddTask(t); err == nil {
			d.Placed++
		}
	}
}
