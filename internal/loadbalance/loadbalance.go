// Package loadbalance decides what happens to remote work when a
// workstation's owner returns, the choice §4.3–§4.4 contrast:
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
//     whichever migration strategy applies. It is Stealth plus evacuation:
//     a task with nowhere to go, or whose move fails, suspends by Stealth's
//     rule, and Stealth alone resumes it.
//
// Every policy reads one threshold set, the package constants Hi, Lo and
// IdleBelow; the scenario engine's placement gate reads Hi too.
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

// The owner-load thresholds, as fractions of a machine's capacity.
const (
	// Hi is the local load at or above which an owner counts as active:
	// remote tasks suspend or evacuate, and no new ones are placed.
	Hi = 0.8
	// Lo is the local load at or below which suspended tasks resume. The
	// band between Lo and Hi is the suspension's hysteresis.
	Lo = 0.2
	// IdleBelow is the local load under which a machine with no remote
	// tasks is idle: a placement or evacuation destination.
	IdleBelow = 0.5
)

// Stealth suspends remote tasks while the owner is active.
type Stealth struct {
	// Suspensions and Resumes count transitions.
	Suspensions, Resumes int64
}

// NewStealth returns the Krueger-style suspension policy.
func NewStealth() *Stealth { return &Stealth{} }

// Attach hooks the policy to cluster change events.
func (s *Stealth) Attach(c *sim.Cluster) {
	c.OnChange(func(m *sim.Machine, now time.Duration) {
		s.react(m)
	})
}

func (s *Stealth) react(m *sim.Machine) {
	if m.LocalLoad() >= Hi && m.RemoteTasks() > 0 {
		s.suspend(m)
	} else if m.LocalLoad() <= Lo && m.Suspended() {
		m.SetSuspended(false)
		s.Resumes++
	}
}

// suspend freezes m's remote tasks unless they already are.
func (s *Stealth) suspend(m *sim.Machine) {
	if !m.Suspended() {
		m.SetSuspended(true)
		s.Suspensions++
	}
}

// VCEMigrate moves tasks off busy machines to idle ones. The embedded
// Stealth is its suspension rule: it suspends a machine whose residents
// cannot all leave, and resumes it once the owner goes.
type VCEMigrate struct {
	Stealth
	// Strategy performs the moves.
	Strategy migrate.Strategy

	// Migrations counts completed moves.
	Migrations int64

	// bytesMoved is the running state-transfer total: fixed-size however
	// many migrations a long streaming cell performs.
	bytesMoved int64

	// tasks and idle are react's and pickDestination's reused buffers, so an
	// evacuation allocates no per-event slices. react runs only inside the
	// cluster's change fan-out, which queues the changes its migrations
	// cause instead of re-entering it, so one of each suffices.
	tasks []*sim.Task
	idle  []*sim.Machine
}

// NewVCEMigrate returns the migration policy over the given strategy.
func NewVCEMigrate(strategy migrate.Strategy) *VCEMigrate {
	return &VCEMigrate{Strategy: strategy}
}

// Attach hooks the policy to cluster change events.
func (v *VCEMigrate) Attach(c *sim.Cluster) {
	c.OnChange(func(m *sim.Machine, now time.Duration) {
		v.react(c, m)
	})
}

func (v *VCEMigrate) react(c *sim.Cluster, m *sim.Machine) {
	if m.LocalLoad() < Hi || m.RemoteTasks() == 0 {
		v.Stealth.react(m)
		return
	}
	// Owner is active: evacuate residents to idle machines. The walk is
	// over a copy, since every migration removes a resident.
	v.tasks = m.AppendTasks(v.tasks[:0])
	for _, t := range v.tasks {
		dst := v.pickDestination(c, m, t)
		if dst == nil {
			v.suspend(m) // nowhere to go
			return
		}
		res, err := v.Strategy.Migrate(c, t, m, dst)
		if err != nil {
			v.suspend(m)
			return
		}
		v.Migrations++
		v.bytesMoved += res.BytesMoved
	}
}

func (v *VCEMigrate) pickDestination(c *sim.Cluster, src *sim.Machine, t *sim.Task) *sim.Machine {
	v.idle = c.AppendIdleMachines(v.idle[:0], IdleBelow)
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
	// Placed counts dispatches.
	Placed int64

	queue []*sim.Task
	// idle is drain's reused buffer. A placement may re-enter drain through
	// the change fan-out and refill it; the outer drain reads it only
	// before placing, then refills it on its next iteration.
	idle []*sim.Machine
}

// NewDAWGS returns the non-preemptive idle-workstation queue.
func NewDAWGS() *DAWGS { return &DAWGS{} }

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
		d.idle = c.AppendIdleMachines(d.idle[:0], IdleBelow)
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
