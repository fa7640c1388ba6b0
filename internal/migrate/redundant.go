package migrate

import (
	"fmt"
	"time"

	"vce/internal/sim"
)

// Redundant implements "process migration through redundant execution":
// the same task is dispatched on several idle machines; evicting one copy
// when its host gets busy "achieves process migration with low overhead
// because killing a task and using an already running redundant copy avoids
// the communication overhead of moving a process and its state information
// over the network" (§4.4).
type Redundant struct {
	sets map[string]*RedundantSet
}

// NewRedundant returns the redundant-execution strategy.
func NewRedundant() *Redundant {
	return &Redundant{sets: make(map[string]*RedundantSet)}
}

// RedundantSet tracks the live copies of one logically-single task.
type RedundantSet struct {
	// ID is the logical task identity.
	ID     string
	copies map[string]*sim.Task // machine name -> copy
	done   bool
	// WastedWork sums work burned on killed copies (the redundancy tax).
	WastedWork float64
}

// Copies returns the number of live copies.
func (s *RedundantSet) Copies() int { return len(s.copies) }

// Done reports whether the logical task completed.
func (s *RedundantSet) Done() bool { return s.done }

// Launch dispatches one copy of the task on each host. The first copy to
// finish completes the logical task and kills the others; onDone fires once.
func (r *Redundant) Launch(c *sim.Cluster, id string, work float64, image int64, hosts []*sim.Machine, onDone func(at time.Duration)) (*RedundantSet, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("migrate: redundant launch of %q needs at least one host", id)
	}
	if _, dup := r.sets[id]; dup {
		return nil, fmt.Errorf("migrate: redundant set %q exists", id)
	}
	set := &RedundantSet{ID: id, copies: make(map[string]*sim.Task)}
	r.sets[id] = set
	for i, h := range hosts {
		host := h
		copyID := fmt.Sprintf("%s#%d", id, i)
		t := &sim.Task{
			ID: copyID, App: id, Work: work, ImageBytes: image,
			OnDone: func(tk *sim.Task, at time.Duration) {
				if set.done {
					return
				}
				set.done = true
				// Kill the surviving redundant copies; their work
				// is the redundancy tax.
				for mName, cp := range set.copies {
					if cp == tk {
						delete(set.copies, mName)
						continue
					}
					if m, ok := c.Machine(mName); ok && m.Kill(cp) == nil {
						set.WastedWork += cp.DoneWork()
					}
					delete(set.copies, mName)
				}
				if onDone != nil {
					onDone(at)
				}
			},
		}
		if err := host.AddTask(t); err != nil {
			return nil, fmt.Errorf("migrate: launching copy on %s: %w", host.Name(), err)
		}
		set.copies[host.Name()] = t
	}
	return set, nil
}

// Set returns the redundant set for a logical task ID.
func (r *Redundant) Set(id string) (*RedundantSet, bool) {
	s, ok := r.sets[id]
	return s, ok
}

// Evict kills the copy on the named machine — the migration operation. It
// refuses to kill the last live copy (that would lose the task, not migrate
// it).
func (r *Redundant) Evict(c *sim.Cluster, id string, machine string) (Result, error) {
	set, ok := r.sets[id]
	if !ok {
		return Result{}, fmt.Errorf("migrate: no redundant set %q", id)
	}
	if set.done {
		return Result{}, fmt.Errorf("migrate: task %q already complete", id)
	}
	t, ok := set.copies[machine]
	if !ok {
		return Result{}, fmt.Errorf("migrate: no copy of %q on %s", id, machine)
	}
	if len(set.copies) <= 1 {
		return Result{}, fmt.Errorf("%w: %q has no surviving redundant copy", ErrNotApplicable, id)
	}
	m, ok := c.Machine(machine)
	if !ok {
		return Result{}, fmt.Errorf("migrate: unknown machine %q", machine)
	}
	if err := m.Kill(t); err != nil {
		return Result{}, err
	}
	delete(set.copies, machine)
	set.WastedWork += t.DoneWork()
	// No bytes move, no downtime: the surviving copies were already
	// running. The killed copy's progress is the only cost.
	return Result{Strategy: r.Name(), LostWork: t.DoneWork()}, nil
}

// Name implements Strategy.
func (r *Redundant) Name() string { return "redundant" }

// CanMigrate implements Strategy: the task's set must hold another live copy.
func (r *Redundant) CanMigrate(t *sim.Task, src, dst *sim.Machine) error {
	set, ok := r.sets[t.App]
	if !ok {
		return fmt.Errorf("%w: task %q was not dispatched redundantly", ErrNotApplicable, t.ID)
	}
	if set.Copies() <= 1 {
		return fmt.Errorf("%w: no surviving redundant copy of %q", ErrNotApplicable, t.App)
	}
	return nil
}

// Migrate implements Strategy: evict the copy on src. dst is ignored — a
// copy already runs elsewhere, which is the whole point.
func (r *Redundant) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	return r.Evict(c, t.App, src.Name())
}
