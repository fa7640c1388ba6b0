package migrate

import (
	"fmt"
	"time"

	"vce/internal/sim"
)

// Estimator predicts a migration's effective cost in seconds of delay:
// downtime plus the time to redo lost work on the destination. The picker
// uses estimates to choose among applicable strategies — §4.4: "Which of
// these will be used for any particular migration will depend on the state
// of the system and the characteristics of the task(s) involved."
type Estimator interface {
	Estimate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (time.Duration, error)
}

// redoTime converts lost work into destination-seconds.
func redoTime(work float64, dst *sim.Machine) time.Duration {
	speed := dst.Spec.Speed
	if speed <= 0 {
		speed = 1
	}
	return time.Duration(work / speed * float64(time.Second))
}

// Estimate implements Estimator: killing a redundant copy costs nothing in
// delay (a live copy keeps running).
func (r *Redundant) Estimate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (time.Duration, error) {
	if err := r.CanMigrate(t, src, dst); err != nil {
		return 0, err
	}
	return 0, nil
}

// Estimate implements Estimator: the move's downtime.
func (a AddressSpace) Estimate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (time.Duration, error) {
	r, err := a.price(c, t, src, dst)
	return r.Downtime, err
}

// Estimate implements Estimator: the record transfer plus redoing the work
// done since the last checkpoint.
func (k *Checkpointer) Estimate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (time.Duration, error) {
	r, err := k.price(c, t, src, dst)
	return r.Downtime + redoTime(r.LostWork, dst), err
}

// Estimate implements Estimator: the move's downtime.
func (r *Recompile) Estimate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (time.Duration, error) {
	p, err := r.price(c, t, src, dst)
	return p.Downtime, err
}

// Picker is the adaptive strategy: it holds the execution layer's
// "repertoire" (§4.4) and delegates each migration to the applicable
// strategy with the lowest estimated cost.
type Picker struct {
	// Repertoire lists candidate strategies; each must also implement
	// Estimator.
	Repertoire []Strategy

	// Picks counts how often each strategy was chosen, by name.
	Picks map[string]int
}

// NewPicker builds an adaptive strategy over the given repertoire.
func NewPicker(repertoire ...Strategy) (*Picker, error) {
	if len(repertoire) == 0 {
		return nil, fmt.Errorf("migrate: empty repertoire")
	}
	for _, s := range repertoire {
		if _, ok := s.(Estimator); !ok {
			return nil, fmt.Errorf("migrate: strategy %s cannot estimate costs", s.Name())
		}
	}
	return &Picker{Repertoire: repertoire, Picks: make(map[string]int)}, nil
}

// Name implements Strategy.
func (p *Picker) Name() string { return "adaptive" }

// CanMigrate implements Strategy: the picker applies wherever any member of
// the repertoire applies.
func (p *Picker) CanMigrate(t *sim.Task, src, dst *sim.Machine) error {
	var lastErr error
	for _, s := range p.Repertoire {
		if err := s.CanMigrate(t, src, dst); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return fmt.Errorf("%w: no applicable strategy (last: %v)", ErrNotApplicable, lastErr)
}

// Choose returns the applicable strategy with the lowest estimated cost.
func (p *Picker) Choose(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Strategy, time.Duration, error) {
	var best Strategy
	var bestCost time.Duration
	for _, s := range p.Repertoire {
		est, err := s.(Estimator).Estimate(c, t, src, dst)
		if err != nil {
			continue
		}
		if best == nil || est < bestCost {
			best = s
			bestCost = est
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: no applicable strategy for %q %s→%s", ErrNotApplicable, t.ID, src.Name(), dst.Name())
	}
	return best, bestCost, nil
}

// Migrate implements Strategy: choose, record, delegate.
func (p *Picker) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	best, _, err := p.Choose(c, t, src, dst)
	if err != nil {
		return Result{}, err
	}
	p.Picks[best.Name()]++
	return best.Migrate(c, t, src, dst)
}
