// Package migrate implements the four process-migration approaches of §4.4,
// which the paper says the execution layer "should have several of ... in
// its repertoire":
//
//   - Redundant execution: "Dispatch the same task on several idle machines.
//     If one of those machines gets busy ... kill the incarnation of the
//     redundant task on that machine." Low overhead: no state moves.
//   - Checkpointing: "Migratable jobs checkpoint regularly. To migrate a job
//     kill it and start it somewhere else ... from the checkpoint record."
//     Expensive and "may require the cooperation of the task involved."
//   - The old-fashioned way: "dump the contents of the address space, copy
//     it to a new machine and restart it." Requires homogeneity.
//   - Recompilation: "very expensive but may be very robust" — works across
//     architectures (Theimer & Hayes).
//
// Each strategy reports the costs the §4.4 comparison turns on: bytes moved,
// downtime, and lost work. A strategy prices a move in one place (its
// unexported price, read at the current virtual instant without changing
// anything): Migrate charges exactly that price, and the adaptive picker's
// Estimate reads it. Migrate prices before it kills, so a move that cannot
// happen leaves the task where it was. A migration kills the task record on
// its source, applies the strategy's side effects (a checkpoint restart
// rewinds the record; a recompilation fills the compiler cache) and lands
// the same record on the destination once the downtime has passed.
//
// Checkpoints follow one cadence per cluster (Checkpointer.Start): "migratable
// jobs checkpoint regularly", and a task holds no tick of its own.
package migrate

import (
	"errors"
	"fmt"
	"time"

	"vce/internal/compilemgr"
	"vce/internal/sim"
	"vce/internal/taskgraph"
)

// Result quantifies one migration.
type Result struct {
	// Strategy names the mechanism used.
	Strategy string
	// BytesMoved counts state transferred over the network.
	BytesMoved int64
	// Downtime is how long the task executes nowhere.
	Downtime time.Duration
	// LostWork is work units discarded and redone (or, for redundant
	// execution, burned on the killed copy).
	LostWork float64
}

// Strategy is one migration mechanism.
type Strategy interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// CanMigrate reports whether the task can move from src to dst.
	CanMigrate(t *sim.Task, src, dst *sim.Machine) error
	// Migrate moves the task, scheduling its resume on the cluster's
	// simulation kernel, and returns the costs.
	Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error)
}

// ErrNotApplicable marks a strategy that cannot serve this task/pair.
var ErrNotApplicable = errors.New("migrate: strategy not applicable")

// The refusals of a heterogeneous machine pair. An evacuation scan asks
// CanMigrate once per idle candidate and keeps only the nil answers, so on a
// mixed fleet these are returned per candidate per scan: they are immutable
// values, not formatted per call.
var (
	errAddressSpaceHeterogeneous = fmt.Errorf("%w: address-space copy requires homogeneity (same class, OS and byte order)", ErrNotApplicable)
	errCheckpointHeterogeneous   = fmt.Errorf("%w: checkpoint image is architecture-specific", ErrNotApplicable)
)

// ---- address-space copy ----

// AddressSpace is "process migration the old-fashioned way": freeze, copy
// the address space, restart. Zero lost work, but "it requires homogeneity"
// — identical architecture, OS and byte order.
type AddressSpace struct{}

// Name implements Strategy.
func (AddressSpace) Name() string { return "address-space" }

// CanMigrate implements Strategy.
func (AddressSpace) CanMigrate(t *sim.Task, src, dst *sim.Machine) error {
	if t == nil || src == nil || dst == nil {
		return fmt.Errorf("migrate: nil argument")
	}
	if !src.Spec.ObjectCodeCompatible(dst.Spec) {
		return errAddressSpaceHeterogeneous
	}
	return nil
}

// price is one image transfer; progress freezes at the kill, so nothing is
// lost.
func (a AddressSpace) price(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := a.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	transfer, err := c.TransferTime(src.Name(), dst.Name(), t.ImageBytes)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	return Result{Strategy: a.Name(), BytesMoved: t.ImageBytes, Downtime: transfer}, nil
}

// Migrate implements Strategy.
func (a AddressSpace) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	r, err := a.price(c, t, src, dst)
	if err != nil {
		return Result{}, err
	}
	if err := src.Kill(t); err != nil {
		return Result{}, err
	}
	land(c, t, dst, r)
	return r, nil
}

// land places the killed record t on dst once the move's downtime has
// passed. The record is unplaced and unfinished, so only a resident of dst
// with the same ID could refuse it; task IDs are unique in every caller.
func land(c *sim.Cluster, t *sim.Task, dst *sim.Machine, r Result) {
	c.Sim.After(r.Downtime, func() { _ = dst.AddTask(t) })
}

// ---- checkpoint-based ----

// Checkpointer checkpoints cooperative tasks on a cluster-wide cadence
// (Start) and migrates from the latest checkpoint record. The record is part
// of its task (sim.Task.Checkpoint): the machines holding a current copy,
// so restart cost depends on where the copies are — which is what
// anticipatory replication (§4.5) optimizes — and the record ends with the
// task.
type Checkpointer struct {
	// Interval is the checkpoint period.
	Interval time.Duration

	bytesWritten int64
	checkpoints  int64
	// residents is the cadence's reused walk buffer.
	residents []*sim.Task
}

// NewCheckpointer returns a checkpoint-migration strategy with the given
// checkpoint period.
func NewCheckpointer(interval time.Duration) *Checkpointer {
	return &Checkpointer{Interval: interval}
}

// Start begins the cluster's one checkpoint cadence: every Interval from
// now, each checkpointable resident checkpoints, machines in registration
// order and residents in ID order. A task holds no tick of its own, so the
// cadence has no per-task phase and nothing outlives a task record. A tick
// that finds nothing else pending in the kernel schedules no successor:
// nothing is left that could move a resident, and a drained simulation
// still ends.
func (k *Checkpointer) Start(c *sim.Cluster) {
	var tick func()
	tick = func() {
		for _, m := range c.Machines() {
			if m.RemoteTasks() == 0 {
				continue // AppendTasks copies and sorts; idle machines skip it
			}
			k.residents = m.AppendTasks(k.residents[:0])
			for _, t := range k.residents {
				if t.Checkpointable {
					k.checkpoint(t)
				}
			}
		}
		if c.Sim.Pending() > 0 {
			c.Sim.After(k.Interval, tick)
		}
	}
	c.Sim.After(k.Interval, tick)
}

// checkpoint captures one checkpoint of resident t, an image written at its
// host.
func (k *Checkpointer) checkpoint(t *sim.Task) {
	t.Checkpoint()
	k.checkpoints++
	k.bytesWritten += t.ImageBytes
}

// Stats returns (checkpoints taken, checkpoint bytes written).
func (k *Checkpointer) Stats() (int64, int64) { return k.checkpoints, k.bytesWritten }

// Name implements Strategy.
func (k *Checkpointer) Name() string { return "checkpoint" }

// CanMigrate implements Strategy.
func (k *Checkpointer) CanMigrate(t *sim.Task, src, dst *sim.Machine) error {
	if !t.Checkpointable {
		return fmt.Errorf("%w: task %q does not cooperate with checkpointing", ErrNotApplicable, t.ID)
	}
	// Checkpoint restart loads the saved image; the destination must be
	// able to execute the same binary the checkpoint was taken on.
	if !src.Spec.ObjectCodeCompatible(dst.Spec) {
		return errCheckpointHeterogeneous
	}
	return nil
}

// price is the restart's record transfer plus the work done since the last
// checkpoint. The image moves unless a current copy of the record is
// already at dst (anticipatory replication's win); with no record yet, the
// initial image ships. Progress syncs to now, as the kill's would.
func (k *Checkpointer) price(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := k.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	moved := t.ImageBytes
	if t.CheckpointOn(dst) {
		moved = 0
	}
	transfer, err := c.TransferTime(src.Name(), dst.Name(), moved)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	src.Sync()
	lost := max(0, t.DoneWork()-t.CheckpointedWork)
	return Result{Strategy: k.Name(), BytesMoved: moved, Downtime: transfer, LostWork: lost}, nil
}

// Migrate implements Strategy: kill, restore from the checkpoint record,
// redo the work since the last checkpoint.
func (k *Checkpointer) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	r, err := k.price(c, t, src, dst)
	if err != nil {
		return Result{}, err
	}
	if err := src.Kill(t); err != nil {
		return Result{}, err
	}
	// The record, if any, follows the task (a no-op for a current copy).
	_ = t.ReplicateCheckpoint(dst)
	// t is unplaced and unfinished, and a checkpoint never records more
	// than its work, so the rewind cannot fail.
	_ = t.Rewind(t.CheckpointedWork)
	land(c, t, dst, r)
	return r, nil
}

// ---- recompilation ----

// stateFraction sizes a recompiled task's portable state relative to its
// image.
const stateFraction = 0.1

// Recompile is heterogeneous migration by recompilation (Theimer & Hayes):
// portable at the price of a compile on the destination architecture plus a
// portable-state transfer. With the compilation manager's cache warm (the
// §4.1 prepare-everything policy or §4.5 anticipatory compilation), the
// compile cost vanishes — that interaction is experiment E7's ablation.
type Recompile struct {
	// Compiler caches compilations; without it (or without Program) every
	// migration pays Cost's compile.
	Compiler *compilemgr.Manager
	// Cost prices a compile.
	Cost compilemgr.CostModel
	// Program is the source program path for cache lookups.
	Program string
}

// Name implements Strategy.
func (r *Recompile) Name() string { return "recompile" }

// CanMigrate implements Strategy: recompilation is the most robust
// mechanism; any pair with a reachable network qualifies.
func (r *Recompile) CanMigrate(t *sim.Task, src, dst *sim.Machine) error {
	if t == nil || src == nil || dst == nil {
		return fmt.Errorf("migrate: nil argument")
	}
	return nil
}

// cold reports whether moving to dst needs a compile: the compiler cache
// holds no binary of the program for dst's target.
func (r *Recompile) cold(dst *sim.Machine) bool {
	return r.Compiler == nil || r.Program == "" || !r.Compiler.HasBinaryFor(r.Program, dst.Spec)
}

// price is the portable-state transfer plus a compile unless the cache is
// warm for dst. Portable state preserves progress; the cost is downtime,
// not redo.
func (r *Recompile) price(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := r.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	state := int64(float64(t.ImageBytes) * stateFraction)
	downtime, err := c.TransferTime(src.Name(), dst.Name(), state)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	if r.cold(dst) {
		downtime += r.Cost.CompileTime(t.ImageBytes)
	}
	return Result{Strategy: r.Name(), BytesMoved: state, Downtime: downtime}, nil
}

// Migrate implements Strategy.
func (r *Recompile) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	p, err := r.price(c, t, src, dst)
	if err != nil {
		return Result{}, err
	}
	if err := src.Kill(t); err != nil {
		return Result{}, err
	}
	if r.Compiler != nil && r.Program != "" && r.cold(dst) {
		// Record the binary so repeated migrations reuse it.
		shim := taskgraph.Task{ID: "migrate-shim", Program: r.Program, ImageBytes: t.ImageBytes}
		_, _ = r.Compiler.Prepare(shim, compilemgr.TargetOf(dst.Spec))
	}
	land(c, t, dst, p)
	return p, nil
}
