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
// downtime, and lost work.
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

// Migrate implements Strategy.
func (a AddressSpace) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := a.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	transfer, err := c.TransferTime(src.Name(), dst.Name(), t.ImageBytes)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	killed, err := src.Kill(t.ID)
	if err != nil {
		return Result{}, err
	}
	c.Sim.After(transfer, func() {
		// Progress froze at the kill; nothing is lost.
		_ = dst.AddTask(killed)
	})
	return Result{Strategy: a.Name(), BytesMoved: t.ImageBytes, Downtime: transfer}, nil
}

// ---- checkpoint-based ----

// Checkpointer drives periodic checkpoints for cooperative tasks and
// migrates from the latest checkpoint record. Checkpoint records live in the
// cluster's distributed file system, so restart cost depends on replica
// placement — which is what anticipatory file replication (§4.5) optimizes.
type Checkpointer struct {
	// Interval is the checkpoint period.
	Interval time.Duration

	bytesWritten int64
	checkpoints  int64
}

// NewCheckpointer returns a checkpoint-migration strategy with the given
// checkpoint period.
func NewCheckpointer(interval time.Duration) *Checkpointer {
	return &Checkpointer{Interval: interval}
}

// ckptPath names a task's checkpoint record in the vfs.
func ckptPath(id string) string { return "/ckpt/" + id }

// Attach begins periodic checkpointing of a placed task. Checkpoints stop
// when the task finishes or is no longer placed anywhere (killed without
// restart).
func (k *Checkpointer) Attach(c *sim.Cluster, t *sim.Task) error {
	if !t.Checkpointable {
		return fmt.Errorf("%w: task %q does not cooperate with checkpointing", ErrNotApplicable, t.ID)
	}
	if t.Machine() == nil {
		return fmt.Errorf("migrate: task %q not placed", t.ID)
	}
	var tick func()
	tick = func() {
		if t.Finished() {
			return
		}
		k.CheckpointNow(c, t)
		c.Sim.After(k.Interval, tick)
	}
	c.Sim.After(k.Interval, tick)
	return nil
}

// CheckpointNow captures one checkpoint of t immediately: progress syncs to
// the current virtual instant and the checkpoint record lands in the
// cluster file system at the hosting site. An unplaced or finished task is
// a no-op. Attach's periodic tick runs this same body; callers that manage
// their own cadence — the scenario engine's cell-wide checkpoint ticker —
// call it directly.
func (k *Checkpointer) CheckpointNow(c *sim.Cluster, t *sim.Task) {
	m := t.Machine()
	if m == nil || t.Finished() {
		return
	}
	m.Sync()
	t.CheckpointedWork = t.DoneWork()
	k.checkpoints++
	k.bytesWritten += t.ImageBytes
	site := m.Name()
	path := ckptPath(t.ID)
	if _, ok := c.FS.Stat(path); !ok {
		_ = c.FS.Create(path, t.ImageBytes, site)
	} else {
		if !c.FS.HasCurrent(path, site) {
			_, _ = c.FS.Replicate(path, site)
		}
		_ = c.FS.Write(path, site, t.ImageBytes)
	}
}

// Forget removes t's checkpoint record from the cluster file system: a
// record lives as long as its task, so a later task reusing the ID never
// restarts from a stranger's image. A task with no record is a no-op.
func (k *Checkpointer) Forget(c *sim.Cluster, t *sim.Task) {
	c.FS.Remove(ckptPath(t.ID))
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

// Migrate implements Strategy: kill, restore from the checkpoint record,
// redo the work since the last checkpoint.
func (k *Checkpointer) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := k.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	killed, err := src.Kill(t.ID)
	if err != nil {
		return Result{}, err
	}
	lost := killed.DoneWork() - killed.CheckpointedWork
	if lost < 0 {
		lost = 0
	}
	// Restart cost: move the checkpoint record to dst unless a current
	// replica is already there (anticipatory replication's win).
	var moved int64
	path := ckptPath(t.ID)
	if _, ok := c.FS.Stat(path); ok {
		moved, _ = c.FS.Replicate(path, dst.Name())
	} else {
		moved = t.ImageBytes // no record yet: ship the initial image
	}
	transfer, err := c.TransferTime(src.Name(), dst.Name(), moved)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	if err := killed.Rewind(killed.CheckpointedWork); err != nil {
		return Result{}, err
	}
	c.Sim.After(transfer, func() {
		_ = dst.AddTask(killed)
	})
	return Result{Strategy: k.Name(), BytesMoved: moved, Downtime: transfer, LostWork: lost}, nil
}

// ---- recompilation ----

// Recompile is heterogeneous migration by recompilation (Theimer & Hayes):
// portable at the price of a compile on the destination architecture plus a
// portable-state transfer. With the compilation manager's cache warm (the
// §4.1 prepare-everything policy or §4.5 anticipatory compilation), the
// compile cost vanishes — that interaction is experiment E7's ablation.
type Recompile struct {
	// Compiler prices (and caches) compilations; required.
	Compiler *compilemgr.Manager
	// Cost prices a compile when Compiler is nil (pure cost model).
	Cost compilemgr.CostModel
	// StateFraction sizes portable state relative to the image
	// (default 0.1).
	StateFraction float64
	// Program is the source program path for cache lookups.
	Program string
	// Language records the source language for the produced binary.
	Language string
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

func (r *Recompile) stateFraction() float64 {
	if r.StateFraction <= 0 {
		return 0.1
	}
	return r.StateFraction
}

// Migrate implements Strategy.
func (r *Recompile) Migrate(c *sim.Cluster, t *sim.Task, src, dst *sim.Machine) (Result, error) {
	if err := r.CanMigrate(t, src, dst); err != nil {
		return Result{}, err
	}
	killed, err := src.Kill(t.ID)
	if err != nil {
		return Result{}, err
	}
	stateBytes := int64(float64(t.ImageBytes) * r.stateFraction())
	transfer, err := c.TransferTime(src.Name(), dst.Name(), stateBytes)
	if err != nil {
		return Result{}, fmt.Errorf("migrate: %w", err)
	}
	compile := time.Duration(0)
	if r.Compiler != nil && r.Program != "" {
		if !r.Compiler.HasBinaryFor(r.Program, dst.Spec) {
			compile = r.Cost.CompileTime(t.ImageBytes)
			// Record the binary so repeated migrations reuse it.
			shim := taskgraph.Task{ID: "migrate-shim", Program: r.Program, Language: r.Language, ImageBytes: t.ImageBytes}
			_, _ = r.Compiler.Prepare(shim, compilemgr.TargetOf(dst.Spec))
		}
	} else {
		compile = r.Cost.CompileTime(t.ImageBytes)
	}
	downtime := transfer + compile
	c.Sim.After(downtime, func() {
		_ = dst.AddTask(killed)
	})
	// Portable state preserves progress; the cost is downtime, not redo.
	return Result{Strategy: r.Name(), BytesMoved: stateBytes, Downtime: downtime}, nil
}
