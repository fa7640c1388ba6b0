// Package antic implements the §4.5 processor-utilization machinery: free
// parallelism and anticipatory processing.
//
// Free parallelism: "when parallel processes are running on otherwise idle
// machines, efficiency is not a relevant measure of parallel performance,
// only speed-up needs to be considered" — so a task with an instance range
// (ASYNC 5-) may expand to soak up every idle machine. ExtraInstances
// computes that count; E9 sizes its parallel stage with it. The live
// dispatcher (exm) runs MinInstances.
//
// Anticipatory processing: "using idle workstations to perform processing
// that may or may not be required in the future" — anticipatory compilation
// ("compile it on one machine of each different architecture in the network
// so that, at run time, we will have our choice of where to dispatch it")
// and anticipatory file replication ("use idle resources to replicate those
// files at many sites that may be candidates to host the second module").
package antic

import (
	"fmt"
	"time"

	"vce/internal/compilemgr"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vfs"
)

// ExtraInstances computes how many instances a task should actually get
// under free parallelism: at least min, up to max (0 = unbounded by the
// task), capped by available idle machines.
func ExtraInstances(min, max, idle int) int {
	if min <= 0 {
		min = 1
	}
	n := idle
	if n < min {
		n = min
	}
	if max > 0 && n > max {
		n = max
	}
	return n
}

// CompilePlan is one anticipatory compilation: produce the task's binary
// for one target before the task is dispatchable.
type CompilePlan struct {
	// Task is the future task.
	Task taskgraph.TaskID
	// Target is the object-code signature to compile for.
	Target compilemgr.Target
	// Cost is the compile time an idle machine will spend.
	Cost time.Duration
}

// CompilationPlans lists the compilations that would remove dispatch-time
// compile latency for every task that is not yet dispatchable (its
// precedence predecessors are incomplete). Already-cached targets produce
// no plan.
func CompilationPlans(mgr *compilemgr.Manager, g *taskgraph.Graph, done, started map[taskgraph.TaskID]bool) []CompilePlan {
	ready := make(map[taskgraph.TaskID]bool)
	for _, id := range g.Ready(done, started) {
		ready[id] = true
	}
	var plans []CompilePlan
	for _, t := range g.Tasks() {
		if done[t.ID] || started[t.ID] || ready[t.ID] {
			continue // current work; anticipation targets the future
		}
		for _, target := range mgr.Targets(t) {
			if _, cached := mgr.Lookup(t.Program, target); cached {
				continue
			}
			plans = append(plans, CompilePlan{
				Task:   t.ID,
				Target: target,
				Cost:   mgr.CostModel().CompileTime(t.ImageBytes),
			})
		}
	}
	return plans
}

// ExecuteCompile occupies an idle simulated machine with one anticipatory
// compilation; the binary cache warms when it completes. The returned task
// lets callers observe or cancel the work.
func ExecuteCompile(c *sim.Cluster, mgr *compilemgr.Manager, g *taskgraph.Graph, plan CompilePlan, host *sim.Machine) (*sim.Task, error) {
	task, ok := g.Task(plan.Task)
	if !ok {
		return nil, fmt.Errorf("antic: unknown task %q", plan.Task)
	}
	// The compile consumes host capacity for Cost seconds (at the host's
	// own speed — a fast machine compiles faster, matching CompileTime
	// being priced for a unit-speed machine).
	work := plan.Cost.Seconds()
	st := &sim.Task{
		ID:   fmt.Sprintf("antic-compile-%s-%s", plan.Task, plan.Target.Key()),
		App:  "anticipatory",
		Work: work,
		OnDone: func(_ *sim.Task, _ time.Duration) {
			_, _ = mgr.Prepare(task, plan.Target)
		},
	}
	if err := host.AddTask(st); err != nil {
		return nil, err
	}
	return st, nil
}

// ReplicatePlan is one anticipatory file replication.
type ReplicatePlan struct {
	// Path is the input file to pre-stage.
	Path string
	// Site is the candidate host to stage it at.
	Site string
	// Bytes is the transfer size (zero when already held).
	Bytes int64
}

// ReplicationPlans lists the input-file replications that would let each
// not-yet-dispatchable task start instantly at any of its candidate sites.
func ReplicationPlans(fs *vfs.FS, g *taskgraph.Graph, done, started map[taskgraph.TaskID]bool, candidates map[taskgraph.TaskID][]string) ([]ReplicatePlan, error) {
	ready := make(map[taskgraph.TaskID]bool)
	for _, id := range g.Ready(done, started) {
		ready[id] = true
	}
	var plans []ReplicatePlan
	for _, t := range g.Tasks() {
		if done[t.ID] || started[t.ID] || ready[t.ID] {
			continue
		}
		for _, site := range candidates[t.ID] {
			for _, path := range t.InputFiles {
				f, ok := fs.Stat(path)
				if !ok {
					return nil, fmt.Errorf("antic: input %q of task %s does not exist", path, t.ID)
				}
				if fs.HasReplica(path, site) {
					continue
				}
				plans = append(plans, ReplicatePlan{Path: path, Site: site, Bytes: f.Size})
			}
		}
	}
	return plans, nil
}

// ExecuteReplicate performs one staged replication on the simulated
// cluster: the bytes cross the network from the nearest replica, and the
// replica registers on arrival.
func ExecuteReplicate(c *sim.Cluster, fs *vfs.FS, plan ReplicatePlan) error {
	sites := fs.Sites(plan.Path)
	if len(sites) == 0 {
		return fmt.Errorf("antic: no replica of %q", plan.Path)
	}
	best := time.Duration(1<<62 - 1)
	for _, s := range sites {
		if d, err := c.TransferTime(s, plan.Site, plan.Bytes); err == nil && d < best {
			best = d
		}
	}
	if best == 1<<62-1 {
		return fmt.Errorf("antic: site %q unreachable from every replica of %q", plan.Site, plan.Path)
	}
	c.Sim.After(best, func() {
		_, _ = fs.Replicate(plan.Path, plan.Site)
	})
	return nil
}

// StageInLatency returns how long task dispatch to site would stall on
// input staging right now — the metric anticipatory replication drives to
// zero.
func StageInLatency(c *sim.Cluster, fs *vfs.FS, t taskgraph.Task, site string) (time.Duration, error) {
	bytes, err := fs.StageBytes(t.InputFiles, site)
	if err != nil {
		return 0, err
	}
	if bytes == 0 {
		return 0, nil
	}
	// Conservative: assume one source site for all missing bytes.
	var src string
	for _, p := range t.InputFiles {
		if sites := fs.Sites(p); len(sites) > 0 {
			src = sites[0]
			break
		}
	}
	if src == "" {
		return 0, fmt.Errorf("antic: inputs of %s have no replicas", t.ID)
	}
	return c.TransferTime(src, site, bytes)
}
