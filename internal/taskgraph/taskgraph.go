// Package taskgraph implements the VCE's central program representation
// (§3.1): "A VCE application is broken down into functional components called
// tasks, which are represented visually using a task graph. ... The nodes in
// the task graph are connected by arcs which define the communication and
// synchronization relationships among the tasks."
//
// Every SDM layer annotates this structure; the EXM consumes it to compile,
// place, run and migrate the application.
package taskgraph

import (
	"fmt"
	"time"

	"vce/internal/arch"
)

// TaskID names a task uniquely within a graph.
type TaskID string

// Hints carries the user-supplied information of §3.1.1 that lets "the
// execution module do extra optimization". exm reads all four: it orders each
// ready set by Priority, then ExpectedRuntime (script HINT RUNTIME/PRIORITY),
// and dispatches with Redundant and Retries.
type Hints struct {
	// ExpectedRuntime is the user's runtime estimate. Among tasks with equal
	// Priority, exm dispatches the longer one first (§3.1.1's example); a
	// zero estimate falls back to WorkUnits seconds.
	ExpectedRuntime time.Duration
	// Priority is an explicit user priority; "authorized users will be
	// able to modify the priorities of particular applications" (§4.3).
	// Higher dispatches first within a ready set.
	Priority int
	// Redundant asks for N-way redundant dispatch, enabling migration by
	// redundant execution (§4.4). Zero or one means no redundancy.
	Redundant int
	// Retries is how many times a failed instance is re-dispatched on a
	// fresh machine before the application aborts — the user-requested
	// fault tolerance of §3.1.2.
	Retries int
}

// Task is one node of the task graph.
type Task struct {
	// ID is the unique task name.
	ID TaskID
	// Program is the program path ("/apps/snow/predictor.vce").
	Program string
	// Problem is the design-stage problem-architecture class.
	Problem arch.ProblemClass
	// Nature lists extra design-stage classifications ("graphic",
	// "interactive") that "assist the lower layers" (§3.1.1).
	Nature []string
	// Language is the coding-level implementation language ("HPF",
	// "HPC++", "C").
	Language string
	// MinInstances and MaxInstances bound how many copies run
	// (script vocabulary "ASYNC 5-" and "SYNC 5,10", §5).
	MinInstances, MaxInstances int
	// Requirements constrain candidate machines.
	Requirements arch.Requirements
	// InputFiles and OutputFiles name vfs paths the task reads/writes.
	InputFiles, OutputFiles []string
	// Local marks the task as running on the user's workstation (the
	// LOCAL directive of §5).
	Local bool
	// WorkUnits is the simulated computation volume (one 1994
	// workstation executes 1.0 work units per second).
	WorkUnits float64
	// ImageBytes sizes the binary / address-space image; it drives
	// migration and dispatch transfer costs.
	ImageBytes int64
	// Hint is the user-supplied information block.
	Hint Hints
}

// Instances returns the minimum instance count, defaulting to 1.
func (t Task) Instances() int {
	if t.MinInstances <= 0 {
		return 1
	}
	return t.MinInstances
}

// ArcKind distinguishes the two relationships arcs encode.
type ArcKind uint8

const (
	// Precedence means To may not start until From completes (the
	// synchronization relationship).
	Precedence ArcKind = iota
	// Stream means From and To communicate over a channel while both run
	// (the communication relationship).
	Stream
)

// String implements fmt.Stringer.
func (k ArcKind) String() string {
	if k == Stream {
		return "stream"
	}
	return "precedence"
}

// Arc is one edge of the task graph.
type Arc struct {
	// From and To are the connected tasks.
	From, To TaskID
	// Kind is the relationship the arc encodes.
	Kind ArcKind
	// Channel optionally names the VCE channel carrying a Stream arc.
	Channel string
}

// Graph is an annotated task graph. It is not safe for concurrent mutation;
// the SDM builds it single-threaded and the EXM treats it as immutable.
type Graph struct {
	// Name identifies the application.
	Name  string
	tasks map[TaskID]*Task
	order []TaskID // insertion order, for deterministic iteration
	arcs  []Arc
}

// New returns an empty graph for the named application.
func New(name string) *Graph {
	return &Graph{Name: name, tasks: make(map[TaskID]*Task)}
}

// AddTask inserts a task. IDs must be unique and non-empty.
func (g *Graph) AddTask(t Task) error {
	if t.ID == "" {
		return fmt.Errorf("taskgraph: task with empty ID")
	}
	if _, dup := g.tasks[t.ID]; dup {
		return fmt.Errorf("taskgraph: duplicate task %q", t.ID)
	}
	if t.MaxInstances != 0 && t.MaxInstances < t.MinInstances {
		return fmt.Errorf("taskgraph: task %q has max instances %d < min %d", t.ID, t.MaxInstances, t.MinInstances)
	}
	copyT := t
	g.tasks[t.ID] = &copyT
	g.order = append(g.order, t.ID)
	return nil
}

// AddArc inserts an arc between existing tasks.
func (g *Graph) AddArc(a Arc) error {
	if _, ok := g.tasks[a.From]; !ok {
		return fmt.Errorf("taskgraph: arc from unknown task %q", a.From)
	}
	if _, ok := g.tasks[a.To]; !ok {
		return fmt.Errorf("taskgraph: arc to unknown task %q", a.To)
	}
	if a.From == a.To {
		return fmt.Errorf("taskgraph: self arc on %q", a.From)
	}
	g.arcs = append(g.arcs, a)
	return nil
}

// Task returns the named task.
func (g *Graph) Task(id TaskID) (Task, bool) {
	t, ok := g.tasks[id]
	if !ok {
		return Task{}, false
	}
	return *t, true
}

// UpdateTask replaces an existing task's annotation in place; the SDM layers
// use it to progressively annotate the graph.
func (g *Graph) UpdateTask(t Task) error {
	if _, ok := g.tasks[t.ID]; !ok {
		return fmt.Errorf("taskgraph: update of unknown task %q", t.ID)
	}
	copyT := t
	g.tasks[t.ID] = &copyT
	return nil
}

// Tasks returns every task in insertion order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, *g.tasks[id])
	}
	return out
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.order) }

// Arcs returns every arc in insertion order.
func (g *Graph) Arcs() []Arc {
	return append([]Arc(nil), g.arcs...)
}

// Predecessors returns the tasks that must complete before id starts.
func (g *Graph) Predecessors(id TaskID) []TaskID {
	var out []TaskID
	for _, a := range g.arcs {
		if a.Kind == Precedence && a.To == id {
			out = append(out, a.From)
		}
	}
	return out
}

// Successors returns the tasks unblocked (in part) by id completing.
func (g *Graph) Successors(id TaskID) []TaskID {
	var out []TaskID
	for _, a := range g.arcs {
		if a.Kind == Precedence && a.From == id {
			out = append(out, a.To)
		}
	}
	return out
}

// Peers returns the tasks connected to id by Stream arcs.
func (g *Graph) Peers(id TaskID) []TaskID {
	var out []TaskID
	for _, a := range g.arcs {
		if a.Kind != Stream {
			continue
		}
		if a.From == id {
			out = append(out, a.To)
		} else if a.To == id {
			out = append(out, a.From)
		}
	}
	return out
}

// Ready returns tasks whose precedence predecessors are all in done, and
// which are not themselves in done or started, in insertion order: the
// dispatchable frontier.
func (g *Graph) Ready(done, started map[TaskID]bool) []TaskID {
	var out []TaskID
	for _, id := range g.order {
		if done[id] || started[id] {
			continue
		}
		ok := true
		for _, p := range g.Predecessors(id) {
			if !done[p] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural invariants: precedence acyclicity plus arc
// endpoint existence (enforced on insert, revalidated here for graphs built
// by deserialization).
func (g *Graph) Validate() error {
	for _, a := range g.arcs {
		if _, ok := g.tasks[a.From]; !ok {
			return fmt.Errorf("taskgraph: arc from unknown task %q", a.From)
		}
		if _, ok := g.tasks[a.To]; !ok {
			return fmt.Errorf("taskgraph: arc to unknown task %q", a.To)
		}
	}
	_, err := g.TopoSort()
	return err
}

// TopoSort returns a topological order of the precedence DAG (Kahn's
// algorithm, insertion order among ties for determinism). Stream arcs do not
// constrain order.
func (g *Graph) TopoSort() ([]TaskID, error) {
	indeg := make(map[TaskID]int, len(g.order))
	for _, id := range g.order {
		indeg[id] = 0
	}
	for _, a := range g.arcs {
		if a.Kind == Precedence {
			indeg[a.To]++
		}
	}
	var frontier []TaskID
	for _, id := range g.order {
		if indeg[id] == 0 {
			frontier = append(frontier, id)
		}
	}
	var out []TaskID
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		out = append(out, id)
		for _, s := range g.Successors(id) {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(out) != len(g.order) {
		return nil, fmt.Errorf("taskgraph: precedence cycle among %d tasks", len(g.order)-len(out))
	}
	return out, nil
}
