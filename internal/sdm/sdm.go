// Package sdm implements the Software Development Module of §3.1.1: the
// three layers that progressively annotate a task graph before the execution
// module sees it.
//
//   - The problem specification layer "extract[s] the requirements of the
//     problem to be solved and formaliz[es] its functional flow" — Spec.Graph
//     builds the initial task graph.
//   - The design stage classifies each task into Fox's problem architectures
//     (synchronous / loosely synchronous / asynchronous) and records the
//     "other classes that capture the nature of the task, such as graphic or
//     interactive".
//   - The coding level parallelizes tasks "using architecture independent
//     languages" (HPF, HPC++, C+MPI).
//
// Hints recorded along the way (ExpectedRuntime here, the script's HINT
// RUNTIME/PRIORITY) let the EXM "do extra optimization": exm dispatches each
// ready set highest priority first, then longest expected runtime first.
package sdm

import (
	"fmt"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// TaskSpec describes one functional component in a problem specification.
type TaskSpec struct {
	// Name is the task identifier.
	Name string
	// Program is the program path the task will run.
	Program string
	// Instances is the number of copies (default 1).
	Instances int
	// MaxInstances optionally allows more copies when machines are idle.
	MaxInstances int
	// Nature tags the task ("graphic", "interactive", "dataparallel",
	// "montecarlo", ...).
	Nature []string
	// WorkUnits is the computation volume per instance.
	WorkUnits float64
	// ImageBytes sizes the task's binary/address-space image.
	ImageBytes int64
	// Inputs and Outputs are vfs file paths.
	Inputs, Outputs []string
	// Local runs the task on the user's workstation.
	Local bool
	// ExpectedRuntime is the user's runtime estimate.
	ExpectedRuntime time.Duration
	// Problem optionally pre-classifies the task; the design stage fills
	// it in when absent.
	Problem arch.ProblemClass
}

// Flow is a communication relationship (stream arc) between two tasks.
type Flow struct {
	// From and To name tasks.
	From, To string
	// Channel optionally names the connecting channel.
	Channel string
}

// Dep is a synchronization relationship: To starts after From completes.
type Dep struct {
	// From completes before To starts.
	From, To string
}

// Spec is a problem specification: the input to the SDM pipeline.
type Spec struct {
	// Name identifies the application.
	Name string
	// Tasks lists the functional components.
	Tasks []TaskSpec
	// Flows lists communication relationships.
	Flows []Flow
	// Deps lists synchronization relationships.
	Deps []Dep
}

// Graph materializes the problem-specification layer: the initial task graph.
func (s Spec) Graph() (*taskgraph.Graph, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("sdm: specification needs a name")
	}
	g := taskgraph.New(s.Name)
	for _, ts := range s.Tasks {
		t := taskgraph.Task{
			ID:           taskgraph.TaskID(ts.Name),
			Program:      ts.Program,
			Problem:      ts.Problem,
			Nature:       append([]string(nil), ts.Nature...),
			MinInstances: ts.Instances,
			MaxInstances: ts.MaxInstances,
			WorkUnits:    ts.WorkUnits,
			ImageBytes:   ts.ImageBytes,
			InputFiles:   append([]string(nil), ts.Inputs...),
			OutputFiles:  append([]string(nil), ts.Outputs...),
			Local:        ts.Local,
			Hint:         taskgraph.Hints{ExpectedRuntime: ts.ExpectedRuntime},
		}
		if err := g.AddTask(t); err != nil {
			return nil, err
		}
	}
	for _, f := range s.Flows {
		arcErr := g.AddArc(taskgraph.Arc{From: taskgraph.TaskID(f.From), To: taskgraph.TaskID(f.To), Kind: taskgraph.Stream, Channel: f.Channel})
		if arcErr != nil {
			return nil, arcErr
		}
	}
	for _, d := range s.Deps {
		if err := g.AddArc(taskgraph.Arc{From: taskgraph.TaskID(d.From), To: taskgraph.TaskID(d.To), Kind: taskgraph.Precedence}); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Design runs the design-stage analysis: it assigns a problem-architecture
// class to every unclassified task, "concentrat[ing] on the architecture of
// the problem and not the machine", and fills in machine-class requirements
// from the problem class.
func Design(g *taskgraph.Graph) error {
	for _, t := range g.Tasks() {
		if t.Problem == arch.ProblemUnknown {
			t.Problem = classify(g, t)
		}
		if len(t.Requirements.Classes) == 0 {
			if t.Local {
				t.Requirements.Classes = []arch.Class{arch.Workstation}
			} else {
				t.Requirements.Classes = t.Problem.MachineClasses()
			}
		}
		if err := g.UpdateTask(t); err != nil {
			return err
		}
	}
	return nil
}

// classify infers the temporal structure of a task from its annotations and
// its position in the graph.
func classify(g *taskgraph.Graph, t taskgraph.Task) arch.ProblemClass {
	for _, n := range t.Nature {
		switch n {
		case "dataparallel", "simd", "regular":
			return arch.Synchronous
		case "iterative", "stencil", "spmd":
			return arch.LooselySynchronous
		case "montecarlo", "batch", "interactive", "graphic":
			return arch.Asynchronous
		}
	}
	// Tasks in tight mutual communication iterate compute/communicate
	// phases; isolated tasks have no global temporal structure.
	for _, p := range g.Peers(t.ID) {
		for _, q := range g.Peers(p) {
			if q == t.ID {
				return arch.LooselySynchronous
			}
		}
	}
	return arch.Asynchronous
}

// The coding level's implementation language per problem class: the
// emerging architecture-independent standards the paper names (§3.1.1).
const (
	langSynchronous        = "HPF"
	langLooselySynchronous = "HPC++"
	langAsynchronous       = "C+MPI"
)

// Code runs the coding level: every task without an explicit language gets
// the architecture-independent language of its problem class. It fails on
// tasks the design stage has not classified.
func Code(g *taskgraph.Graph) error {
	for _, t := range g.Tasks() {
		if t.Language != "" {
			continue
		}
		switch t.Problem {
		case arch.Synchronous:
			t.Language = langSynchronous
		case arch.LooselySynchronous:
			t.Language = langLooselySynchronous
		case arch.Asynchronous:
			t.Language = langAsynchronous
		default:
			return fmt.Errorf("sdm: task %q reached coding level unclassified", t.ID)
		}
		if err := g.UpdateTask(t); err != nil {
			return err
		}
	}
	return nil
}
