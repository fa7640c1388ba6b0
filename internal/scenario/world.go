package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vce/internal/arch"
	"vce/internal/rng"
	"vce/internal/workload"
)

// taskGen is one generated task of a run's shared workload: the sampled
// draws (work size, constraint flag, arrival instant) that every matrix
// cell of the same run index replays identically.
type taskGen struct {
	work        float64
	arrival     time.Duration
	constrained bool
}

// worldEventKind says what a world event does when it fires.
type worldEventKind uint8

const (
	evOwner  worldEventKind = iota // machine i's owner load steps to load
	evArrive                       // closed task i arrives
	evFail                         // machine i fails
	evRepair                       // machine i is repaired
)

// block is the kind's tie block: 0 for owner steps and closed arrivals, 1
// for failures and repairs. A cell reserves one kernel sequence number per
// block (startCell), so at one instant block 0 fires before the first
// checkpoint tick and block 1 after it.
func (k worldEventKind) block() int {
	if k >= evFail {
		return 1
	}
	return 0
}

// worldEvent is one predetermined event of a run: i is a machine, or a task
// for an arrival, and load is an owner step's new level.
type worldEvent struct {
	at   time.Duration
	load float64
	i    int32
	kind worldEventKind
}

// world is the generated world of one run index — everything the derived
// random streams decide, and nothing a policy can influence: a function of
// (spec, run) only. Every cell of run k derives the identical world from
// (spec seed, k), so the arena keeps the last one generated and consecutive
// cells sharing a run index replay it instead of re-deriving it (the
// executor feeds jobs run-major to make such neighbours common).
type world struct {
	// run is 1+run index of the generated world; 0 marks empty.
	run int
	// specs is the fleet with this run's sampled speeds.
	specs []arch.Machine
	// tasks is the task bag of a closed source, in task-index order; a
	// streaming source leaves it empty and each cell draws its tasks as they
	// arrive, by the same rule (taskDraws), so the rest of the world still
	// replays.
	tasks []taskGen
	// events is every predetermined event of the run in firing order: owner
	// steps, closed arrivals inside the horizon (DAG roots only; a child
	// arrives when its last parent completes), failures and their repairs
	// inside the horizon. A cell replays it one pending event at a time
	// (runArena.armWorld).
	events []worldEvent

	// DAG world (workload.graph): parents/children adjacency over task
	// indexes (edges always point low → high, so the graph is acyclic by
	// construction) and the ideal critical path in unit-speed seconds — the
	// lower bound critical_path_stretch divides by.
	parents   [][]int32
	children  [][]int32
	graphCP   float64
	cpScratch []float64
}

// derivedStreams builds the per-run random streams. Policy identity is
// deliberately absent from the derivation: every cell of the matrix sees the
// same generated world in run k, so differences in indexes are policy
// effects, not sampling noise.
func derivedStreams(sp *Spec, run int) *rng.Source {
	return rng.New(sp.Seed).Derive(sp.Name).Derive(fmt.Sprintf("run-%03d", run))
}

// taskDraws is the one rule that draws a run's tasks, for a closed
// source's bag (generateWorld) and an open-loop pump (scheduleNext) alike:
// each next is one task's arrival from the source cursor and its work and
// constraint flag, each from its own derived stream. A task the pump
// refuses, or one past the horizon, draws all three too, so every cell of
// the run consumes the streams identically whatever its queue state.
type taskDraws struct {
	arrivals    ArrivalCursor
	work        *rng.Source
	constraints *rng.Source // nil: the workload constrains no task
	wl          *WorkloadSpec
}

// newTaskDraws starts sp's task draws over the run's derived streams root.
func newTaskDraws(sp *Spec, root *rng.Source) taskDraws {
	d := taskDraws{
		arrivals: sp.Workload.Arrivals.Cursor(root.Derive("arrivals")),
		work:     root.Derive("work"),
		wl:       &sp.Workload,
	}
	if sp.Workload.Constrained != nil {
		d.constraints = root.Derive("constraints")
	}
	return d
}

// next draws the next task; ok is false once the source has run dry.
func (d *taskDraws) next() (g taskGen, ok bool) {
	g.arrival, ok = d.arrivals()
	g.work = d.wl.Work.Sample(d.work)
	g.constrained = d.constraints != nil && d.constraints.Bool(d.wl.Constrained.Fraction)
	return g, ok
}

// generateWorld makes the arena's world the one of run, regenerating from
// the run's derived random streams unless it is already current. The draw
// order within each derived stream is identical to a from-scratch build, and
// the streams are derived by name (not consumed sequentially), so replaying
// a kept world is indistinguishable from regenerating it. It reads the
// arena's spec constants and writes ar.world, nothing else.
func (ar *runArena) generateWorld(run int) {
	w := &ar.world
	if w.run == run+1 {
		return
	}
	sp, horizon := ar.sp, ar.horizon
	root := derivedStreams(sp, run)

	// Speeds sample class-major, one draw per machine in fleet order.
	w.specs = append(w.specs[:0], ar.fleet...)
	machRng := root.Derive("machines")
	mi := 0
	for _, cl := range sp.Machines.Classes {
		for i := 0; i < cl.Count; i++ {
			w.specs[mi].Speed = cl.Speed.Sample(machRng)
			mi++
		}
	}
	nm := len(w.specs)

	// The events append owner steps machine-major, then closed arrivals in
	// task order, then each machine's failures, each followed by its
	// repair. Append order is the tie order of same-instant events.
	w.events = w.events[:0]
	if sp.Owner != nil {
		ownerRng := root.Derive("owner")
		for mi := 0; mi < nm; mi++ {
			steps := workload.BurstyTrace(ownerRng, horizon,
				time.Duration(sp.Owner.MeanIdleS*float64(time.Second)),
				time.Duration(sp.Owner.MeanBusyS*float64(time.Second)),
				sp.Owner.BusyLoad)
			for _, s := range steps {
				w.events = append(w.events, worldEvent{at: s.At, load: s.Load, i: int32(mi), kind: evOwner})
			}
		}
	}

	// Closed sources materialize the task population here, as part of the
	// world: the DAG critical path and the run-major replay both need the
	// whole bag before the first arrival. A closed source never runs dry.
	w.tasks = w.tasks[:0]
	w.graphCP = 0
	if !ar.streaming {
		w.tasks = resetFill(w.tasks, sp.Workload.Tasks, taskGen{})
		draws := newTaskDraws(sp, root)
		for i := range w.tasks {
			w.tasks[i], _ = draws.next()
		}
		w.generateGraph(sp.Workload.Graph, root)
		for i, g := range w.tasks {
			if g.arrival < horizon && (!ar.dag || len(w.parents[i]) == 0) {
				w.events = append(w.events, worldEvent{at: g.arrival, i: int32(i), kind: evArrive})
			}
		}
	}

	if sp.Faults != nil {
		faultRng := root.Derive("faults")
		mtbf := sp.Faults.MTBFHours * 3600
		downFor := time.Duration(sp.Faults.DownS * float64(time.Second))
		for mi := 0; mi < nm; mi++ {
			t := 0.0
			for {
				t += faultRng.ExpFloat64() * mtbf
				at := time.Duration(t * float64(time.Second))
				if at >= horizon {
					break
				}
				w.events = append(w.events, worldEvent{at: at, i: int32(mi), kind: evFail})
				if repairAt := at + downFor; repairAt < horizon {
					w.events = append(w.events, worldEvent{at: repairAt, i: int32(mi), kind: evRepair})
				}
				t = (at + downFor).Seconds()
			}
		}
	}
	// Firing order: by instant, then in append order — a stable sort. Every
	// failure and repair is appended after every owner step and arrival, so
	// same-instant events also fire block by block.
	slices.SortStableFunc(w.events, func(a, b worldEvent) int { return cmp.Compare(a.at, b.at) })
	w.run = run + 1
}

// randomGraphWindow is how many immediately preceding tasks a "random" DAG
// task draws candidate parents from.
const randomGraphWindow = 8

// generateGraph links the world's tasks into the spec's dependency DAG and
// computes its ideal critical path. Only "random" consumes random draws (the
// "graph" derived stream); chain and fanout shapes are spec-determined.
// Edges always run from a lower task index to a higher one.
func (w *world) generateGraph(g *GraphSpec, root *rng.Source) {
	if g == nil {
		return
	}
	n := len(w.tasks)
	w.parents = growSlices(w.parents, n)
	w.children = growSlices(w.children, n)
	addEdge := func(p, c int) {
		w.parents[c] = append(w.parents[c], int32(p))
		w.children[p] = append(w.children[p], int32(c))
	}
	switch g.Kind {
	case "chain":
		for i := 1; i < n; i++ {
			addEdge(i-1, i)
		}
	case "fanout":
		for i := 1; i < n; i++ {
			addEdge((i-1)/g.FanOut, i)
		}
	case "random":
		gr := root.Derive("graph")
		for j := 1; j < n; j++ {
			lo := j - randomGraphWindow
			if lo < 0 {
				lo = 0
			}
			for i := lo; i < j; i++ {
				if gr.Bool(g.EdgeProb) {
					addEdge(i, j)
				}
			}
		}
	}
	// Ideal critical path at unit speed ignoring transfers: a forward pass
	// works because every edge points low → high.
	w.cpScratch = resetFill(w.cpScratch, n, 0)
	for i := 0; i < n; i++ {
		cp := 0.0
		for _, p := range w.parents[i] {
			if v := w.cpScratch[p]; v > cp {
				cp = v
			}
		}
		cp += w.tasks[i].work
		w.cpScratch[i] = cp
		if cp > w.graphCP {
			w.graphCP = cp
		}
	}
}
