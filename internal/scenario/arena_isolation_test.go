package scenario

import (
	"context"
	"encoding/json"
	"testing"
)

// TestArenaCellOrderIndependence pins the arena-reuse isolation contract: a
// cell's indexes must not depend on which cells ran before it on the same
// arena, because the sweep executor assigns cells to per-worker arenas in
// whatever order the workers drain the queue. For each fixture it runs
// every (instance, run) cell from scratch (RunInstanceContext: a single-use
// arena) as the baseline, then replays every ordered pair (a, b) on a
// shared arena and re-checks b, plus the full sequence forward and
// reversed. The fixtures reach every kind of state a cell leaves in the
// arena: the flat closed churn cell (owner churn, faults, checkpoints and
// migration); a three-site DAG with faults, whose slots carry readiness
// counts, completion hosts and data sites, whose staged deliveries can
// bounce and whose locality queue forwards and waits; and an overloaded
// open-loop cell, whose bounded queue refuses arrivals and whose slots
// recycle within the cell. The historical leak this caught: checkpoint
// records outlived the world they were taken in, so a reused world's
// migration could find a stale copy of a predecessor's record at its
// destination and skip the transfer — shifting completions by exactly the
// image transfer time. Records now live on their task and Task.Reset
// empties them; TestRecycledArenaShipsItsOwnImage pins the case these
// fixtures do not reach, a slot resident at the last horizon.
func TestArenaCellOrderIndependence(t *testing.T) {
	dag := dagCellSpec()
	dag.Faults = &FaultSpec{MTBFHours: 0.2, DownS: 300}
	dag.Owner = &OwnerSpec{MeanIdleS: 300, MeanBusyS: 120}
	dag.Policies.Migration = []string{"none", "address-space"}
	dag.Runs = 2
	stream := streamSpec()
	stream.Policies.Migration = []string{"checkpoint", "suspend"}
	stream.Runs = 2
	for _, sp := range []*Spec{equivalenceSpec(), dag, stream} {
		t.Run(sp.Name, func(t *testing.T) { arenaOrderIndependence(t, sp) })
	}
}

func arenaOrderIndependence(t *testing.T, sp *Spec) {
	ctx := context.Background()
	type cell struct {
		inst Instance
		run  int
	}
	var cells []cell
	for _, in := range sp.Instances() {
		for r := 0; r < sp.Runs; r++ {
			cells = append(cells, cell{in, r})
		}
	}
	base := make([]Indexes, len(cells))
	for i, cl := range cells {
		idx, err := RunInstanceContext(ctx, cl.inst, cl.run)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = idx
	}
	mismatch := func(i int, got Indexes, context string) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(base[i])
		t.Errorf("cell %s/%s run %d drifted %s:\n got %s\nwant %s",
			cells[i].inst.Sched, cells[i].inst.Migration, cells[i].run, context, g, w)
	}
	runOn := func(ar *runArena, i int) Indexes {
		idx, err := ar.runCell(ctx, cells[i].inst.Sched, cells[i].inst.Migration, cells[i].run, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	for a := range cells {
		for b := range cells {
			if a == b {
				continue
			}
			ar := testArena(t, sp)
			runOn(ar, a)
			idx := runOn(ar, b)
			if idx != base[b] {
				mismatch(b, idx, "after "+cells[a].inst.Sched+"/"+cells[a].inst.Migration)
				return // one pair pins the regression; skip the noise
			}
		}
	}
	for _, reversed := range []bool{false, true} {
		ar := testArena(t, sp)
		for k := range cells {
			i := k
			if reversed {
				i = len(cells) - 1 - k
			}
			if idx := runOn(ar, i); idx != base[i] {
				mismatch(i, idx, "in full-sequence replay")
			}
		}
	}
}
