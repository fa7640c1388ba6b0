package sched

import (
	"testing"

	"vce/internal/taskgraph"
)

// siteMachine builds a MachineState with a dense Index (the locality site
// map is Index-keyed).
func siteMachine(name string, idx int, speed float64, slots int) MachineState {
	m := ws(name, speed, 0, slots)
	m.Index = idx
	return m
}

// twoSiteWorld is machines a0,a1 at site 0 and b0,b1 at site 1, with b0
// faster than anything at site 0 so greedy placement would prefer it.
func twoSiteWorld() ([]MachineState, []int, [][]float64) {
	machines := []MachineState{
		siteMachine("a0", 0, 1, 1),
		siteMachine("a1", 1, 1, 1),
		siteMachine("b0", 2, 4, 1),
		siteMachine("b1", 3, 1, 1),
	}
	siteOf := []int{0, 0, 1, 1}
	cost := [][]float64{{0, 10}, {10, 0}}
	return machines, siteOf, cost
}

func indexes(machines []MachineState) []int {
	var ids []int
	for _, m := range machines {
		ids = append(ids, m.Index)
	}
	return ids
}

func item(id string, home int, ids []int) Item {
	return Item{Task: taskgraph.TaskID(id), CandidateIDs: ids, Work: 10, HomeSite: home}
}

func TestLocalityPrefersHomeSite(t *testing.T) {
	machines, siteOf, cost := twoSiteWorld()
	ids := indexes(machines)
	l := NewLocality()
	l.SetTopology(siteOf, cost)
	placed, waiting := l.Place([]Item{item("t0", 1, ids)}, machines)
	if len(waiting) != 0 || len(placed) != 1 {
		t.Fatalf("placed %d waiting %d, want 1/0", len(placed), len(waiting))
	}
	// Site 0 machines are slower than b0, but the data lives at site 0.
	if got := machines[placed[0].Machine].Machine.Name; got != "a0" && got != "a1" {
		t.Fatalf("placed on %s, want a home-site machine", got)
	}
}

func TestLocalityWaitsThenForwards(t *testing.T) {
	machines, siteOf, cost := twoSiteWorld()
	ids := indexes(machines)
	l := NewLocality()
	l.SetTopology(siteOf, cost)
	// Five site-0 items against two site-0 slots: two place locally, two
	// wait under the threshold, the fifth forwards to site 1.
	var items []Item
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4"} {
		items = append(items, item(id, 1, ids))
	}
	placed, waiting := l.Place(items, machines)
	if len(placed) != 3 || len(waiting) != 2 {
		t.Fatalf("placed %d waiting %d, want 3/2", len(placed), len(waiting))
	}
	forwarded := machines[placed[2].Machine].Machine.Name
	if forwarded != "b0" && forwarded != "b1" {
		t.Fatalf("overflow item went to %s, want a site-1 machine", forwarded)
	}
	if forwarded != "b0" {
		t.Fatalf("forwarded to %s, want the best-scoring machine of the cheapest site (b0)", forwarded)
	}
}

func TestLocalityRejectsPastCap(t *testing.T) {
	machines, siteOf, cost := twoSiteWorld()
	for i := range machines {
		machines[i].Slots = 0 // nothing free anywhere
	}
	ids := indexes(machines)
	l := NewLocality()
	l.threshold, l.rejectCap = 1, 3
	l.SetTopology(siteOf, cost)
	var items []Item
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4"} {
		items = append(items, item(id, 1, ids))
	}
	placed, waiting := l.Place(items, machines)
	if len(placed) != 0 {
		t.Fatalf("placed %d with zero slots", len(placed))
	}
	// Backlog 1..3 wait (cap 3), 4 and 5 drop.
	if len(waiting) != 3 {
		t.Fatalf("waiting %d, want 3", len(waiting))
	}
	dropped := l.Dropped()
	if len(dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(dropped))
	}
	if string(dropped[0].Task) != "t3" || string(dropped[1].Task) != "t4" {
		t.Fatalf("dropped %v, want the last two offered", dropped)
	}
	// Conservation: every offered item is placed, waiting, or dropped.
	if len(placed)+len(waiting)+len(dropped) != len(items) {
		t.Fatalf("items leaked: %d+%d+%d != %d", len(placed), len(waiting), len(dropped), len(items))
	}
}

func TestLocalityWithoutTopologyIsGreedy(t *testing.T) {
	machines, _, _ := twoSiteWorld()
	ids := indexes(machines)
	l := NewLocality()
	placed, _ := l.Place([]Item{item("t0", 1, ids)}, machines)
	if len(placed) != 1 || machines[placed[0].Machine].Machine.Name != "b0" {
		t.Fatalf("placed = %v, want greedy best fit on b0", placed)
	}
}

func TestLocalityNoAffinityIsGreedy(t *testing.T) {
	machines, siteOf, cost := twoSiteWorld()
	ids := indexes(machines)
	l := NewLocality()
	l.SetTopology(siteOf, cost)
	placed, _ := l.Place([]Item{item("t0", 0, ids)}, machines)
	if len(placed) != 1 || machines[placed[0].Machine].Machine.Name != "b0" {
		t.Fatalf("placed = %v, want greedy best fit on b0", placed)
	}
}
