package sched

import (
	"testing"
	"testing/quick"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

func ws(name string, speed float64, load float64, slots int) MachineState {
	return MachineState{
		Machine: arch.Machine{Name: name, Class: arch.Workstation, Speed: speed, OS: "unix"},
		Load:    load,
		Slots:   slots,
	}
}

// onto maps each placed item's task to its machine's name. A machine's id is
// its position in the snapshot.
func onto(placed []Assignment, items []Item, machines []MachineState) map[taskgraph.TaskID]string {
	got := map[taskgraph.TaskID]string{}
	for _, a := range placed {
		got[items[a.Ref].Task] = machines[a.Machine].Machine.Name
	}
	return got
}

func TestRankBidsByLoad(t *testing.T) {
	bids := []Bid{
		{Machine: "c", Load: 0.9, Capacity: 1},
		{Machine: "a", Load: 0.1, Capacity: 1},
		{Machine: "b", Load: 0.5, Capacity: 1},
	}
	ranked := RankBids(bids)
	if ranked[0].Machine != "a" || ranked[1].Machine != "b" || ranked[2].Machine != "c" {
		t.Fatalf("ranked = %v", ranked)
	}
	// Input left untouched.
	if bids[0].Machine != "c" {
		t.Fatal("RankBids mutated input")
	}
}

func TestRankBidsTieBreak(t *testing.T) {
	ranked := RankBids([]Bid{{Machine: "z", Load: 0.5}, {Machine: "a", Load: 0.5}})
	if ranked[0].Machine != "a" {
		t.Fatalf("tie-break = %v", ranked)
	}
}

func TestSelectBestLeastLoaded(t *testing.T) {
	bids := []Bid{
		{Machine: "busy", Load: 2.0, Capacity: 4},
		{Machine: "idle", Load: 0.0, Capacity: 1},
		{Machine: "mid", Load: 0.7, Capacity: 1},
	}
	machines, ok := SelectBest(bids, 2)
	if !ok {
		t.Fatal("selection failed")
	}
	if machines[0] != "idle" || machines[1] != "mid" {
		t.Fatalf("selected %v, want least-loaded first", machines)
	}
}

func TestSelectBestRespectsCapacity(t *testing.T) {
	bids := []Bid{{Machine: "a", Load: 0, Capacity: 3}}
	machines, ok := SelectBest(bids, 3)
	if !ok || len(machines) != 3 {
		t.Fatalf("capacity reuse failed: %v %v", machines, ok)
	}
	if _, ok := SelectBest(bids, 4); ok {
		t.Fatal("selection exceeded capacity")
	}
}

func TestSelectBestInsufficientIsAllocError(t *testing.T) {
	machines, ok := SelectBest([]Bid{{Machine: "a", Load: 0, Capacity: 1}}, 2)
	if ok {
		t.Fatal("insufficient resources reported success")
	}
	if len(machines) != 1 {
		t.Fatalf("partial result = %v", machines)
	}
}

// machineAScenario reproduces §4.3's example: task "pinned" runs only on
// machine A; task "portable" runs anywhere but fastest on machine A.
func machineAScenario() ([]Item, []MachineState) {
	items := []Item{
		{Task: "portable", Ref: 0, CandidateIDs: []int{0, 1}, Work: 10},
		{Task: "pinned", Ref: 1, CandidateIDs: []int{0}, Work: 10},
	}
	machines := []MachineState{
		ws("A", 4, 0, 1), // fast, uniquely capable
		ws("B", 1, 0, 1), // slow but universal
	}
	return items, machines
}

func TestUtilizationFirstSolvesMachineA(t *testing.T) {
	items, machines := machineAScenario()
	placed, waiting := NewUtilizationFirst().Place(items, machines)
	got := onto(placed, items, machines)
	if got["pinned"] != "A" {
		t.Fatalf("pinned placed on %q, want A", got["pinned"])
	}
	if got["portable"] != "B" {
		t.Fatalf("portable placed on %q, want B (yield A to the pinned task)", got["portable"])
	}
	if len(waiting) != 0 {
		t.Fatalf("waiting = %v", waiting)
	}
}

func TestGreedyBestFitBurnsMachineA(t *testing.T) {
	// The baseline takes A for the portable task (it is fastest there),
	// leaving the pinned task stranded — exactly the failure §4.3
	// describes.
	items, machines := machineAScenario()
	placed, waiting := NewGreedyBestFit().Place(items, machines)
	got := onto(placed, items, machines)
	if got["portable"] != "A" {
		t.Fatalf("greedy portable on %q, expected it to grab A", got["portable"])
	}
	if len(waiting) != 1 || waiting[0].Task != "pinned" {
		t.Fatalf("waiting = %v, want the pinned task stranded", waiting)
	}
}

func TestUtilizationFirstFlexibleWaitsWhenOnlyScarceMachineFree(t *testing.T) {
	// One machine, demanded by a constrained task; the flexible task must
	// wait even though the machine could host it ("the second job should
	// be made to wait", §4.3).
	items := []Item{
		{Task: "flexible", Ref: 0, CandidateIDs: []int{0, 1}, Work: 1}, // id 1 is past the snapshot
		{Task: "pinned", Ref: 1, CandidateIDs: []int{0}, Work: 1},
	}
	machines := []MachineState{ws("A", 1, 0, 1)}
	placed, waiting := NewUtilizationFirst().Place(items, machines)
	if len(placed) != 1 || items[placed[0].Ref].Task != "pinned" {
		t.Fatalf("placed = %v, want only pinned", placed)
	}
	if len(waiting) != 1 || waiting[0].Task != "flexible" {
		t.Fatalf("waiting = %v", waiting)
	}
}

func TestUtilizationFirstUsesScarceMachineWhenNoScarceDemand(t *testing.T) {
	items := []Item{{Task: "flexible", CandidateIDs: []int{0, 1}, Work: 1}}
	machines := []MachineState{ws("A", 4, 0, 1), ws("B", 1, 0, 1)}
	placed, waiting := NewUtilizationFirst().Place(items, machines)
	if len(waiting) != 0 || len(placed) != 1 {
		t.Fatalf("placed=%v waiting=%v", placed, waiting)
	}
	if got := onto(placed, items, machines)["flexible"]; got != "A" {
		t.Fatalf("flexible should take the fast machine when nobody scarce needs it, got %q", got)
	}
}

func TestPlaceRespectsSlots(t *testing.T) {
	items := []Item{
		{Task: "t1", CandidateIDs: []int{0}},
		{Task: "t2", CandidateIDs: []int{0}},
	}
	for _, pol := range []Policy{NewGreedyBestFit(), NewUtilizationFirst()} {
		// Fresh snapshot per policy: Place consumes the slice it is given.
		machines := []MachineState{ws("A", 1, 0, 1)}
		placed, waiting := pol.Place(items, machines)
		if len(placed) != 1 || len(waiting) != 1 {
			t.Fatalf("%s: placed=%d waiting=%d, want 1/1", pol.Name(), len(placed), len(waiting))
		}
	}
}

// TestPlaceConsumesMachineSlots pins the Policy contract: the machines
// slice is the round's working state, so assignments consume the caller's
// Slots in place (callers needing the snapshot afterwards pass a copy).
// Items, by contrast, must never be mutated.
func TestPlaceConsumesMachineSlots(t *testing.T) {
	items := []Item{{Task: "t", CandidateIDs: []int{0}}}
	machines := []MachineState{ws("A", 1, 0, 1)}
	placed, _ := NewUtilizationFirst().Place(items, machines)
	if len(placed) != 1 {
		t.Fatalf("placed = %d, want 1", len(placed))
	}
	if machines[0].Slots != 0 {
		t.Fatalf("caller Slots = %d after placement, want 0 (consumed in place)", machines[0].Slots)
	}
	if items[0].Task != "t" || len(items[0].CandidateIDs) != 1 {
		t.Fatal("policy mutated caller's items")
	}
}

func TestPlaceUnknownCandidateSkipped(t *testing.T) {
	items := []Item{{Task: "t", CandidateIDs: []int{7}}}
	machines := []MachineState{ws("A", 1, 0, 1)}
	placed, waiting := NewGreedyBestFit().Place(items, machines)
	if len(placed) != 0 || len(waiting) != 1 {
		t.Fatal("item with unknown candidates should wait")
	}
}

// TestPlaceReadsOnlyCandidateIDs pins the deprecated field's contract for
// every policy: an item carrying both views with disagreeing sets (the shape
// of the benchmark's placement probe) places only by its ids, and an item
// carrying names only waits.
func TestPlaceReadsOnlyCandidateIDs(t *testing.T) {
	loc := NewLocality()
	loc.SetTopology([]int{0, 0}, [][]float64{{0}})
	for _, p := range []Policy{NewGreedyBestFit(), NewUtilizationFirst(), loc} {
		machines := []MachineState{ws("A", 4, 0, 2), ws("B", 1, 0, 2)}
		items := []Item{
			{Task: "both", Ref: 0, Candidates: []string{"A"}, CandidateIDs: []int{1}, HomeSite: 1},
			{Task: "names", Ref: 1, Candidates: []string{"A", "B"}, HomeSite: 1},
		}
		placed, waiting := p.Place(items, machines)
		if len(placed) != 1 || placed[0] != (Assignment{Ref: 0, Machine: 1}) {
			t.Errorf("%s: placed %v, want only the item with ids, on its id (machine 1)", p.Name(), placed)
		}
		if len(waiting) != 1 || waiting[0].Task != "names" {
			t.Errorf("%s: waiting %v, want the names-only item", p.Name(), taskIDs(waiting))
		}
	}
}

func TestMultiInstancePlacementSpreads(t *testing.T) {
	items := []Item{
		{Task: "mc", Ref: 0, CandidateIDs: []int{0, 1, 2}},
		{Task: "mc", Ref: 1, CandidateIDs: []int{0, 1, 2}},
		{Task: "mc", Ref: 2, CandidateIDs: []int{0, 1, 2}},
	}
	machines := []MachineState{ws("A", 1, 0, 1), ws("B", 1, 0, 1), ws("C", 1, 0, 1)}
	placed, waiting := NewUtilizationFirst().Place(items, machines)
	if len(placed) != 3 || len(waiting) != 0 {
		t.Fatalf("placed=%d waiting=%d", len(placed), len(waiting))
	}
	used := map[int]bool{}
	for _, a := range placed {
		used[a.Machine] = true
	}
	if len(used) != 3 {
		t.Fatalf("instances piled up: %v", placed)
	}
}

func TestAgingQueueFIFOAmongEqual(t *testing.T) {
	q := NewAgingQueue(1)
	q.Push("first", 0, 0)
	q.Push("second", 0, 0)
	id, ok := q.Pop(time.Second)
	if !ok || id != "first" {
		t.Fatalf("pop = %q", id)
	}
}

func TestAgingQueuePriorityWins(t *testing.T) {
	q := NewAgingQueue(0)
	q.Push("low", 1, 0)
	q.Push("high", 10, 0)
	id, _ := q.Pop(0)
	if id != "high" {
		t.Fatalf("pop = %q", id)
	}
}

func TestAgingOvertakesStaticPriority(t *testing.T) {
	q := NewAgingQueue(1) // 1 point per second
	q.Push("old-low", 0, 0)
	q.Push("new-high", 5, 0)
	// At t=0 the high-priority task wins; but if we only query later,
	// both aged equally, so high still wins.
	if id, _ := q.Pop(10 * time.Second); id != "new-high" {
		t.Fatalf("pop = %q", id)
	}
	// Re-push high repeatedly (fresh arrivals), old-low must still win
	// eventually because its age keeps growing.
	q2 := NewAgingQueue(1)
	q2.Push("starving", 0, 0)
	winner := ""
	for s := 1; s <= 20; s++ {
		now := time.Duration(s) * time.Second
		q2.Push("fresh", 5, now)
		id, _ := q2.Pop(now)
		if id == "starving" {
			winner = id
			break
		}
	}
	if winner != "starving" {
		t.Fatal("aged task never dispatched: starvation")
	}
}

func TestNoAgingStarves(t *testing.T) {
	q := NewAgingQueue(0) // aging disabled
	q.Push("starving", 0, 0)
	for s := 1; s <= 50; s++ {
		now := time.Duration(s) * time.Second
		q.Push("fresh", 5, now)
		id, _ := q.Pop(now)
		if id == "starving" {
			t.Fatal("static priority unexpectedly dispatched the low task")
		}
	}
	if len(q.entries) != 1 {
		t.Fatalf("queue len = %d, want 1 (the starving task)", len(q.entries))
	}
}

func TestBoost(t *testing.T) {
	q := NewAgingQueue(0)
	q.Push("app", 0, 0)
	q.Push("other", 5, 0)
	if !q.Boost("app", 100) {
		t.Fatal("boost failed to find task")
	}
	if q.Boost("ghost", 1) {
		t.Fatal("boost found a ghost")
	}
	id, _ := q.Pop(0)
	if id != "app" {
		t.Fatalf("boosted task not dispatched first: %q", id)
	}
}

func TestPopEmpty(t *testing.T) {
	q := NewAgingQueue(1)
	if _, ok := q.Pop(0); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestPropertySelectBestNeverExceedsCapacity(t *testing.T) {
	f := func(caps []uint8, n uint8) bool {
		var bids []Bid
		total := 0
		for i, c := range caps {
			if i >= 10 {
				break
			}
			cap := int(c % 5)
			total += cap
			bids = append(bids, Bid{Machine: string(rune('a' + i)), Load: float64(i), Capacity: cap})
		}
		want := int(n%16) + 1
		machines, ok := SelectBest(bids, want)
		if ok && len(machines) != want {
			return false
		}
		if !ok && len(machines) >= want {
			return false
		}
		counts := map[string]int{}
		for _, m := range machines {
			counts[m]++
		}
		for _, b := range bids {
			if counts[b.Machine] > b.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
