package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"vce/internal/taskgraph"
)

// refPlace is the naive reference the policies are held to: it resolves
// every candidate of every item by linear search over the snapshot, with no
// round budget and no lookup tables, and applies each policy's documented
// rule. It works on its own copy of machines, and keeps UtilizationFirst's
// reservations (waiting constrained items per unique host) in its own
// counts.
func refPlace(policy string, items []Item, machines []MachineState, siteOf []int, cost [][]float64, threshold, rejectCap int) (placed []Assignment, waiting, dropped []Item) {
	ms := append([]MachineState(nil), machines...)
	resolve := func(it Item) []*MachineState {
		var out []*MachineState
		find := func(match func(*MachineState) bool) {
			for i := range ms {
				if match(&ms[i]) {
					out = append(out, &ms[i])
					return
				}
			}
		}
		for _, id := range it.CandidateIDs {
			find(func(m *MachineState) bool { return m.Index == id })
		}
		return out
	}
	size := func(it Item) int { return len(it.CandidateIDs) }
	score := func(m *MachineState) float64 { return m.Machine.Speed / (1 + m.Load) }
	scarce := map[*MachineState]int{}
	greedy := func(it Item, skipReserved bool) *MachineState {
		var best *MachineState
		for _, m := range resolve(it) {
			if m.Slots <= 0 || (skipReserved && scarce[m] > 0) {
				continue
			}
			if best == nil || score(m) > score(best) {
				best = m
			}
		}
		return best
	}
	assign := func(it Item, m *MachineState) {
		m.Slots--
		m.Load += loadIncrement(it.Work, m.Machine.Speed)
		placed = append(placed, Assignment{Ref: it.Ref, Machine: m.Index})
	}

	switch policy {
	case "greedy-best-fit":
		for _, it := range items {
			if m := greedy(it, false); m != nil {
				assign(it, m)
			} else {
				waiting = append(waiting, it)
			}
		}
	case "utilization-first":
		for _, it := range items {
			if size(it) == 1 {
				for _, m := range resolve(it) {
					scarce[m]++
				}
			}
		}
		order := append([]Item(nil), items...)
		sort.SliceStable(order, func(a, b int) bool { return size(order[a]) < size(order[b]) })
		for _, it := range order {
			constrained := size(it) == 1
			m := greedy(it, !constrained)
			if m == nil {
				waiting = append(waiting, it)
				continue
			}
			if constrained {
				scarce[m]--
			}
			assign(it, m)
		}
	case "locality":
		backlog := make([]int, len(cost))
		for _, it := range items {
			home := it.HomeSite - 1
			if siteOf == nil || home < 0 || home >= len(cost) {
				if m := greedy(it, false); m != nil {
					assign(it, m)
				} else {
					waiting = append(waiting, it)
				}
				continue
			}
			var local, fwd *MachineState
			fwdCost := math.MaxFloat64
			for _, m := range resolve(it) {
				if m.Slots <= 0 {
					continue
				}
				site := -1
				if m.Index >= 0 && m.Index < len(siteOf) {
					site = siteOf[m.Index]
				}
				if site == home {
					if local == nil || score(m) > score(local) {
						local = m
					}
					continue
				}
				c := math.MaxFloat64
				if site >= 0 && site < len(cost[home]) {
					c = cost[home][site]
				}
				if fwd == nil || c < fwdCost || (c == fwdCost && score(m) > score(fwd)) {
					fwd, fwdCost = m, c
				}
			}
			if local == nil {
				backlog[home]++
			}
			switch {
			case local != nil:
				assign(it, local)
			case backlog[home] <= threshold:
				waiting = append(waiting, it)
			case fwd != nil:
				assign(it, fwd)
			case backlog[home] > rejectCap:
				dropped = append(dropped, it)
			default:
				waiting = append(waiting, it)
			}
		}
	}
	return placed, waiting, dropped
}

// randomRound draws one placement round: a positional snapshot of 8
// machines over 3 sites, of which a random subset takes part in the round
// and the rest are present with Slots 0 (slot counts include zero anyway,
// and one round in four is exhausted outright), and up to 40 items with
// one- and many-candidate sets, ghost candidates at or beyond the snapshot's
// length, and HomeSite unset, valid and out of range.
func randomRound(rng *rand.Rand) (items []Item, machines []MachineState, siteOf []int) {
	const snapshot, fleet = 8, 10 // ids 8 and 9 are ghosts: past the snapshot
	siteOf = make([]int, fleet)
	for i := range siteOf {
		siteOf[i] = rng.Intn(3)
	}
	exhausted := rng.Intn(4) == 0
	machines = make([]MachineState, snapshot)
	for idx := range machines {
		machines[idx] = siteMachine(fmt.Sprintf("m%d", idx), idx, 1, 0)
	}
	for _, idx := range rng.Perm(snapshot)[:1+rng.Intn(snapshot)] {
		m := siteMachine(fmt.Sprintf("m%d", idx), idx, float64(1+rng.Intn(3)), rng.Intn(3))
		m.Load = float64(rng.Intn(3)) / 2
		if exhausted {
			m.Slots = 0
		}
		machines[idx] = m
	}
	for i := rng.Intn(41); i > 0; i-- {
		ids := rng.Perm(fleet)[:1+rng.Intn(fleet)]
		if rng.Intn(3) == 0 {
			ids = ids[:1]
		}
		items = append(items, Item{Task: taskgraph.TaskID(fmt.Sprintf("t%d", len(items))), Ref: len(items), CandidateIDs: ids,
			Work: float64(rng.Intn(30)), HomeSite: rng.Intn(5)})
	}
	return items, machines, siteOf
}

// TestPlaceMatchesExhaustiveReference holds every policy to the naive
// reference over a few hundred random rounds: the round budget, the
// per-set FIFOs a round stops visiting once blocked, and the positional id
// lookup must not change a single placement, the waiting order, or what
// Locality drops. Waiting and dropped items are compared whole, field for
// field, so the items a round never visited are held to the same standard
// as the ones it did; and every Place must leave its items input as it
// found it. One policy value serves every round, so queue storage reused
// across Resets is covered too.
func TestPlaceMatchesExhaustiveReference(t *testing.T) {
	cost := [][]float64{{0, 1, 5}, {1, 0, 1}, {5, 1, 0}}
	loc := NewLocality()
	loc.threshold, loc.rejectCap = 2, 4
	policies := []Policy{NewGreedyBestFit(), NewUtilizationFirst(), loc}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		items, machines, siteOf := randomRound(rng)
		if round%5 == 0 {
			siteOf = nil // Locality without a topology is greedy
		}
		loc.SetTopology(siteOf, cost)
		for _, p := range policies {
			wantPlaced, wantWaiting, wantDropped := refPlace(p.Name(), items, machines, siteOf, cost, loc.threshold, loc.rejectCap)
			before := cloneItems(items)
			placed, waiting := p.Place(items, append([]MachineState(nil), machines...))
			if !sameItems(items, before) {
				t.Fatalf("round %d, %s: Place mutated its items input:\n got  %+v\n want %+v", round, p.Name(), items, before)
			}
			var dropped []Item
			if p == Policy(loc) {
				dropped = loc.Dropped()
			}
			if !sameAssignments(placed, wantPlaced) || !sameItems(waiting, wantWaiting) || !sameItems(dropped, wantDropped) {
				t.Fatalf("round %d, %s:\n placed  %v\n want    %v\n waiting %v\n want    %v\n dropped %v\n want    %v",
					round, p.Name(), placed, wantPlaced, taskIDs(waiting), taskIDs(wantWaiting), taskIDs(dropped), taskIDs(wantDropped))
			}
		}
	}
}

// TestPlaceWaitingIncrementalMatchesReference drives one queue per policy
// through 300 rounds the way the scenario engine does: items arrive between
// rounds, the snapshot persists, and before each round a random subset of
// its entries is rewritten (free slots going to zero and back, loads moving)
// and passed as changed, while what a round spent stays as the round left
// it. Every round's assignments and Locality's drops must equal the naive
// reference run on the test's own arrival-ordered waiting list and a copy
// of the snapshot, so a score the policy's column failed to follow shows
// up as a different pick. Locality's two remote sites cost the same, so
// ties between forwarding targets are exercised.
func TestPlaceWaitingIncrementalMatchesReference(t *testing.T) {
	const fleet = 12
	siteOf := make([]int, fleet)
	for i := range siteOf {
		siteOf[i] = i % 3
	}
	cost := [][]float64{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}}
	all := make([]int, fleet)
	for i := range all {
		all[i] = i
	}
	sets := [][]int{
		all,                  // the whole fleet
		{1, 4, 7, 10},        // a class
		{5},                  // one machine
		{9, 2, 6, 2, 11, 0},  // unordered, with a duplicate
		{3, fleet, 8, -1, 4}, // ids outside the snapshot
	}
	loc := NewLocality()
	loc.threshold, loc.rejectCap = 2, 5
	loc.SetTopology(siteOf, cost)
	for _, p := range []Policy{NewGreedyBestFit(), NewUtilizationFirst(), loc} {
		rng := rand.New(rand.NewSource(41))
		machines := make([]MachineState, fleet)
		for i := range machines {
			machines[i] = siteMachine(fmt.Sprintf("m%d", i), i, float64(1+i%4), rng.Intn(2))
		}
		var waiting []Item
		var changed []int
		ref := 0
		for round := 0; round < 300; round++ {
			for n := rng.Intn(4); n > 0; n-- {
				it := Item{Task: taskgraph.TaskID(fmt.Sprintf("t%d", ref)), Ref: ref,
					CandidateIDs: sets[rng.Intn(len(sets))], Work: float64(rng.Intn(40)), HomeSite: rng.Intn(5)}
				ref++
				p.Enqueue(it)
				waiting = append(waiting, it)
			}
			free := 0
			for i := range machines {
				free += max(0, machines[i].Slots)
			}
			wantPlaced, _, wantDropped := refPlace(p.Name(), waiting, machines, siteOf, cost, loc.threshold, loc.rejectCap)
			placed := p.PlaceWaiting(machines, free, changed)
			var dropped []Item
			if p == Policy(loc) {
				dropped = loc.Dropped()
			}
			if !sameAssignments(placed, wantPlaced) || !sameItems(dropped, wantDropped) {
				t.Fatalf("%s round %d (changed %v):\n placed  %v\n want    %v\n dropped %v\n want    %v",
					p.Name(), round, changed, placed, wantPlaced, taskIDs(dropped), taskIDs(wantDropped))
			}
			gone := map[int]bool{}
			for _, a := range placed {
				gone[a.Ref] = true
			}
			for _, d := range dropped {
				gone[d.Ref] = true
			}
			waiting = slices.DeleteFunc(waiting, func(it Item) bool { return gone[it.Ref] })
			if p.Len() != len(waiting) {
				t.Fatalf("%s round %d: %d waiting, want %d", p.Name(), round, p.Len(), len(waiting))
			}
			// The caller's rewrites before the next round.
			changed = changed[:0]
			for _, i := range rng.Perm(fleet)[:rng.Intn(4)] {
				machines[i].Slots = rng.Intn(3)
				machines[i].Load = float64(rng.Intn(5)) / 4
				changed = append(changed, i)
			}
		}
	}
}

func sameAssignments(a, b []Assignment) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// sameItems compares whole items, field for field; nil and empty are equal.
func sameItems(a, b []Item) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// cloneItems deep-copies items, candidate slices included.
func cloneItems(items []Item) []Item {
	out := make([]Item, len(items))
	for i, it := range items {
		it.CandidateIDs = append([]int(nil), it.CandidateIDs...)
		out[i] = it
	}
	return out
}

func taskIDs(items []Item) []taskgraph.TaskID {
	ids := make([]taskgraph.TaskID, 0, len(items))
	for _, it := range items {
		ids = append(ids, it.Task)
	}
	return ids
}

// TestPlaceRoundBoundedByFreeSlots is the streaming cell's steady state
// scaled up: a 4096-machine snapshot in which only the last machine has a
// free slot, and 4096 waiting items that each admit every machine. The
// first item takes the slot; the other 4095 must join the waiting output
// without their candidates being resolved. An
// exhaustive scan resolves 50 × 4096 × 4096 ≈ 8 × 10⁸ ids per policy
// (seconds); a round bounded by its budget takes about a millisecond.
func TestPlaceRoundBoundedByFreeSlots(t *testing.T) {
	const n = 4096
	ids := make([]int, n)
	siteOf := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Task: taskgraph.TaskID(fmt.Sprintf("t%d", i)), Ref: i, CandidateIDs: ids, Work: 1, HomeSite: 1}
	}
	machines := make([]MachineState, n)
	for i := range machines {
		machines[i] = siteMachine(fmt.Sprintf("m%d", i), i, 1, 0)
	}
	loc := NewLocality()
	loc.rejectCap = n
	loc.SetTopology(siteOf, [][]float64{{0}})
	for _, p := range []Policy{NewGreedyBestFit(), NewUtilizationFirst(), loc} {
		start := time.Now()
		for round := 0; round < 50; round++ {
			machines[n-1].Slots = 1 // the previous round spent it
			placed, waiting := p.Place(items, machines)
			if len(placed) != 1 || placed[0].Ref != 0 || placed[0].Machine != n-1 || len(waiting) != n-1 || waiting[0].Task != "t1" {
				t.Fatalf("%s: placed %v, %d waiting; want t0 placed and the other %d waiting in order", p.Name(), placed, len(waiting), n-1)
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: 50 one-slot rounds over %d×%d candidates took %v: the round scans candidates after its last slot is spent", p.Name(), n, n, d)
		}
	}
}

// TestPlaceForgetsPreviousSnapshot reuses one snapshot buffer: round 1
// holds machines 0 and 1 (1 with free slots left over), round 2 only
// machine 0, a prefix of the same backing array. An item whose one
// candidate is 1 must wait in round 2 — an id at or past the snapshot's
// length resolves to nothing, however much of the old backing survives.
func TestPlaceForgetsPreviousSnapshot(t *testing.T) {
	loc := NewLocality()
	loc.SetTopology(make([]int, 6), [][]float64{{0}})
	for _, p := range []Policy{NewGreedyBestFit(), NewUtilizationFirst(), loc} {
		buf := []MachineState{siteMachine("m0", 0, 1, 1), siteMachine("m1", 1, 1, 3)}
		first := []Item{{Task: "t0", Ref: 7, CandidateIDs: []int{0}, HomeSite: 1}}
		placed, waiting := p.Place(first, buf)
		if len(placed) != 1 || placed[0] != (Assignment{Ref: 7, Machine: 0}) || len(waiting) != 0 {
			t.Fatalf("%s round 1: placed %v, %d waiting; want t0 on machine 0", p.Name(), placed, len(waiting))
		}
		buf[0] = siteMachine("m0", 0, 1, 1)
		second := []Item{{Task: "t1", Ref: 8, CandidateIDs: []int{1}, HomeSite: 1}}
		placed, waiting = p.Place(second, buf[:1])
		if len(placed) != 0 || len(waiting) != 1 {
			t.Fatalf("%s round 2: placed %v on a machine absent from the snapshot", p.Name(), placed)
		}
	}
}

// TestPlaceReservationsDoNotOutliveRound reuses one snapshot the way the
// scenario engine does, refreshing only Slots between rounds. Round 1
// leaves a constrained item waiting on full machine 1, which reserves it.
// In round 2 only a flexible item waits and machine 1 has a slot again: no
// constrained item needs it now, so the flexible item must take it.
func TestPlaceReservationsDoNotOutliveRound(t *testing.T) {
	p := NewUtilizationFirst()
	snapshot := []MachineState{ws("A", 1, 0, 0), ws("B", 1, 0, 0)}
	pinned := []Item{{Task: "pinned", Ref: 0, CandidateIDs: []int{1}}}
	if placed, waiting := p.Place(pinned, snapshot); len(placed) != 0 || len(waiting) != 1 {
		t.Fatalf("round 1: placed %v, %d waiting; want the pinned item waiting", placed, len(waiting))
	}
	snapshot[1].Slots = 1
	flexible := []Item{{Task: "flexible", Ref: 1, CandidateIDs: []int{0, 1}}}
	placed, _ := p.Place(flexible, snapshot)
	if len(placed) != 1 || placed[0] != (Assignment{Ref: 1, Machine: 1}) {
		t.Fatalf("round 2: placed %v, want the flexible item on machine 1 (round 1's reservation is gone)", placed)
	}
}

// TestRoundVisitsWhatItPlaces is an overloaded cell's steady state: 100 000
// items pinned to machine 0, which stays full, with one flexible item
// arriving after every 100 pinned ones. Each round frees one slot on
// another machine. The round loop must place one flexible item and look at
// no more than placed + sets + 1 heads — the pinned FIFO blocks at its
// head — however long the pinned line is. Locality walks every item by
// design (its backlog counters need the whole queue), so it is not held to
// this.
func TestRoundVisitsWhatItPlaces(t *testing.T) {
	const pinnedN, every, machines = 100_000, 100, 8
	pinned := []int{0}
	anywhere := make([]int, machines)
	for i := range anywhere {
		anywhere[i] = i
	}
	for _, q := range []*queue{&NewGreedyBestFit().queue, &NewUtilizationFirst().queue} {
		for i := 0; i < pinnedN; i++ {
			q.Enqueue(Item{Ref: i, CandidateIDs: pinned, Work: 1})
			if i%every == every-1 {
				q.Enqueue(Item{Ref: pinnedN + i, CandidateIDs: anywhere, Work: 1})
			}
		}
		flexible := q.Len() - pinnedN
		states := make([]MachineState, machines)
		for i := range states {
			states[i] = ws(fmt.Sprintf("m%d", i), 1, 0, 0)
		}
		for round := 0; round < flexible; round++ {
			freed := 1 + round%(machines-1)
			states[freed].Slots = 1
			before := q.visits
			placed := q.PlaceWaiting(states, 1, []int{freed})
			visits := q.visits - before
			if len(placed) != 1 || placed[0].Ref < pinnedN {
				t.Fatalf("bySize=%v round %d: placed %v, want one flexible item", q.bySize, round, placed)
			}
			if bound := len(placed) + len(q.sets) + 1; visits > bound {
				t.Fatalf("bySize=%v round %d: visited %d heads to place %d with %d sets waiting, want at most %d",
					q.bySize, round, visits, len(placed), len(q.sets), bound)
			}
		}
		if q.Len() != pinnedN {
			t.Fatalf("bySize=%v: %d items left, want the %d pinned ones", q.bySize, q.Len(), pinnedN)
		}
	}
}
