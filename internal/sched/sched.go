// Package sched implements the execution-layer scheduling machinery of §4.3:
// bid ranking for the Figure 3 protocol, placement policies (the
// throughput-first policy of the paper against a per-job greedy baseline),
// and the aging priority queue that prevents starvation ("as a task waits to
// be dispatched its priority will be increased to insure it will eventually
// be dispatched even if that results in a globally suboptimal schedule").
//
// The placement contract (Policy.Place) is shaped by its event-frequency
// caller, the scenario engine, which re-places its whole waiting queue
// against the machines that are idle now on every arrival and completion.
// It speaks one identity, dense ints: every MachineState carries the
// caller's Index, an Item names its admissible machines by those ids
// (CandidateIDs, resolved by array index) and carries the caller's Ref, and
// an Assignment hands back the item's Ref and the chosen machine's Index, so
// the caller resolves no name to act on it. Task and machine names are
// labels only. A round ends when nothing is free — once the snapshot's slots
// are spent the remaining items wait without their candidates being looked
// at, so a round costs what it can place, not waiting items × candidates.
package sched

import (
	"sort"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// Bid is one daemon's answer in the bidding protocol: "Each bid includes the
// current load of the bidding machine" (§5).
type Bid struct {
	// Machine is the bidding machine's name.
	Machine string
	// Load is the machine's current load (runnable work per unit
	// capacity; 0 is idle).
	Load float64
	// Capacity is how many additional VCE tasks the machine will accept.
	Capacity int
}

// RankBids orders bids by ascending load (ties by name) — the prototype
// group leader's sortBidsByLoad.
func RankBids(bids []Bid) []Bid {
	out := append([]Bid(nil), bids...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load < out[j].Load
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// SelectBest picks machines for n task instances from the ranked bids,
// honouring per-bid capacity. Allocation is breadth-first across the ranking
// — one instance per machine per pass, least-loaded first — so multiple
// instances spread over "the least loaded processors" (plural, §5) instead
// of piling onto the single best bidder. ok=false reproduces the prototype's
// allocation failure: "If the group leader receives fewer responses than
// needed a failure indication is sent to the execution program."
func SelectBest(bids []Bid, n int) (machines []string, ok bool) {
	ranked := RankBids(bids)
	remaining := make([]int, len(ranked))
	total := 0
	for i, b := range ranked {
		remaining[i] = b.Capacity
		total += b.Capacity
	}
	for len(machines) < n && total > 0 {
		for i := range ranked {
			if len(machines) == n {
				break
			}
			if remaining[i] > 0 {
				remaining[i]--
				total--
				machines = append(machines, ranked[i].Machine)
			}
		}
	}
	return machines, len(machines) == n
}

// MachineState is a scheduler's snapshot of one machine.
type MachineState struct {
	// Machine is the hardware description.
	Machine arch.Machine
	// Load is current utilization (local + remote demand).
	Load float64
	// Slots is how many additional tasks this machine accepts in this
	// placement round.
	Slots int
	// Index is the caller-assigned dense id (e.g. the simulator's
	// Machine.Index), unique within the snapshot: what Item.CandidateIDs
	// entries name, what Assignment.Machine reports and what a Locality
	// site map is keyed by.
	Index int

	// scarce is UtilizationFirst's internal reservation count: waiting
	// constrained items for which this machine is the only candidate.
	scarce int
}

// Item is one task instance awaiting placement.
type Item struct {
	// Task labels the item for people; policies never read it.
	Task taskgraph.TaskID
	// Ref is the caller's handle for the item (the scenario engine's task
	// slot), echoed in its Assignment; policies never read it.
	Ref int
	// Deprecated: not read; CandidateIDs is the admissible set.
	Candidates []string
	// CandidateIDs is the admissible set (already filtered by
	// requirements), as MachineState.Index values (the caller assigned its
	// states unique ones): policies resolve each by array index, no name
	// hashing. Entries that name no machine of the snapshot are skipped;
	// entry order breaks score ties.
	CandidateIDs []int
	// Work is the instance's expected work, used by cost heuristics.
	Work float64
	// HomeSite is the item's data-affinity site plus one — the site its
	// dependency outputs live at, as a 1-based id into the site table a
	// topology-aware policy was configured with (Locality.SetTopology).
	// Zero means no data affinity; policies without topology ignore it.
	HomeSite int
}

// Assignment binds a placed item to a machine, in the caller's ids.
type Assignment struct {
	// Ref is the placed item's Item.Ref.
	Ref int
	// Machine is the chosen machine's MachineState.Index.
	Machine int
}

// Policy places a batch of task instances onto machines.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Place returns assignments and the items it chose to leave waiting.
	// Implementations must not mutate items. The machines slice is the
	// policy's working state for the round — Slots (and load estimates)
	// are consumed in place as assignments are made, so callers that need
	// the snapshot afterwards must pass a copy. Batch callers rebuild the
	// snapshot per round anyway, and not copying keeps the per-event
	// placement path allocation-lean. A round is bounded by what is free:
	// once the snapshot's slots are spent, the remaining items join the
	// waiting output without their candidates being resolved.
	Place(items []Item, machines []MachineState) ([]Assignment, []Item)
}

// placeScratch is a policy's reusable round storage: the id-resolution
// table, the ordering permutation, and the output buffers. Every policy
// carries one by value, so repeated Place calls on one policy place rounds
// allocation-free in steady state.
//
// The output Item buffer is double-buffered because of how batch callers
// loop: round N's waiting output is round N+1's items input, so the policy
// must never write an output over the slice it is still reading.
// Assignments have no such feedback (callers consume them before the next
// round), so one buffer suffices.
type placeScratch struct {
	byIndex []*MachineState
	order   []int
	placed  []Assignment
	items   [2][]Item
	flip    int
}

// outBuffers returns empty placed/waiting buffers for one round of at most
// maxPlaced assignments over nItems items, reusing the scratch's storage.
// Neither can outgrow its initial capacity, so the returned headers stay
// backed by the scratch.
func (s *placeScratch) outBuffers(maxPlaced, nItems int) ([]Assignment, []Item) {
	if cap(s.placed) < maxPlaced {
		s.placed = make([]Assignment, 0, maxPlaced)
	}
	s.flip ^= 1
	if cap(s.items[s.flip]) < nItems {
		s.items[s.flip] = make([]Item, 0, nItems)
	}
	return s.placed[:0], s.items[s.flip][:0]
}

// orderBuf returns an empty ordering buffer of capacity >= n.
func (s *placeScratch) orderBuf(n int) []int {
	if cap(s.order) < n {
		s.order = make([]int, 0, n)
	}
	return s.order[:0]
}

// GreedyBestFit optimizes each job in isolation: every item takes the
// fastest, least-loaded admissible machine available. This is the baseline
// §4.3 argues against — it will burn the uniquely-capable "machine A" on a
// task that could run anywhere.
type GreedyBestFit struct{ scratch placeScratch }

// NewGreedyBestFit returns the policy. Repeated Place calls share its round
// buffers instead of allocating, so one policy value must not place
// concurrently with itself.
func NewGreedyBestFit() *GreedyBestFit { return new(GreedyBestFit) }

// Name implements Policy.
func (*GreedyBestFit) Name() string { return "greedy-best-fit" }

// Place implements Policy.
func (p *GreedyBestFit) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	round, placed, waiting := newRound(items, machines, &p.scratch)
	for _, it := range items {
		if best := round.pickBest(it, false); best != nil {
			placed = append(placed, round.assign(it, best))
		} else {
			waiting = append(waiting, it)
		}
	}
	round.release()
	return placed, waiting
}

// UtilizationFirst is the paper's policy: "tend to give preference to
// schedules that maximize overall resource utilization (and therefore
// maximize system throughput) rather than schedules that optimize the
// performance of any single job."
//
// Constrained items (fewest candidate machines) place first; flexible items
// then avoid machines that are the unique hosts of still-waiting constrained
// items, waiting instead if no other machine is free — the §4.3 example where
// the portable task yields machine A and "should be made to wait" because it
// "can be used to occupy a workstation if one becomes idle."
type UtilizationFirst struct{ scratch placeScratch }

// NewUtilizationFirst returns the policy; see NewGreedyBestFit.
func NewUtilizationFirst() *UtilizationFirst { return new(UtilizationFirst) }

// Name implements Policy.
func (*UtilizationFirst) Name() string { return "utilization-first" }

// Place implements Policy.
func (p *UtilizationFirst) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	round, placed, waiting := newRound(items, machines, &p.scratch)
	// A machine's scarce count tracks waiting constrained items for which
	// it is the only candidate. Ids absent from the snapshot are skipped
	// as candidates anyway, so their demand can be dropped here. The same
	// pass collects the distinct candidate-set sizes (almost always ≤ 2:
	// one pinned class plus "any machine").
	lenA, lenB := -1, -1 // distinct candidate-set sizes seen (at most two tracked)
	moreSizes := false
	for _, it := range items {
		n := len(it.CandidateIDs)
		if n == 1 {
			if ms := round.byID(it.CandidateIDs[0]); ms != nil {
				ms.scarce++
			}
		}
		switch {
		case lenA == -1 || n == lenA:
			lenA = n
		case lenB == -1 || n == lenB:
			lenB = n
		default:
			moreSizes = true
		}
	}
	// Scarcest-capability first; ties keep submission order. With one
	// distinct size the stable sort is the identity permutation; with two,
	// a stable partition replaces the O(n log n) sort. More sizes fall back
	// to sorting.
	var order []int
	switch {
	case !moreSizes && lenB == -1:
		// uniform: identity order
	case !moreSizes:
		small := lenA
		if lenB < lenA {
			small = lenB
		}
		order = p.scratch.orderBuf(len(items))
		for i := range items {
			if len(items[i].CandidateIDs) == small {
				order = append(order, i)
			}
		}
		for i := range items {
			if len(items[i].CandidateIDs) != small {
				order = append(order, i)
			}
		}
	default:
		order = p.scratch.orderBuf(len(items))[:len(items)]
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return len(items[order[a]].CandidateIDs) < len(items[order[b]].CandidateIDs)
		})
	}

	for pos := range items {
		idx := pos
		if order != nil {
			idx = order[pos]
		}
		it := items[idx]
		constrained := len(it.CandidateIDs) == 1
		// Flexible items skip machines reserved for tasks that can run
		// nowhere else.
		best := round.pickBest(it, !constrained)
		if best == nil {
			waiting = append(waiting, it)
			continue
		}
		if constrained {
			best.scarce--
		}
		placed = append(placed, round.assign(it, best))
	}
	round.release()
	return placed, waiting
}

// roundState wraps the caller's machine states as the round's working set
// (the Policy contract hands the slice to the policy; no defensive copy).
// free is the round's budget: the snapshot's unspent slots, counted once at
// the start and decremented per assignment. byIndex is the scratch's id
// table: it holds one entry per snapshot machine during the round and is all
// nil between rounds.
type roundState struct {
	backing []MachineState
	free    int
	byIndex []*MachineState
}

// newRound opens a round over machines and returns it with empty
// placed/waiting buffers: placements are bounded by the free slots and the
// items offered, waiting by the items offered. The pass that sums the free
// slots also sets the id-table entry of every snapshot machine — no hashing,
// and no pass over ids the snapshot does not hold.
func newRound(items []Item, machines []MachineState, s *placeScratch) (roundState, []Assignment, []Item) {
	free := 0
	t := s.byIndex
	for i := range machines {
		ms := &machines[i]
		if ms.Slots > 0 {
			free += ms.Slots
		}
		if ms.Index >= len(t) {
			t = append(t, make([]*MachineState, ms.Index+1-len(t))...)
		}
		t[ms.Index] = ms
	}
	s.byIndex = t
	placed, waiting := s.outBuffers(min(free, len(items)), len(items))
	return roundState{backing: machines, free: free, byIndex: t}, placed, waiting
}

// assign books it onto ms, spending one of the machine's slots and one unit
// of the round's budget.
func (r *roundState) assign(it Item, ms *MachineState) Assignment {
	ms.Slots--
	r.free--
	ms.Load += loadIncrement(it, ms.Machine)
	return Assignment{Ref: it.Ref, Machine: ms.Index}
}

// byID resolves a caller-assigned MachineState.Index to its snapshot entry,
// nil when the id names no machine in this round.
func (r *roundState) byID(id int) *MachineState {
	if id < 0 || id >= len(r.byIndex) {
		return nil
	}
	return r.byIndex[id]
}

// release ends the round: it clears the id-table entries newRound set, so
// the next round's table holds only its own snapshot.
func (r *roundState) release() {
	for i := range r.backing {
		r.byIndex[r.backing[i].Index] = nil
	}
}

// pickBest scans one item's candidate ids and returns the best-scoring
// machine with a free slot, nil when none qualifies. With the round's budget
// spent none can, so nothing is resolved. Equal scores keep the earliest
// candidate, so candidate order is the tie-breaker. With skipReserved,
// machines carrying scarce reservations are passed over (UtilizationFirst's
// flexible items).
func (r *roundState) pickBest(it Item, skipReserved bool) *MachineState {
	if r.free == 0 {
		return nil
	}
	var best *MachineState
	bestScore := -1.0
	for _, id := range it.CandidateIDs {
		ms := r.byID(id)
		if ms == nil || ms.Slots <= 0 || (skipReserved && ms.scarce > 0) {
			continue
		}
		if score := ms.Machine.Speed / (1 + ms.Load); score > bestScore {
			bestScore, best = score, ms
		}
	}
	return best
}

// loadIncrement estimates how much an item raises a machine's load, scaling
// inversely with speed so fast machines absorb work more gracefully.
func loadIncrement(it Item, m arch.Machine) float64 {
	if m.Speed <= 0 {
		return 1
	}
	if it.Work <= 0 {
		return 1 / m.Speed
	}
	return it.Work / (it.Work + m.Speed) / m.Speed * 2
}

// AgingQueue is the §4.3 anti-starvation dispatcher queue: effective
// priority = base priority + aging rate × wait time, so every task is
// eventually dispatched.
type AgingQueue struct {
	// rate is priority points added per second of waiting.
	rate    float64
	entries []agingEntry
}

type agingEntry struct {
	id       string
	base     float64
	enqueued time.Duration
}

// NewAgingQueue returns a queue with the given aging rate (points/second).
// A zero rate disables aging (pure static priority — the starvation-prone
// baseline the experiments compare against).
func NewAgingQueue(rate float64) *AgingQueue {
	return &AgingQueue{rate: rate}
}

// Push enqueues a task with a base priority at virtual time now.
func (q *AgingQueue) Push(id string, base float64, now time.Duration) {
	q.entries = append(q.entries, agingEntry{id: id, base: base, enqueued: now})
}

// Len returns the queued count.
func (q *AgingQueue) Len() int { return len(q.entries) }

// Effective returns the entry's current effective priority.
func (q *AgingQueue) effective(e agingEntry, now time.Duration) float64 {
	return e.base + q.rate*(now-e.enqueued).Seconds()
}

// Peek returns the id that Pop would return, without removing it.
func (q *AgingQueue) Peek(now time.Duration) (string, bool) {
	idx := q.best(now)
	if idx < 0 {
		return "", false
	}
	return q.entries[idx].id, true
}

// Pop removes and returns the highest effective-priority task. FIFO order
// breaks ties, which itself prevents starvation among equal priorities.
func (q *AgingQueue) Pop(now time.Duration) (string, bool) {
	idx := q.best(now)
	if idx < 0 {
		return "", false
	}
	id := q.entries[idx].id
	q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
	return id, true
}

func (q *AgingQueue) best(now time.Duration) int {
	idx := -1
	bestP := 0.0
	for i, e := range q.entries {
		p := q.effective(e, now)
		if idx < 0 || p > bestP {
			idx = i
			bestP = p
		}
	}
	return idx
}

// Boost raises a queued task's base priority — the §4.3 "authorized users
// will be able to modify the priorities of particular applications" hook.
// It reports whether the task was found.
func (q *AgingQueue) Boost(id string, delta float64) bool {
	for i := range q.entries {
		if q.entries[i].id == id {
			q.entries[i].base += delta
			return true
		}
	}
	return false
}

// WaitTimes reports each queued task's wait so far, for starvation metrics.
func (q *AgingQueue) WaitTimes(now time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, len(q.entries))
	for _, e := range q.entries {
		out[e.id] = now - e.enqueued
	}
	return out
}
