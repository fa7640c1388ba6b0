// Package sched implements the execution-layer scheduling machinery of §4.3:
// bid ranking for the Figure 3 protocol, placement policies (the
// throughput-first policy of the paper against a per-job greedy baseline),
// and the aging priority queue that prevents starvation ("as a task waits to
// be dispatched its priority will be increased to insure it will eventually
// be dispatched even if that results in a globally suboptimal schedule").
//
// The placement contract (Policy) is shaped by its event-frequency caller,
// the scenario engine. A policy owns the waiting queue: the engine enqueues
// every task that must wait (§4.3: a portable task "should be made to
// wait") and, whenever an arrival, completion or owner departure may have
// freed a slot, asks the policy to place what it can against its machines'
// free capacity. It speaks one identity, dense ints: a machine's id is its
// position in the snapshot, an Item names its admissible machines by those
// ids (CandidateIDs, resolved by indexing the snapshot) and carries the
// caller's Ref, and an Assignment hands back the item's Ref and the chosen
// machine's position, so the caller resolves no name to act on it. Task and
// machine names are labels only.
//
// The queue is one FIFO per distinct candidate set, merged by arrival
// sequence. Within a round slots only go down, so once one item of a set
// finds no free candidate none of the set's later items can place, and the
// round skips the rest of that FIFO; a round also ends when nothing is
// free. A round therefore costs what it places plus one visit per set, not
// the queue's length (Locality still walks every item for its backlog
// counters).
package sched

import (
	"slices"
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

// MachineState is a scheduler's snapshot of one machine. A snapshot is the
// whole fleet in the caller's order: a machine's id is its position in the
// slice, and a machine that takes nothing this round is present with
// Slots 0 (its Load is then never read).
type MachineState struct {
	// Machine is the hardware description.
	Machine arch.Machine
	// Load is current utilization (local + remote demand).
	Load float64
	// Slots is how many additional tasks this machine accepts in this
	// placement round.
	Slots int
	// Deprecated: not read; a machine's id is its position in the snapshot.
	Index int
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
	// requirements), as positions in the machines snapshot: policies
	// resolve each by indexing it, no name hashing. Ids outside
	// [0, len(machines)) resolve to nothing and are skipped; entry order
	// breaks score ties.
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
	// Machine is the chosen machine's position in the snapshot.
	Machine int
}

// Policy owns a waiting queue and places its items onto machines.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Enqueue adds it at the back of the queue. Its CandidateIDs slice is
	// kept, not copied, and must not change while the item waits.
	Enqueue(it Item)
	// Len is the number of waiting items.
	Len() int
	// PlaceWaiting runs one placement round and returns its assignments;
	// placed items leave the queue, and the slice is valid until the next
	// call. machines is the positional fleet snapshot and the round's
	// working state: Slots and Load are consumed in place as assignments
	// are made. free is the snapshot's total of positive Slots, which the
	// scenario engine keeps as it re-derives the machines that changed.
	// Items the round leaves waiting keep their arrival order.
	PlaceWaiting(machines []MachineState, free int) []Assignment
	// Each calls fn on every waiting item, set by set; fn must not change
	// the queue.
	Each(fn func(*Item))
	// Reset empties the queue, keeping its storage.
	Reset()
	// Place is the one-round form, used only by tests and the benchmark's
	// placement probe: it resets the queue, enqueues items, runs
	// PlaceWaiting, and returns the assignments and the items left waiting
	// in the order the round visited them, leaving the queue empty. items
	// is not mutated.
	Place(items []Item, machines []MachineState) ([]Assignment, []Item)
}

// queue is the waiting line every policy keeps: one FIFO per distinct
// candidate set, merged by arrival sequence. GreedyBestFit and
// UtilizationFirst are a queue and its round loop; Locality embeds one and
// runs its own round over it. One queue must not be used concurrently.
type queue struct {
	sets []fifo
	n    int // waiting items across sets
	seq  int // arrival sequence of the next enqueued item
	// bySize makes the round visit sets by candidate-set size before
	// arrival, and flexible items pass over reserved machines
	// (UtilizationFirst).
	bySize bool
	// reserved counts, per machine id, the waiting items whose only
	// candidate it is; kept on push and pop when bySize.
	reserved []int
	placed   []Assignment
	rest     []Item
	// visits counts the heads the round loop has looked at.
	visits int
}

// fifo is the waiting line of one candidate set: buf[head:], in arrival
// order. blocked marks a set whose head found no free candidate in the
// running round.
type fifo struct {
	ids     []int // the set, as the first item enqueued into it carried it
	buf     []queued
	head    int
	blocked bool
}

type queued struct {
	Item
	seq int
}

// Enqueue implements Policy.
func (q *queue) Enqueue(it Item) { q.push(q.setFor(it.CandidateIDs), it) }

// Len implements Policy.
func (q *queue) Len() int { return q.n }

// Each implements Policy.
func (q *queue) Each(fn func(*Item)) {
	for s := range q.sets {
		f := &q.sets[s]
		for i := f.head; i < len(f.buf); i++ {
			fn(&f.buf[i].Item)
		}
	}
}

// Reset implements Policy. A set's storage is reused by the next set
// opened in its place.
func (q *queue) Reset() {
	q.sets = q.sets[:0]
	q.n, q.seq = 0, 0
	clear(q.reserved)
}

// setFor returns the index of the FIFO for candidate set ids, opening one
// for a set not seen since the last Reset. Sets compare by contents, after
// a slice-header test that makes a caller's shared sets cost O(1) each.
func (q *queue) setFor(ids []int) int {
	for s := range q.sets {
		f := q.sets[s].ids
		if len(f) == len(ids) && (len(f) > 0 && &f[0] == &ids[0] || slices.Equal(f, ids)) {
			return s
		}
	}
	s := len(q.sets)
	q.sets = slices.Grow(q.sets, 1)[:s+1]
	q.sets[s] = fifo{ids: ids, buf: q.sets[s].buf[:0]}
	return s
}

// push appends it to set s with the next arrival sequence. A full buffer
// whose front half is popped slides its line down instead of growing.
func (q *queue) push(s int, it Item) {
	f := &q.sets[s]
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, queued{Item: it, seq: q.seq})
	q.seq++
	q.n++
	q.reserve(f.ids, 1)
}

// pop removes set s's head.
func (q *queue) pop(s int) {
	f := &q.sets[s]
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	q.n--
	q.reserve(f.ids, -1)
}

// reserve adds d to the reservation of a single-candidate set's machine.
func (q *queue) reserve(ids []int, d int) {
	if q.bySize && len(ids) == 1 && ids[0] >= 0 {
		id := ids[0]
		q.reserved = append(q.reserved, make([]int, max(0, id+1-len(q.reserved)))...)
		q.reserved[id] += d
	}
}

// next returns the set whose head the round visits next: of the unblocked,
// non-empty sets, the one whose head arrived first (under bySize, the
// smallest set first); -1 when none is left.
func (q *queue) next() int {
	best := -1
	for s := range q.sets {
		f := &q.sets[s]
		if f.blocked || f.head == len(f.buf) {
			continue
		}
		if best < 0 || q.before(f, &q.sets[best]) {
			best = s
		}
	}
	return best
}

func (q *queue) before(a, b *fifo) bool {
	if q.bySize && len(a.ids) != len(b.ids) {
		return len(a.ids) < len(b.ids)
	}
	return a.buf[a.head].seq < b.buf[b.head].seq
}

// PlaceWaiting implements Policy: each visit takes the next set's head and
// places it on its best free candidate, or blocks the set. That is exact:
// slots only go down within a round, so no later item of a blocked set
// could place. UtilizationFirst's reservations cannot change while a
// flexible set is visited either, since every single-candidate set sorts
// first.
func (q *queue) PlaceWaiting(machines []MachineState, free int) []Assignment {
	r := roundState{machines: machines, free: free}
	q.placed = q.placed[:0]
	for s := q.next(); s >= 0 && r.free > 0; s = q.next() {
		q.visits++
		f := &q.sets[s]
		var reserved []int
		if q.bySize && len(f.ids) != 1 {
			reserved = q.reserved // flexible items yield the unique hosts
		}
		it := &f.buf[f.head].Item
		if best := r.pickBest(it, reserved); best >= 0 {
			q.placed = append(q.placed, r.assign(it, best))
			q.pop(s)
		} else {
			f.blocked = true
		}
	}
	for s := range q.sets {
		q.sets[s].blocked = false
	}
	return q.placed
}

// Place implements Policy.
func (q *queue) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	return q.PlaceWaiting(machines, q.load(items, machines)), q.drain()
}

// load is the first half of Place: it resets the queue, enqueues items and
// returns the snapshot's free total.
func (q *queue) load(items []Item, machines []MachineState) (free int) {
	q.Reset()
	for i := range items {
		q.Enqueue(items[i])
	}
	for i := range machines {
		free += max(0, machines[i].Slots)
	}
	return free
}

// drain is the second half of Place: it empties the queue into the rest
// buffer, in visit order.
func (q *queue) drain() []Item {
	q.rest = q.rest[:0]
	for s := q.next(); s >= 0; s = q.next() {
		f := &q.sets[s]
		q.rest = append(q.rest, f.buf[f.head].Item)
		q.pop(s)
	}
	return q.rest
}

// GreedyBestFit optimizes each job in isolation: every item takes the
// fastest, least-loaded admissible machine available. This is the baseline
// §4.3 argues against — it will burn the uniquely-capable "machine A" on a
// task that could run anywhere.
type GreedyBestFit struct{ queue }

// NewGreedyBestFit returns the policy with an empty queue.
func NewGreedyBestFit() *GreedyBestFit { return new(GreedyBestFit) }

// Name implements Policy.
func (*GreedyBestFit) Name() string { return "greedy-best-fit" }

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
type UtilizationFirst struct{ queue }

// NewUtilizationFirst returns the policy with an empty queue.
func NewUtilizationFirst() *UtilizationFirst { return &UtilizationFirst{queue{bySize: true}} }

// Name implements Policy.
func (*UtilizationFirst) Name() string { return "utilization-first" }

// roundState is one round's view of the caller's positional snapshot (no
// defensive copy): free is the round's budget, the snapshot's unspent
// slots, decremented per assignment.
type roundState struct {
	machines []MachineState
	free     int
}

// assign books it onto machine id, spending one of the machine's slots and
// one unit of the round's budget.
func (r *roundState) assign(it *Item, id int) Assignment {
	ms := &r.machines[id]
	ms.Slots--
	r.free--
	ms.Load += loadIncrement(it.Work, ms.Machine.Speed)
	return Assignment{Ref: it.Ref, Machine: id}
}

// byID resolves a machine id, a position in the snapshot, to its entry; nil
// when the id is outside the snapshot.
func (r *roundState) byID(id int) *MachineState {
	if id < 0 || id >= len(r.machines) {
		return nil
	}
	return &r.machines[id]
}

// pickBest scans one item's candidate ids and returns the id of the
// best-scoring machine with a free slot, -1 when none qualifies. With the
// round's budget spent none can, so nothing is resolved. Equal scores keep
// the earliest candidate, so candidate order is the tie-breaker. Machines
// with a positive count in reserved are passed over (UtilizationFirst's
// flexible items).
func (r *roundState) pickBest(it *Item, reserved []int) int {
	if r.free == 0 {
		return -1
	}
	best := -1
	bestScore := -1.0
	for _, id := range it.CandidateIDs {
		ms := r.byID(id)
		if ms == nil || ms.Slots <= 0 || (id < len(reserved) && reserved[id] > 0) {
			continue
		}
		if score := ms.Machine.Speed / (1 + ms.Load); score > bestScore {
			bestScore, best = score, id
		}
	}
	return best
}

// loadIncrement estimates how much an item of the given work raises the
// load of a machine of the given speed, scaling inversely with speed so
// fast machines absorb work more gracefully.
func loadIncrement(work, speed float64) float64 {
	if speed <= 0 {
		return 1
	}
	if work <= 0 {
		return 1 / speed
	}
	return work / (work + speed) / speed * 2
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

// Effective returns the entry's current effective priority.
func (q *AgingQueue) effective(e agingEntry, now time.Duration) float64 {
	return e.base + q.rate*(now-e.enqueued).Seconds()
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
