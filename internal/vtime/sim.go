package vtime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Sim is a single-threaded discrete-event simulation kernel. Events are
// callbacks scheduled at virtual instants; Run drains the queue in
// (time, sequence) order, so simulations are fully deterministic.
//
// The queue is a 4-ary min-heap of value-typed events — no interface boxing
// and no per-event heap allocation on the scheduling path — with an
// index-tracking slot arena so any pending event can be cancelled and
// removed in O(log n). Cancellation physically deletes the event: Pending
// never counts dead work, and superseded events cost nothing when their
// original deadline passes.
//
// The heap itself holds only the comparison fields (at, seq, slot) — 24
// bytes per entry — while the cold callback pointer lives in the event's
// slot-arena entry, which sift moves touch once per level anyway to track
// the heap index. Sifts therefore stream pure key material: the four
// children of a node span 96 contiguous bytes instead of 128, which is what
// keeps the comparison path cache-resident at 10⁴–10⁵ pending events.
//
// A Sim is recyclable: Reset rewinds the clock and recycles the slot arena
// in place, so a simulation world torn down and rebuilt between runs reuses
// the kernel's backing arrays instead of reallocating them (the scenario
// engine's per-worker arena leans on this).
//
// Sim is not safe for concurrent use: all events must be scheduled either
// before Run or from within event callbacks, which is the natural shape of a
// discrete-event simulation. Halt is the one exception — any goroutine may
// call it, which is how a cancelled context stops a running loop. The
// cluster simulator (internal/sim) is built on this kernel.
type Sim struct {
	now   time.Duration
	seq   int64
	heap  []event
	slots []slot
	free  []int32
	stats Stats
	// halted is a pending Halt request: set by Halt from any goroutine,
	// read by the loop before each event of a later instant, cleared by
	// the RunUntil that honours it (and by Reset).
	halted atomic.Bool
	// audit, when set, observes every fired event just before its callback
	// runs (see SetAuditHook). Nil on the production path: the only cost is
	// one predictable branch per event.
	audit func(at time.Duration)
}

// Stats counts a kernel's traffic since its creation or last Reset. The
// kernel always keeps them: one plain increment per queue operation, read
// through Sim.Stats. The JSON names are the telemetry.json counter names.
type Stats struct {
	// Scheduled counts At/After/AtSeq calls (every event ever queued).
	Scheduled int64 `json:"scheduled"`
	// Fired counts events whose callback executed.
	Fired int64 `json:"fired"`
	// Cancelled counts Cancel calls that actually removed a pending event.
	Cancelled int64 `json:"cancelled"`
	// HeapMax is the high-water pending-queue depth observed at schedule
	// time — how deep the 4-ary heap actually got.
	HeapMax int `json:"heap_max"`
}

// Merge accumulates o into st: counts sum, the high water takes the max.
func (st *Stats) Merge(o Stats) {
	st.Scheduled += o.Scheduled
	st.Fired += o.Fired
	st.Cancelled += o.Cancelled
	st.HeapMax = max(st.HeapMax, o.HeapMax)
}

// NewSim returns a simulation kernel positioned at virtual time zero.
func NewSim() *Sim { return &Sim{} }

// Reset rewinds the kernel to virtual time zero for reuse: the pending
// queue is dropped, every outstanding Event handle goes permanently inert
// (slot generations advance, so no handle from before the Reset can ever
// cancel an event scheduled after it), the traffic counters zero and the
// audit hook is detached. The heap, slot arena and free list keep their
// backing arrays — a reset kernel schedules into already-sized storage, so
// recycling a simulation world allocates nothing in the kernel. The arena
// never grows across reuse cycles beyond the high-water concurrency of the
// busiest cycle (see ArenaSlots).
func (s *Sim) Reset() {
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	// Descending free list: the next At pops slot 0 first, mirroring the
	// allocation order of a fresh kernel.
	for i := len(s.slots) - 1; i >= 0; i-- {
		s.slots[i].gen++
		s.slots[i].idx = -1
		s.slots[i].fn = nil
		s.free = append(s.free, int32(i))
	}
	s.now = 0
	s.seq = 0
	s.stats = Stats{}
	s.halted.Store(false)
	s.audit = nil
}

// ArenaSlots returns the size of the slot arena — the high-water count of
// concurrently pending events over the kernel's lifetime, surviving Reset.
// Reuse tests pin this to prove the arena stays bounded across cycles.
func (s *Sim) ArenaSlots() int { return len(s.slots) }

// event is one queued heap entry: just the (time, seq) comparison key and
// the arena slot that tracks the entry's heap index across sift moves. The
// callback is deliberately NOT here — it lives in the slot entry, so sift
// comparisons and moves touch only this 24-byte key.
type event struct {
	at   time.Duration
	seq  int64
	slot int32
}

// slot is one arena entry: the tracked heap index of a live event, a
// generation counter that invalidates handles when the slot is recycled,
// and the event's callback (cold until the event fires).
type slot struct {
	idx int32
	gen uint32
	fn  func()
}

// Event is a cancellable handle to a scheduled callback, returned by At and
// After. The zero Event is invalid: cancelling it is a no-op. Handles stay
// safely inert after their event fires or is cancelled (the slot generation
// moves on), so callers may keep and re-cancel them freely.
type Event struct {
	slot int32
	gen  uint32
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() int64 { return s.stats.Fired }

// Stats returns the kernel's traffic counters.
func (s *Sim) Stats() Stats { return s.stats }

// Pending returns the number of events still queued. Cancelled events are
// removed immediately and never counted.
func (s *Sim) Pending() int { return len(s.heap) }

// At schedules fn at absolute virtual time t and returns a handle that
// cancels it. Scheduling in the past panics: that is always a simulation
// bug, not a recoverable condition.
func (s *Sim) At(t time.Duration, fn func()) Event {
	return s.AtSeq(t, s.Reserve(), fn)
}

// Reserve takes the next sequence number and skips it: At never hands it
// out, and AtSeq schedules under it later. A chain of events of which at most
// one is pending at a time can share one reserved number, and each of them
// then breaks same-instant ties exactly as if it had been scheduled at the
// reservation.
func (s *Sim) Reserve() int64 {
	seq := s.seq
	s.seq++
	return seq
}

// AtSeq is At under a sequence number that Reserve returned. Two pending
// events under one number would tie on (time, sequence), so a caller arms
// one event per reserved number at a time; a number not yet handed out
// panics.
func (s *Sim) AtSeq(t time.Duration, seq int64, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("vtime: event scheduled at %v before now %v", t, s.now))
	}
	if seq >= s.seq {
		panic(fmt.Sprintf("vtime: sequence number %d was never reserved", seq))
	}
	var sl int32
	if n := len(s.free); n > 0 {
		sl = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		// Generations start at 1 so the zero Event handle never matches.
		s.slots = append(s.slots, slot{gen: 1})
		sl = int32(len(s.slots) - 1)
	}
	i := len(s.heap)
	s.heap = append(s.heap, event{at: t, seq: seq, slot: sl})
	s.slots[sl].idx = int32(i)
	s.slots[sl].fn = fn
	s.siftUp(i)
	s.stats.Scheduled++
	s.stats.HeapMax = max(s.stats.HeapMax, len(s.heap))
	return Event{slot: sl, gen: s.slots[sl].gen}
}

// After schedules fn d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event from the queue. It reports whether the
// call prevented the callback from firing: false when the event already
// fired, was already cancelled, or the handle is zero.
func (s *Sim) Cancel(e Event) bool {
	if e.slot < 0 || int(e.slot) >= len(s.slots) {
		return false
	}
	sl := s.slots[e.slot]
	if sl.gen != e.gen || sl.idx < 0 {
		return false
	}
	s.removeAt(int(sl.idx))
	s.freeSlot(e.slot)
	s.stats.Cancelled++
	return true
}

// freeSlot retires an arena entry, bumping its generation so outstanding
// handles to the old incarnation go inert. The callback reference is
// released here — the heap entries are pure values and need no clearing.
func (s *Sim) freeSlot(sl int32) {
	s.slots[sl].gen++
	s.slots[sl].idx = -1
	s.slots[sl].fn = nil
	s.free = append(s.free, sl)
}

// removeAt deletes the event at heap index i, restoring heap order.
func (s *Sim) removeAt(i int) {
	last := len(s.heap) - 1
	if i != last {
		s.heap[i] = s.heap[last]
		s.slots[s.heap[i].slot].idx = int32(i)
	}
	s.heap = s.heap[:last]
	if i != last {
		s.siftDown(i)
		s.siftUp(i)
	}
}

// fire removes the earliest event, advances the clock to it, shows it to
// the audit hook and runs it. Caller guarantees a non-empty queue.
func (s *Sim) fire() {
	e := s.heap[0]
	fn := s.slots[e.slot].fn
	s.freeSlot(e.slot)
	last := len(s.heap) - 1
	if last > 0 {
		s.heap[0] = s.heap[last]
		s.slots[s.heap[0].slot].idx = 0
	}
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0)
	}
	s.now = e.at
	s.stats.Fired++
	if s.audit != nil {
		s.audit(e.at)
	}
	fn()
}

func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp and siftDown move a hole instead of swapping: one event copy and
// one index update per level rather than three and two.
func (s *Sim) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessEv(&e, &s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.slots[s.heap[i].slot].idx = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slots[e.slot].idx = int32(i)
}

func (s *Sim) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if lessEv(&s.heap[c], &s.heap[min]) {
				min = c
			}
		}
		if !lessEv(&s.heap[min], &e) {
			break
		}
		s.heap[i] = s.heap[min]
		s.slots[s.heap[i].slot].idx = int32(i)
		i = min
	}
	s.heap[i] = e
	s.slots[e.slot].idx = int32(i)
}

// SetAuditHook installs (or, with nil, removes) an observer called once per
// fired event, after the virtual clock has advanced to the event's instant
// and before the event's callback executes. The hook sees the exact fire
// sequence — times are non-decreasing by construction, and an auditor that
// re-derives kernel invariants (internal/sim's conservation-of-work Auditor)
// hangs off this — but must not schedule, cancel or halt: it is a probe, not
// a participant.
func (s *Sim) SetAuditHook(fn func(at time.Duration)) { s.audit = fn }

// Halt stops Run before it fires an event of a later instant than the
// current one: the events of the instant being drained still fire, the rest
// stay queued, and a later Run resumes where the halted one stopped. It is
// safe to call from any goroutine, at any time. A Halt that finds nothing
// left to stop — no loop running, or a loop with no event left at or before
// its limit — stays pending for the next loop; Reset clears it.
func (s *Sim) Halt() { s.halted.Store(true) }

// Run executes events until the queue is empty or Halt is called. It returns
// the virtual time at which the simulation quiesced.
func (s *Sim) Run() time.Duration {
	return s.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= limit. Events beyond limit stay
// queued; the virtual clock is left at min(limit, last event time) if events
// ran, or advanced to limit if the queue drained earlier. A halted loop
// stops short of an event at or before limit, so it returns a time below
// limit — what tells its caller the run did not finish.
func (s *Sim) RunUntil(limit time.Duration) time.Duration {
	for len(s.heap) > 0 {
		next := s.heap[0].at
		if next > limit {
			s.now = limit
			return s.now
		}
		if next > s.now && s.halted.Load() {
			s.halted.Store(false)
			return s.now
		}
		s.fire()
	}
	// Queue drained: the caller asked for time to pass regardless.
	if s.now < limit && limit < 1<<62-1 {
		s.now = limit
	}
	return s.now
}

// Step executes exactly one event if any is queued and reports whether it did.
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fire()
	return true
}
