package vtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimTieBreakBySequence(t *testing.T) {
	s := NewSim()
	var order []string
	s.At(time.Second, func() { order = append(order, "a") })
	s.At(time.Second, func() { order = append(order, "b") })
	s.At(time.Second, func() { order = append(order, "c") })
	s.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie-break order = %q, want abc", got)
	}
}

// TestSimReservedSequence: an event armed late under a reserved number
// breaks same-instant ties as if it had been scheduled at the reservation —
// after what was scheduled before it, before what was scheduled after it,
// however late it is armed — and At never hands that number out.
func TestSimReservedSequence(t *testing.T) {
	s := NewSim()
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	s.At(time.Second, note("before"))
	r := s.Reserve()
	for range 8 {
		s.At(time.Second, note("after"))
	}
	// A chain under r: one event pending at a time, each arming the next.
	// Armed at 0.5 s, the first fires among the 1 s events scheduled before
	// it was armed; the second is armed from inside the first, at the same
	// instant, and still fires before every later-numbered event.
	s.At(time.Second/2, func() {
		s.AtSeq(time.Second, r, func() {
			order = append(order, "reserved-1")
			s.At(time.Second, note("armed-inside"))
			s.AtSeq(time.Second, r, note("reserved-2"))
		})
	})
	s.Run()
	want := []string{"before", "reserved-1", "reserved-2", "after", "after", "after", "after", "after", "after", "after", "after", "armed-inside"}
	if len(order) != len(want) {
		t.Fatalf("fire order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
	if st := s.Stats(); st.Scheduled != 13 || st.Fired != 13 {
		t.Errorf("stats scheduled %d fired %d, want 13 and 13: AtSeq counts as scheduling", st.Scheduled, st.Fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtSeq under a number never reserved did not panic")
		}
	}()
	s.AtSeq(2*time.Second, s.Reserve()+1, func() {})
}

func TestSimAfterNested(t *testing.T) {
	s := NewSim()
	var at []time.Duration
	s.After(time.Second, func() {
		at = append(at, s.Now())
		s.After(2*time.Second, func() { at = append(at, s.Now()) })
	})
	s.Run()
	if len(at) != 2 || at[0] != time.Second || at[1] != 3*time.Second {
		t.Fatalf("nested scheduling times = %v", at)
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	fired := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { fired++ })
	}
	s.RunUntil(5 * time.Second)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", s.Now())
	}
	s.Run()
	if fired != 10 {
		t.Fatalf("fired after Run = %d, want 10", fired)
	}
}

func TestSimHalt(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(time.Second, func() { fired++; s.Halt() })
	s.At(2*time.Second, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after Halt", fired)
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after resume", fired)
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := NewSim()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestSimStep(t *testing.T) {
	s := NewSim()
	n := 0
	s.At(time.Second, func() { n++ })
	s.At(2*time.Second, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("step on empty queue reported true")
	}
}

func TestSimCancelRemovesEvent(t *testing.T) {
	s := NewSim()
	var fired []string
	ev := s.At(2*time.Second, func() { fired = append(fired, "cancelled") })
	s.At(time.Second, func() { fired = append(fired, "a") })
	s.At(3*time.Second, func() { fired = append(fired, "b") })
	if !s.Cancel(ev) {
		t.Fatal("Cancel on pending event returned false")
	}
	if s.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSimCancelZeroHandleAndFiredEvent(t *testing.T) {
	s := NewSim()
	var zero Event
	if s.Cancel(zero) {
		t.Fatal("zero handle cancelled something")
	}
	ev := s.At(time.Second, func() {})
	s.Run()
	if s.Cancel(ev) {
		t.Fatal("Cancel after firing returned true")
	}
}

// TestSimCancelSlotReuse pins the generation check: a handle to a fired
// event must stay inert even after its arena slot is recycled by newer
// events.
func TestSimCancelSlotReuse(t *testing.T) {
	s := NewSim()
	stale := s.At(time.Second, func() {})
	s.Run()
	fired := false
	s.At(2*time.Second, func() { fired = true }) // recycles the freed slot
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	s.Run()
	if !fired {
		t.Fatal("new event in recycled slot did not fire")
	}
}

// TestSimCancelStormKeepsOrder stresses interleaved schedule/cancel churn
// and checks the survivors still fire in exact (time, seq) order.
func TestSimCancelStormKeepsOrder(t *testing.T) {
	s := NewSim()
	var fired []int
	var handles []Event
	for i := 0; i < 500; i++ {
		i := i
		at := time.Duration((i*37)%251) * time.Millisecond
		handles = append(handles, s.At(at, func() { fired = append(fired, i) }))
	}
	cancelled := map[int]bool{}
	for i := 0; i < 500; i += 3 {
		if !s.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
		cancelled[i] = true
	}
	if got := s.Pending(); got != 500-len(cancelled) {
		t.Fatalf("pending = %d, want %d", got, 500-len(cancelled))
	}
	s.Run()
	if len(fired) != 500-len(cancelled) {
		t.Fatalf("fired %d events, want %d", len(fired), 500-len(cancelled))
	}
	// Survivors must fire in (time, seq) order: timestamps non-decreasing,
	// and within one timestamp the insertion index ascending.
	for k := 1; k < len(fired); k++ {
		prev, cur := fired[k-1], fired[k]
		pt, ct := (prev*37)%251, (cur*37)%251
		if pt > ct || (pt == ct && prev > cur) {
			t.Fatalf("order violated at %d: %d before %d", k, prev, cur)
		}
	}
	for i := range cancelled {
		for _, f := range fired {
			if f == i {
				t.Fatalf("cancelled event %d fired", i)
			}
		}
	}
}

// TestSimRunUntilLimitBoundary pins the clock contract exactly at the
// limit: an event at the limit fires, one a nanosecond past it stays
// queued, and the clock rests at the limit in both cases.
func TestSimRunUntilLimitBoundary(t *testing.T) {
	s := NewSim()
	var fired []time.Duration
	s.At(5*time.Second, func() { fired = append(fired, s.Now()) })
	s.At(5*time.Second+time.Nanosecond, func() { fired = append(fired, s.Now()) })
	s.RunUntil(5 * time.Second)
	if len(fired) != 1 || fired[0] != 5*time.Second {
		t.Fatalf("fired = %v, want exactly the event at the limit", fired)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 || fired[1] != 5*time.Second+time.Nanosecond {
		t.Fatalf("fired = %v after drain", fired)
	}
}

// TestSimHaltMidDrain halts from deep inside a drain and checks the clock
// freezes at the halting event while the rest of the queue survives intact.
func TestSimHaltMidDrain(t *testing.T) {
	s := NewSim()
	fired := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(time.Duration(i)*time.Second, func() {
			fired++
			if i == 4 {
				s.Halt()
			}
		})
	}
	at := s.Run()
	if fired != 4 || at != 4*time.Second {
		t.Fatalf("halted after %d events at %v, want 4 events at 4s", fired, at)
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	at = s.Run()
	if fired != 10 || at != 10*time.Second {
		t.Fatalf("resumed to %d events at %v", fired, at)
	}
}

// TestSimHaltFromAnotherGoroutine stops an endless event loop from outside
// it, the way a cancelled context does: Run returns with the loop's next
// event still queued.
func TestSimHaltFromAnotherGoroutine(t *testing.T) {
	s := NewSim()
	started := make(chan struct{})
	var tick func()
	tick = func() {
		if s.Fired() == 1 {
			close(started)
		}
		s.After(time.Second, tick)
	}
	s.At(0, tick)
	go func() {
		<-started
		s.Halt()
	}()
	s.Run()
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after halt, want the loop's next tick", s.Pending())
	}
}

// TestSimHaltBeforeRun: a Halt made while no loop runs is not lost — the
// next RunUntil stops before its first event, and the one after resumes.
func TestSimHaltBeforeRun(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(time.Second, func() { fired++ })
	s.Halt()
	if at := s.RunUntil(10 * time.Second); fired != 0 || at != 0 {
		t.Fatalf("halted RunUntil fired %d events and returned %v, want 0 and 0s", fired, at)
	}
	if at := s.RunUntil(10 * time.Second); fired != 1 || at != 10*time.Second {
		t.Fatalf("resumed RunUntil fired %d events and returned %v, want 1 and 10s", fired, at)
	}
}

// TestSimScheduleAndCancelInsideCallback exercises the reschedule shape the
// cluster simulator relies on: a callback cancelling a pending event and
// scheduling its replacement, repeatedly.
func TestSimScheduleAndCancelInsideCallback(t *testing.T) {
	s := NewSim()
	var pending Event
	fired := 0
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if s.Cancel(pending) {
			t.Fatal("superseded event was still pending at fire time")
		}
		if hops < 5 {
			// Schedule a decoy far out, then supersede it with the real
			// next hop: the decoy must vanish from the queue.
			pending = s.After(time.Hour, func() { t.Fatal("superseded decoy fired") })
			if !s.Cancel(pending) {
				t.Fatal("cancel of fresh decoy failed")
			}
			pending = s.After(time.Second, hop)
		} else {
			fired++
		}
	}
	pending = s.After(time.Second, hop)
	end := s.Run()
	if hops != 5 || fired != 1 {
		t.Fatalf("hops = %d fired = %d", hops, fired)
	}
	if end != 5*time.Second {
		t.Fatalf("quiesced at %v, want 5s", end)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after quiesce, want 0", s.Pending())
	}
}

func TestManualAdvanceFiresInOrder(t *testing.T) {
	m := NewManual(time.Unix(100, 0))
	var order []int
	m.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	m.AfterFunc(time.Second, func() { order = append(order, 1) })
	m.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	m.Advance(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := m.Now(); !got.Equal(time.Unix(110, 0)) {
		t.Fatalf("now = %v, want 110s", got)
	}
}

func TestManualStop(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tm := m.AfterFunc(time.Second, func() { t.Fatal("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop returned false")
	}
	m.Advance(5 * time.Second)
	if m.PendingTimers() != 0 {
		t.Fatalf("pending = %d, want 0", m.PendingTimers())
	}
}

func TestManualNestedTimers(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var times []time.Time
	m.AfterFunc(time.Second, func() {
		times = append(times, m.Now())
		m.AfterFunc(time.Second, func() { times = append(times, m.Now()) })
	})
	m.Advance(5 * time.Second)
	if len(times) != 2 {
		t.Fatalf("fired %d timers, want 2", len(times))
	}
	if !times[0].Equal(time.Unix(1, 0)) || !times[1].Equal(time.Unix(2, 0)) {
		t.Fatalf("times = %v", times)
	}
}

func TestManualPartialAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	fired := false
	m.AfterFunc(10*time.Second, func() { fired = true })
	m.Advance(5 * time.Second)
	if fired {
		t.Fatal("timer fired early")
	}
	m.Advance(5 * time.Second)
	if !fired {
		t.Fatal("timer did not fire at deadline")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc never fired")
	}
	if !c.Now().After(t0) {
		t.Fatal("Now did not advance past the fired timer")
	}
}

func TestSimRunUntilDrainedAdvancesClock(t *testing.T) {
	s := NewSim()
	s.At(time.Second, func() {})
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Fatalf("now = %v, want 10s after drain", s.Now())
	}
}

func TestSimPropertyEventsFireInTimestampOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSim()
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAuditHook pins the kernel audit-hook contract: called once per fired
// event, after the clock advances to the event's instant, before the
// callback runs, with non-decreasing timestamps.
func TestAuditHook(t *testing.T) {
	s := NewSim()
	var hooked []time.Duration
	ran := 0
	s.SetAuditHook(func(at time.Duration) {
		if s.Now() != at {
			t.Errorf("hook at %v but Now() = %v", at, s.Now())
		}
		if len(hooked) > 0 && at < hooked[len(hooked)-1] {
			t.Errorf("hook times decreased: %v after %v", at, hooked[len(hooked)-1])
		}
		if len(hooked) != ran {
			t.Errorf("hook fired after callback: %d hooks, %d callbacks", len(hooked), ran)
		}
		hooked = append(hooked, at)
	})
	s.At(20*time.Millisecond, func() { ran++ })
	s.At(10*time.Millisecond, func() {
		ran++
		s.After(5*time.Millisecond, func() { ran++ })
	})
	s.Run()
	if len(hooked) != 3 || int(s.Fired()) != 3 {
		t.Fatalf("hook saw %d events, Fired() = %d, want 3", len(hooked), s.Fired())
	}
	// Removing the hook stops observation.
	s.SetAuditHook(nil)
	s.At(s.Now()+time.Millisecond, func() { ran++ })
	s.Run()
	if len(hooked) != 3 {
		t.Fatalf("nil hook still observed events: %d", len(hooked))
	}
}

// TestAuditHookStep covers the Step fire path.
func TestAuditHookStep(t *testing.T) {
	s := NewSim()
	n := 0
	s.SetAuditHook(func(time.Duration) { n++ })
	s.At(time.Millisecond, func() {})
	if !s.Step() || n != 1 {
		t.Fatalf("Step: hook count %d, want 1", n)
	}
}
