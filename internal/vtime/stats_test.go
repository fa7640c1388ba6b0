package vtime

import (
	"testing"
	"time"
)

// TestStatsCounters pins the Stats counter semantics: every At/After is a
// Scheduled, only a successful Cancel is a Cancelled, Fired matches
// Fired() and counts audited events once, HeapMax is the schedule-time high
// water, and Reset zeroes them all.
func TestStatsCounters(t *testing.T) {
	s := NewSim()

	var ran int
	fn := func() { ran++ }
	evs := make([]Event, 0, 10)
	for i := 0; i < 10; i++ {
		evs = append(evs, s.At(time.Duration(i)*time.Second, fn))
	}
	if st := s.Stats(); st.Scheduled != 10 || st.HeapMax != 10 {
		t.Fatalf("Scheduled/HeapMax = %d/%d, want 10/10", st.Scheduled, st.HeapMax)
	}
	// Cancel three; a repeat cancel of the same handle must not count.
	for _, e := range evs[:3] {
		if !s.Cancel(e) {
			t.Fatal("cancel failed")
		}
	}
	if s.Cancel(evs[0]) {
		t.Fatal("double cancel succeeded")
	}
	if st := s.Stats(); st.Cancelled != 3 {
		t.Fatalf("Cancelled = %d, want 3", st.Cancelled)
	}

	audits := 0
	s.SetAuditHook(func(time.Duration) { audits++ })
	s.Run()
	if ran != 7 || audits != 7 {
		t.Fatalf("ran %d callbacks, audited %d, want 7 and 7", ran, audits)
	}
	if st := s.Stats(); st.Fired != s.Fired() || st.Fired != 7 {
		t.Fatalf("Fired = %d (kernel says %d), want 7", st.Fired, s.Fired())
	}
	s.Reset()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("Reset kept counters: %+v", st)
	}
}

// TestStatsZeroAlloc asserts the observability acceptance contract: the
// steady-state kernel hot path (fire + reschedule against a backlog), which
// always counts its traffic, allocates nothing per event.
func TestStatsZeroAlloc(t *testing.T) {
	s := NewSim()
	fn := func() { sink++ }
	for j := 0; j < 1024; j++ {
		s.At(time.Duration(j)*time.Millisecond, fn)
	}
	got := testing.AllocsPerRun(10000, func() {
		s.After(1500*time.Millisecond, fn)
		s.Step()
	})
	if got != 0 {
		t.Errorf("%v allocs per steady-state event, want 0", got)
	}
	if st := s.Stats(); st.Fired == 0 || st.Scheduled == 0 {
		t.Fatalf("stats not collected during alloc run: %+v", st)
	}
}
