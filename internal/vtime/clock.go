// Package vtime provides the VCE's two time substrates.
//
// Clock is the live protocol stack's time source: internal/isis runs its
// heartbeats, failure detection and reply windows against it. Real is the
// wall clock; Manual moves only when a test advances it, so failure
// detection can be tested deterministically.
//
// Sim is the discrete-event kernel that internal/sim and the scenario
// engine schedule on directly, in virtual time. The two substrates do not
// share code: no policy logic runs under both.
package vtime

import (
	"sync"
	"time"
)

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool
}

// Clock abstracts the passage of time.
type Clock interface {
	// Now returns the current instant according to this clock.
	Now() time.Time
	// AfterFunc schedules f to run after d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is the wall-clock Clock used in live mode.
type Real struct{}

// NewReal returns the wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// Manual is a Clock whose time only moves when Advance is called. It is used
// by protocol tests (failure detectors, aging schedulers) that must be
// deterministic and fast regardless of real timer granularity.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	seq    int64
	timers []*manualTimer
}

// NewManual returns a Manual clock positioned at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

type manualTimer struct {
	clock   *Manual
	at      time.Time
	seq     int64
	f       func()
	stopped bool
	fired   bool
}

func (t *manualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc implements Clock. Callbacks run synchronously inside Advance, in
// deadline order with ties broken by registration order.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{clock: m, at: m.now.Add(d), seq: m.seq, f: f}
	m.seq++
	m.timers = append(m.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every due timer in order.
// Callbacks may register further timers; those fire too if they fall inside
// the advanced window.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now.Add(d)
	for {
		var next *manualTimer
		for _, t := range m.timers {
			if t.stopped || t.fired || t.at.After(target) {
				continue
			}
			if next == nil || t.at.Before(next.at) || (t.at.Equal(next.at) && t.seq < next.seq) {
				next = t
			}
		}
		if next == nil {
			break
		}
		if next.at.After(m.now) {
			m.now = next.at
		}
		next.fired = true
		f := next.f
		m.mu.Unlock()
		f()
		m.mu.Lock()
	}
	m.now = target
	// Drop consumed timers so the slice does not grow without bound.
	live := m.timers[:0]
	for _, t := range m.timers {
		if !t.fired && !t.stopped {
			live = append(live, t)
		}
	}
	m.timers = live
	m.mu.Unlock()
}

// PendingTimers reports how many timers are registered and still live.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.timers {
		if !t.fired && !t.stopped {
			n++
		}
	}
	return n
}
