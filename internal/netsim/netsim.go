// Package netsim models the interconnect of a VCE network: per-link latency
// and bandwidth, with partition injection for fault-tolerance experiments.
// The cluster simulator uses it to time message deliveries, file staging and
// migration image copies; the in-memory transport uses it to decide
// deliverability.
//
// Partitions are symmetric: they are keyed by unordered host pairs. A transfer
// between a host and itself is free: the paper's channels connect co-located
// tasks through local memory.
package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Link describes one host pair's connectivity.
//
// A non-positive Bandwidth means latency-only: TransferTime charges Latency
// regardless of payload size. That is a deliberate convention for internal
// callers modeling control traffic (and the zero value's behavior), not an
// error — callers exposing links to user configuration should validate for
// positive bandwidth themselves, as the scenario spec layer does.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is payload throughput in bytes per second.
	Bandwidth float64
}

type pair struct{ a, b string }

func orderedPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Model is a thread-safe network model.
type Model struct {
	mu          sync.RWMutex
	def         Link
	resolve     func(a, b string) (Link, bool)
	partitioned map[pair]bool
}

// LAN1994 returns a model shaped like the prototype's environment: a 10 Mb/s
// Ethernet LAN with ~1 ms software latency. Absolute values only set the
// scale of results; every experiment reports ratios.
func LAN1994() *Model {
	return New(Link{Latency: time.Millisecond, Bandwidth: 1.25e6})
}

// New returns a model whose unspecified links all behave like def.
func New(def Link) *Model {
	return &Model{
		def:         def,
		partitioned: make(map[pair]bool),
	}
}

// SetResolver installs a computed link source consulted before the default
// link. It lets a caller model a structured interconnect (e.g. the scenario
// engine's per-site topology) in O(1) memory instead of materializing a link
// per host pair; fn must be pure and safe for concurrent use. A
// (Link, false) return falls through to the default link; a nil fn removes
// the resolver.
func (m *Model) SetResolver(fn func(a, b string) (Link, bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resolve = fn
}

// LinkBetween returns the effective link between a and b: the resolver's
// (see SetResolver), else the default.
func (m *Model) LinkBetween(a, b string) Link {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.resolve != nil {
		if l, ok := m.resolve(a, b); ok {
			return l
		}
	}
	return m.def
}

// Partition severs connectivity between a and b.
func (m *Model) Partition(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partitioned[orderedPair(a, b)] = true
}

// Heal restores connectivity between a and b.
func (m *Model) Heal(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.partitioned, orderedPair(a, b))
}

// Reachable reports whether a and b can exchange messages.
func (m *Model) Reachable(a, b string) bool {
	if a == b {
		return true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return !m.partitioned[orderedPair(a, b)]
}

// TransferTime returns how long moving size bytes from a to b takes:
// latency + size/bandwidth. It fails across partitions. Local transfers are
// instantaneous.
func (m *Model) TransferTime(a, b string, size int64) (time.Duration, error) {
	if a == b {
		return 0, nil
	}
	if !m.Reachable(a, b) {
		return 0, fmt.Errorf("netsim: %s and %s are partitioned", a, b)
	}
	l := m.LinkBetween(a, b)
	d := l.Latency
	if size > 0 && l.Bandwidth > 0 {
		d += time.Duration(float64(size) / l.Bandwidth * float64(time.Second))
	}
	return d, nil
}
