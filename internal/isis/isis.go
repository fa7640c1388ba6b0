// Package isis reimplements the slice of the Isis Distributed Toolkit that
// the VCE prototype is built on (§5): process groups with membership views,
// heartbeat failure detection, error notification, FIFO bcast/reply
// collection, and the rule that "the oldest surviving member of the group
// assume[s] the role of group leader in case the group leader fails."
//
// Casts are delivered in per-sender FIFO order, the only ordering the VCE
// daemons use: the leader's bid request and the execution program's kill
// relay. Isis's causal (cbcast) and total (abcast) orderings are not
// implemented.
//
// The implementation is an engineering approximation of Isis's virtual
// synchrony, not a formally verified GMS: views are issued by the current
// leader (the oldest member), propagated with monotonically increasing view
// numbers, and ties are resolved in favour of the lower-ranked issuer. That
// is the behaviour the 1994 prototype depended on, and it is sufficient for
// every experiment in this repository. It is not partition-tolerant
// consensus — neither was Isis.
package isis

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"vce/internal/transport"
	"vce/internal/vtime"
)

// Member is one entry in a membership view.
type Member struct {
	// Name is the human-readable name supplied at Join (machine name).
	Name string
	// Addr is the member's transport address, unique per process
	// lifetime: it is the member's identity.
	Addr transport.Addr
	// Rank is the join order; the lowest-ranked member is the oldest and
	// acts as group leader.
	Rank int
}

// View is one membership epoch.
type View struct {
	// Number increases with every membership change.
	Number int
	// Members is sorted by ascending Rank (oldest first).
	Members []Member
}

// Leader returns the oldest member, the group leader. Calling Leader on an
// empty view panics: an installed view always has at least one member.
func (v View) Leader() Member { return v.Members[0] }

// Contains reports whether the member at addr is in the view.
func (v View) Contains(addr transport.Addr) bool {
	for _, m := range v.Members {
		if m.Addr == addr {
			return true
		}
	}
	return false
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

func (v View) clone() View {
	out := View{Number: v.Number, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// Reply is one member's answer to a cast.
type Reply struct {
	// From is the replying member.
	From transport.Addr
	// Payload is the reply body.
	Payload []byte
}

// CastHandler consumes a delivered cast and optionally produces a reply.
// Returning ok=false suppresses the reply (the member "declines to bid").
type CastHandler func(from transport.Addr, payload []byte) (reply []byte, ok bool)

// PointHandler consumes an application point-to-point message.
type PointHandler func(from transport.Addr, payload []byte)

// ViewHandler observes view installations.
type ViewHandler func(View)

// AllReplies requests replies from every member in the view at cast time.
const AllReplies = -1

// ErrTimeout is returned by Cast when fewer than the requested replies
// arrived before the deadline. The collected replies are still returned —
// the VCE group leader uses exactly this partial-result path (§5: "If the
// group leader receives fewer responses than needed a failure indication is
// sent").
var ErrTimeout = errors.New("isis: cast reply timeout")

// ErrStopped is returned when using a stopped process.
var ErrStopped = errors.New("isis: process stopped")

// Config tunes a Process.
type Config struct {
	// Name is the human-readable member name (machine name).
	Name string
	// Clock provides time; defaults to the real clock.
	Clock vtime.Clock
	// HeartbeatEvery is the liveness beacon period (default 250ms).
	HeartbeatEvery time.Duration
	// FailAfter is the silence threshold declaring a member dead
	// (default 4 heartbeat periods).
	FailAfter time.Duration
	// ReplyTimeout bounds Cast reply collection (default 5s).
	ReplyTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = vtime.NewReal()
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 4 * c.HeartbeatEvery
	}
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = 5 * time.Second
	}
	return c
}

// Process is one group member: the substrate under every VCE
// scheduling/dispatching daemon.
type Process struct {
	cfg Config
	ep  transport.Endpoint

	mu       sync.Mutex
	view     View
	haveView bool
	stopped  bool
	nextRank int    // leader-only: rank to assign to the next joiner
	castSeq  uint64 // this member's casts, numbered from 1

	// Failure detection state.
	lastHB     map[transport.Addr]time.Time // leader: member -> last beacon
	leaderSeen time.Time                    // member: last leader beacon
	tick       vtime.Timer

	// FIFO delivery state, by sender.
	fifoNext map[transport.Addr]uint64
	fifoBuf  map[transport.Addr][]*castMsg

	// Pending reply collections, by cast ID.
	pending map[uint64]*pendingCast

	// Handlers.
	castHandlers  map[string]CastHandler
	pointHandlers map[string]PointHandler
	viewHandlers  []ViewHandler

	joinedCh chan struct{} // closed when the first view installs
}

type pendingCast struct {
	want    int
	replies []Reply
	done    chan struct{}
	closed  bool
}

// Found creates a new group with this process as its first member (and hence
// leader).
func Found(net transport.Network, group string, cfg Config) (*Process, error) {
	p, err := newProcess(net, group, cfg)
	if err != nil {
		return nil, err
	}
	v := View{Number: 1, Members: []Member{{Name: p.cfg.Name, Addr: p.ep.Addr(), Rank: 0}}}
	p.mu.Lock()
	p.nextRank = 1
	p.installViewLocked(v)
	p.mu.Unlock()
	p.scheduleTick()
	return p, nil
}

// Join adds this process to an existing group via any current member
// (contact). It blocks until the first view installs or the reply timeout
// elapses.
func Join(net transport.Network, group string, contact transport.Addr, cfg Config) (*Process, error) {
	p, err := newProcess(net, group, cfg)
	if err != nil {
		return nil, err
	}
	req, err := encode(joinReq{Name: p.cfg.Name, Addr: p.ep.Addr()})
	if err != nil {
		p.ep.Close()
		return nil, err
	}
	if err := p.ep.Send(contact, kindJoinReq, req); err != nil {
		p.ep.Close()
		return nil, fmt.Errorf("isis: join via %s: %w", contact, err)
	}
	timeout := make(chan struct{})
	timer := p.cfg.Clock.AfterFunc(p.cfg.ReplyTimeout, func() { close(timeout) })
	defer timer.Stop()
	select {
	case <-p.joinedCh:
	case <-timeout:
		p.ep.Close()
		return nil, fmt.Errorf("isis: join via %s timed out", contact)
	}
	p.scheduleTick()
	return p, nil
}

func newProcess(net transport.Network, group string, cfg Config) (*Process, error) {
	if group == "" {
		return nil, fmt.Errorf("isis: empty group name")
	}
	cfg = cfg.withDefaults()
	ep, err := net.Endpoint(cfg.Name)
	if err != nil {
		return nil, err
	}
	p := &Process{
		cfg:           cfg,
		ep:            ep,
		lastHB:        make(map[transport.Addr]time.Time),
		fifoNext:      make(map[transport.Addr]uint64),
		fifoBuf:       make(map[transport.Addr][]*castMsg),
		pending:       make(map[uint64]*pendingCast),
		castHandlers:  make(map[string]CastHandler),
		pointHandlers: make(map[string]PointHandler),
		joinedCh:      make(chan struct{}),
	}
	ep.Handle(p.onMessage)
	return p, nil
}

// Addr returns this process's transport address, its member identity.
func (p *Process) Addr() transport.Addr { return p.ep.Addr() }

// View returns the current membership view.
func (p *Process) View() View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.view.clone()
}

// IsLeader reports whether this process is the current group leader.
func (p *Process) IsLeader() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.isLeaderLocked()
}

func (p *Process) isLeaderLocked() bool {
	return p.haveView && len(p.view.Members) > 0 && p.view.Members[0].Addr == p.ep.Addr()
}

// HandleCast registers the handler for casts of the given application kind.
func (p *Process) HandleCast(kind string, h CastHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.castHandlers[kind] = h
}

// HandlePoint registers the handler for point-to-point messages of a kind.
// The kind is the transport kind the sender used, so it must not be one of
// the "isis." protocol kinds.
func (p *Process) HandlePoint(kind string, h PointHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pointHandlers[kind] = h
}

// OnViewChange registers a view observer; it is also called immediately with
// the current view if one is installed.
func (p *Process) OnViewChange(h ViewHandler) {
	p.mu.Lock()
	p.viewHandlers = append(p.viewHandlers, h)
	have := p.haveView
	v := p.view.clone()
	p.mu.Unlock()
	if have {
		h(v)
	}
}

// Leave departs gracefully: the leader learns immediately instead of waiting
// for the failure detector.
func (p *Process) Leave() {
	p.mu.Lock()
	if p.stopped || !p.haveView || len(p.view.Members) == 0 {
		p.mu.Unlock()
		p.Stop()
		return
	}
	leader := p.view.Leader()
	amLeader := p.isLeaderLocked()
	hasSuccessor := len(p.view.Members) > 1
	p.mu.Unlock()
	if amLeader {
		if hasSuccessor {
			// Hand the group to the next-oldest member by issuing a
			// final view that excludes us.
			p.issueViewWithout(p.ep.Addr())
		}
	} else {
		_ = p.ep.Send(leader.Addr, kindLeave, nil)
	}
	p.Stop()
}

// Stop crashes the process: the endpoint closes and no notice is given. The
// failure detector elsewhere must discover the death, exactly like a machine
// failure in the prototype.
func (p *Process) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	if p.tick != nil {
		p.tick.Stop()
	}
	for _, pc := range p.pending {
		if !pc.closed {
			pc.closed = true
			close(pc.done)
		}
	}
	p.mu.Unlock()
	p.ep.Close()
}

// issueViewWithout is called by the current leader to publish a new view
// that excludes the given member (used for graceful leader departure).
func (p *Process) issueViewWithout(addr transport.Addr) {
	p.mu.Lock()
	if !p.isLeaderLocked() {
		p.mu.Unlock()
		return
	}
	v := View{Number: p.view.Number + 1}
	for _, m := range p.view.Members {
		if m.Addr != addr {
			v.Members = append(v.Members, m)
		}
	}
	p.mu.Unlock()
	if len(v.Members) > 0 {
		p.broadcastView(v)
	}
}

// ---- view management ----

// installViewLocked replaces the view; callers hold p.mu. View handlers run
// after the lock drops (via the returned closure pattern below).
func (p *Process) installViewLocked(v View) {
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Rank < v.Members[j].Rank })
	p.view = v
	first := !p.haveView
	p.haveView = true
	now := p.cfg.Clock.Now()
	p.leaderSeen = now
	// Reset leader-side heartbeat table to the new membership.
	fresh := make(map[transport.Addr]time.Time, len(v.Members))
	for _, m := range v.Members {
		if t, ok := p.lastHB[m.Addr]; ok {
			fresh[m.Addr] = t
		} else {
			fresh[m.Addr] = now
		}
	}
	p.lastHB = fresh
	if p.isLeaderLocked() && p.nextRank <= v.Members[len(v.Members)-1].Rank {
		p.nextRank = v.Members[len(v.Members)-1].Rank + 1
	}
	if first {
		close(p.joinedCh)
	}
	if len(p.viewHandlers) == 0 {
		return
	}
	handlers := append([]ViewHandler(nil), p.viewHandlers...)
	snapshot := v.clone()
	// Run observers without the lock: they may call back into the process.
	go func() {
		for _, h := range handlers {
			h(snapshot)
		}
	}()
}

// broadcastView sends a view to every member in it (including self).
func (p *Process) broadcastView(v View) {
	payload, err := encode(v)
	if err != nil {
		return
	}
	for _, m := range v.Members {
		_ = p.ep.Send(m.Addr, kindView, payload)
	}
}
