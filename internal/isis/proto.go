package isis

import (
	"time"

	"vce/internal/transport"
)

// onMessage is the single inbound dispatch point; the transport invokes it
// sequentially, which is what keeps the delivery buffers simple. A member is
// its transport address, so every sender is the envelope's From.
func (p *Process) onMessage(msg transport.Message) {
	switch msg.Kind {
	case kindJoinReq, kindJoinFwd:
		var req joinReq
		if decode(msg.Payload, &req) == nil {
			p.handleJoin(req)
		}
	case kindView:
		var v View
		if decode(msg.Payload, &v) == nil {
			p.handleView(v)
		}
	case kindHeartbeat:
		var hb hbMsg
		if decode(msg.Payload, &hb) == nil {
			p.handleHeartbeat(msg.From, hb)
		}
	case kindCast:
		var cm castMsg
		if decode(msg.Payload, &cm) == nil {
			p.handleCast(msg.From, &cm)
		}
	case kindReply:
		var rm replyMsg
		if decode(msg.Payload, &rm) == nil {
			p.handleReply(msg.From, rm)
		}
	case kindLeave:
		p.removeMembers([]transport.Addr{msg.From})
	default:
		p.mu.Lock()
		h := p.pointHandlers[msg.Kind]
		p.mu.Unlock()
		if h != nil {
			h(msg.From, msg.Payload)
		}
	}
}

// ---- membership ----

func (p *Process) handleJoin(req joinReq) {
	p.mu.Lock()
	if p.stopped || !p.haveView {
		p.mu.Unlock()
		return
	}
	if !p.isLeaderLocked() {
		leader := p.view.Leader()
		p.mu.Unlock()
		if payload, err := encode(req); err == nil {
			_ = p.ep.Send(leader.Addr, kindJoinFwd, payload)
		}
		return
	}
	if p.view.Contains(req.Addr) {
		// Duplicate join (retransmission): re-announce the current view
		// so the joiner unblocks.
		v := p.view.clone()
		p.mu.Unlock()
		p.broadcastView(v)
		return
	}
	m := Member{Name: req.Name, Addr: req.Addr, Rank: p.nextRank}
	p.nextRank++
	v := p.view.clone()
	v.Number++
	v.Members = append(v.Members, m)
	p.lastHB[m.Addr] = p.cfg.Clock.Now()
	p.mu.Unlock()
	p.broadcastView(v)
}

func (p *Process) handleView(v View) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	if !v.Contains(p.ep.Addr()) {
		// A view that excludes us is either history or an ejection;
		// in both cases it is not ours to install.
		p.mu.Unlock()
		return
	}
	accept := false
	switch {
	case !p.haveView:
		accept = true
	case v.Number > p.view.Number:
		accept = true
	case v.Number == p.view.Number && len(v.Members) > 0 && len(p.view.Members) > 0 &&
		v.Members[0].Rank < p.view.Members[0].Rank:
		// Competing views with equal numbers: the older issuer wins.
		accept = true
	}
	if accept {
		p.installViewLocked(v)
	}
	p.mu.Unlock()
}

// removeMembers ejects members (leader only) and publishes the new view.
func (p *Process) removeMembers(addrs []transport.Addr) {
	p.mu.Lock()
	if p.stopped || !p.isLeaderLocked() {
		p.mu.Unlock()
		return
	}
	gone := make(map[transport.Addr]bool, len(addrs))
	for _, a := range addrs {
		if a != p.ep.Addr() && p.view.Contains(a) {
			gone[a] = true
		}
	}
	if len(gone) == 0 {
		p.mu.Unlock()
		return
	}
	v := View{Number: p.view.Number + 1}
	for _, m := range p.view.Members {
		if !gone[m.Addr] {
			v.Members = append(v.Members, m)
		}
	}
	for a := range gone {
		delete(p.lastHB, a)
	}
	p.mu.Unlock()
	p.broadcastView(v)
}

// ---- failure detection ----

func (p *Process) scheduleTick() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.tick = p.cfg.Clock.AfterFunc(p.cfg.HeartbeatEvery, p.onTick)
	p.mu.Unlock()
}

func (p *Process) onTick() {
	p.mu.Lock()
	if p.stopped || !p.haveView {
		p.mu.Unlock()
		p.scheduleTick()
		return
	}
	now := p.cfg.Clock.Now()
	isLeader := p.isLeaderLocked()
	view := p.view.clone()
	var expired []transport.Addr
	takeover := false
	if isLeader {
		for _, m := range view.Members {
			if m.Addr == p.ep.Addr() {
				continue
			}
			last, ok := p.lastHB[m.Addr]
			if !ok {
				p.lastHB[m.Addr] = now
				continue
			}
			if now.Sub(last) > p.cfg.FailAfter {
				expired = append(expired, m.Addr)
			}
		}
	} else {
		// Position among non-leader members staggers takeover so the
		// oldest surviving member claims leadership first.
		pos := 0
		for i, m := range view.Members {
			if m.Addr == p.ep.Addr() {
				pos = i
				break
			}
		}
		delay := p.cfg.FailAfter + time.Duration(pos-1)*p.cfg.FailAfter/2
		if now.Sub(p.leaderSeen) > delay {
			takeover = true
		}
	}
	p.mu.Unlock()

	// Heartbeats.
	if hb, err := encode(hbMsg{ViewNumber: view.Number, FromLeader: isLeader}); err == nil {
		if isLeader {
			for _, m := range view.Members {
				if m.Addr != p.ep.Addr() {
					_ = p.ep.Send(m.Addr, kindHeartbeat, hb)
				}
			}
		} else {
			_ = p.ep.Send(view.Leader().Addr, kindHeartbeat, hb)
		}
	}

	if len(expired) > 0 {
		p.removeMembers(expired)
	}
	if takeover {
		p.takeOver()
	}
	p.scheduleTick()
}

// takeOver is the §5 succession rule: "the oldest surviving member of the
// group ... assume[s] the role of group leader in case the group leader
// fails." The caller believes the leader is dead; it publishes a view without
// the leader, with itself necessarily the oldest remaining member it knows.
func (p *Process) takeOver() {
	p.mu.Lock()
	if p.stopped || !p.haveView || p.isLeaderLocked() {
		p.mu.Unlock()
		return
	}
	old := p.view.Leader()
	v := View{Number: p.view.Number + 1}
	for _, m := range p.view.Members {
		if m.Addr != old.Addr {
			v.Members = append(v.Members, m)
		}
	}
	if len(v.Members) == 0 || v.Members[0].Addr != p.ep.Addr() {
		// A yet-older member survives; its (shorter) stagger will fire.
		// Reset our patience so we re-evaluate a full period later.
		p.mu.Unlock()
		return
	}
	now := p.cfg.Clock.Now()
	for _, m := range v.Members {
		p.lastHB[m.Addr] = now
	}
	p.leaderSeen = now
	p.mu.Unlock()
	p.broadcastView(v)
}

func (p *Process) handleHeartbeat(from transport.Addr, hb hbMsg) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped || !p.haveView {
		return
	}
	now := p.cfg.Clock.Now()
	if hb.FromLeader && p.view.Contains(from) && p.view.Leader().Addr == from {
		p.leaderSeen = now
	}
	if p.isLeaderLocked() {
		p.lastHB[from] = now
	}
}
