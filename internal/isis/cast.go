package isis

import (
	"fmt"

	"vce/internal/transport"
)

// Cast broadcasts payload to every member of the current view (including the
// caster) in per-sender FIFO order, then collects replies.
//
// nreplies semantics follow Isis bcast/reply: AllReplies waits for one reply
// per member in the view at cast time; 0 returns immediately after sending; k
// waits for the first k replies. Members whose handler returns ok=false never
// reply, so undersubscribed casts end at the reply timeout with ErrTimeout
// and whatever replies arrived — the exact partial-failure surface the VCE
// group leader is built on.
func (p *Process) Cast(kind string, payload []byte, nreplies int) ([]Reply, error) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	if !p.haveView {
		p.mu.Unlock()
		return nil, fmt.Errorf("isis: cast before first view")
	}
	view := p.view.clone()
	want := nreplies
	if want == AllReplies {
		want = view.Size()
	}
	p.castSeq++
	id := p.castSeq
	msg := castMsg{
		ID:        id,
		Kind:      kind,
		Sender:    p.id,
		ReplyTo:   p.ep.Addr(),
		WantReply: want > 0,
		Payload:   payload,
	}
	var pc *pendingCast
	if want > 0 {
		pc = &pendingCast{want: want, done: make(chan struct{})}
		p.pending[id] = pc
	}
	timeout := p.cfg.ReplyTimeout
	p.mu.Unlock()

	wire, err := encode(msg)
	if err != nil {
		return nil, err
	}
	for _, m := range view.Members {
		_ = p.ep.Send(m.Addr, kindCast, wire)
	}

	if pc == nil {
		return nil, nil
	}
	timedOut := make(chan struct{})
	timer := p.cfg.Clock.AfterFunc(timeout, func() { close(timedOut) })
	defer timer.Stop()
	select {
	case <-pc.done:
	case <-timedOut:
	}
	p.mu.Lock()
	delete(p.pending, id)
	replies := append([]Reply(nil), pc.replies...)
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return replies, ErrStopped
	}
	if len(replies) < want {
		return replies, ErrTimeout
	}
	return replies, nil
}

// Send delivers an application point-to-point message to one member.
func (p *Process) Send(to MemberID, kind string, payload []byte) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped
	}
	var addr string
	for _, m := range p.view.Members {
		if m.ID == to {
			addr = string(m.Addr)
			break
		}
	}
	p.mu.Unlock()
	if addr == "" {
		// Allow addressing by raw transport address for processes
		// outside the group (the execution program is not a member).
		addr = string(to)
	}
	wire, err := encode(pointMsg{Kind: kind, From: p.id, Payload: payload})
	if err != nil {
		return err
	}
	return p.ep.Send(transport.Addr(addr), kindPoint, wire)
}

// handleCast delivers an inbound cast in per-sender FIFO order.
func (p *Process) handleCast(cm *castMsg) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	ready := p.admitFIFOLocked(cm)
	p.mu.Unlock()
	p.deliverAll(ready)
}

// admitFIFOLocked enforces per-sender sequence delivery. An unknown sender's
// first message sets the baseline (late joiners must not wait for history).
func (p *Process) admitFIFOLocked(cm *castMsg) []*castMsg {
	next, known := p.fifoNext[cm.Sender]
	if !known {
		p.fifoNext[cm.Sender] = cm.ID + 1
		return []*castMsg{cm}
	}
	if cm.ID < next {
		return nil // duplicate
	}
	if cm.ID > next {
		p.fifoBuf[cm.Sender] = append(p.fifoBuf[cm.Sender], cm)
		return nil
	}
	ready := []*castMsg{cm}
	p.fifoNext[cm.Sender] = cm.ID + 1
	// Pull any buffered successors forward.
	progress := true
	for progress {
		progress = false
		buf := p.fifoBuf[cm.Sender]
		for i, b := range buf {
			if b != nil && b.ID == p.fifoNext[cm.Sender] {
				ready = append(ready, b)
				p.fifoNext[cm.Sender] = b.ID + 1
				buf[i] = nil
				progress = true
			}
		}
	}
	compact := p.fifoBuf[cm.Sender][:0]
	for _, b := range p.fifoBuf[cm.Sender] {
		if b != nil {
			compact = append(compact, b)
		}
	}
	p.fifoBuf[cm.Sender] = compact
	return ready
}

// deliverAll invokes handlers (outside the lock) and sends replies.
func (p *Process) deliverAll(msgs []*castMsg) {
	for _, cm := range msgs {
		p.mu.Lock()
		h := p.castHandlers[cm.Kind]
		p.mu.Unlock()
		if h == nil {
			continue
		}
		reply, ok := h(cm.Sender, cm.Payload)
		if ok && cm.WantReply {
			if wire, err := encode(replyMsg{CastID: cm.ID, From: p.id, Payload: reply}); err == nil {
				_ = p.ep.Send(cm.ReplyTo, kindReply, wire)
			}
		}
	}
}

func (p *Process) handleReply(rm replyMsg) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc, ok := p.pending[rm.CastID]
	if !ok || pc.closed {
		return
	}
	pc.replies = append(pc.replies, Reply{From: rm.From, Payload: rm.Payload})
	if len(pc.replies) >= pc.want {
		pc.closed = true
		close(pc.done)
	}
}
