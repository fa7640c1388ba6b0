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
	msg := castMsg{ID: id, Kind: kind, WantReply: want > 0, Payload: payload}
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

// Send delivers an application point-to-point message to any address, a
// fellow member or a process outside the group, under the application's
// own kind. After Stop it fails with transport.ErrClosed.
func (p *Process) Send(to transport.Addr, kind string, payload []byte) error {
	return p.ep.Send(to, kind, payload)
}

// handleCast delivers an inbound cast in per-sender FIFO order.
func (p *Process) handleCast(from transport.Addr, cm *castMsg) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	ready := p.admitFIFOLocked(from, cm)
	p.mu.Unlock()
	p.deliverAll(from, ready)
}

// admitFIFOLocked enforces per-sender sequence delivery. An unknown sender's
// first message sets the baseline (late joiners must not wait for history).
func (p *Process) admitFIFOLocked(from transport.Addr, cm *castMsg) []*castMsg {
	next, known := p.fifoNext[from]
	if !known {
		p.fifoNext[from] = cm.ID + 1
		return []*castMsg{cm}
	}
	if cm.ID < next {
		return nil // duplicate
	}
	if cm.ID > next {
		p.fifoBuf[from] = append(p.fifoBuf[from], cm)
		return nil
	}
	ready := []*castMsg{cm}
	p.fifoNext[from] = cm.ID + 1
	// Pull any buffered successors forward.
	progress := true
	for progress {
		progress = false
		buf := p.fifoBuf[from]
		for i, b := range buf {
			if b != nil && b.ID == p.fifoNext[from] {
				ready = append(ready, b)
				p.fifoNext[from] = b.ID + 1
				buf[i] = nil
				progress = true
			}
		}
	}
	compact := p.fifoBuf[from][:0]
	for _, b := range p.fifoBuf[from] {
		if b != nil {
			compact = append(compact, b)
		}
	}
	p.fifoBuf[from] = compact
	return ready
}

// deliverAll invokes handlers (outside the lock) and replies to the caster.
func (p *Process) deliverAll(from transport.Addr, msgs []*castMsg) {
	for _, cm := range msgs {
		p.mu.Lock()
		h := p.castHandlers[cm.Kind]
		p.mu.Unlock()
		if h == nil {
			continue
		}
		reply, ok := h(from, cm.Payload)
		if ok && cm.WantReply {
			if wire, err := encode(replyMsg{CastID: cm.ID, Payload: reply}); err == nil {
				_ = p.ep.Send(from, kindReply, wire)
			}
		}
	}
}

func (p *Process) handleReply(from transport.Addr, rm replyMsg) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc, ok := p.pending[rm.CastID]
	if !ok || pc.closed {
		return
	}
	pc.replies = append(pc.replies, Reply{From: from, Payload: rm.Payload})
	if len(pc.replies) >= pc.want {
		pc.closed = true
		close(pc.done)
	}
}
