// Package channel implements VCE channels and ports (§4.2): "A channel is a
// logical transport medium that connects possibly many tasks sending and
// receiving messages. Channels are distinct from the tasks that are connected
// to them, and thus readily support messaging directed to groups and/or
// single tasks ... The runtime system may split channels, interposing other
// tasks between senders and receivers to deal with issues such as
// authentication or data conversion. Channels will be connected to tasks
// through ports. The runtime system will be responsible for the creation,
// placement, and destruction of ports."
//
// This package implements ports, group and directed delivery, and teardown.
// The paper's splitting, monitoring and redirection of connections are out of
// its scope: no program or experiment uses them.
package channel

import (
	"fmt"
	"sync"
)

// PortID names a port within a channel.
type PortID string

// Message is one unit carried by a channel.
type Message struct {
	// Channel is the carrying channel's name.
	Channel string
	// From is the sending port.
	From PortID
	// To is the addressed port; empty means group delivery to every
	// other connected port. Receivers "may be unaware of whether messages
	// are being received by groups or individuals".
	To PortID
	// Payload is the message body.
	Payload []byte
}

// Channel is one logical transport medium.
type Channel struct {
	name string

	mu        sync.Mutex
	ports     map[PortID]*Port
	destroyed bool
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// Port is a task's connection to a channel.
type Port struct {
	id PortID
	ch *Channel

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
}

// ID returns the port's identity.
func (p *Port) ID() PortID { return p.id }

// CreatePort connects a new port to the channel.
func (c *Channel) CreatePort(id PortID) (*Port, error) {
	if id == "" {
		return nil, fmt.Errorf("channel %s: empty port id", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed {
		return nil, fmt.Errorf("channel %s: destroyed", c.name)
	}
	if _, dup := c.ports[id]; dup {
		return nil, fmt.Errorf("channel %s: port %q exists", c.name, id)
	}
	p := &Port{id: id, ch: c}
	p.cond = sync.NewCond(&p.mu)
	c.ports[id] = p
	return p, nil
}

// Ports returns the IDs of currently connected ports.
func (c *Channel) Ports() []PortID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PortID, 0, len(c.ports))
	for id := range c.ports {
		out = append(out, id)
	}
	return out
}

// send routes a message from a port to its destination(s).
func (c *Channel) send(m Message) error {
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		return fmt.Errorf("channel %s: destroyed", c.name)
	}
	var targets []*Port
	if m.To != "" {
		p, ok := c.ports[m.To]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("channel %s: no port %q", c.name, m.To)
		}
		targets = append(targets, p)
	} else {
		for id, p := range c.ports {
			if id != m.From {
				targets = append(targets, p)
			}
		}
	}
	c.mu.Unlock()
	for _, p := range targets {
		p.enqueue(m)
	}
	return nil
}

// Send submits a group message: every other connected port receives it.
func (p *Port) Send(payload []byte) error {
	return p.ch.send(Message{Channel: p.ch.name, From: p.id, Payload: payload})
}

// SendTo submits a message addressed to a single port.
func (p *Port) SendTo(dst PortID, payload []byte) error {
	return p.ch.send(Message{Channel: p.ch.name, From: p.id, To: dst, Payload: payload})
}

func (p *Port) enqueue(m Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.queue = append(p.queue, m)
	p.cond.Signal()
}

// Recv blocks until a message arrives or the port closes. ok=false means the
// port is closed and drained.
func (p *Port) Recv() (Message, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return Message{}, false
	}
	m := p.queue[0]
	p.queue = p.queue[1:]
	return m, true
}

func (p *Port) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Hub owns channels; the runtime manager holds one hub per application.
type Hub struct {
	mu       sync.Mutex
	channels map[string]*Channel
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{channels: make(map[string]*Channel)}
}

// Channel returns the named channel, creating it on first use.
func (h *Hub) Channel(name string) *Channel {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.channels[name]
	if !ok {
		c = &Channel{name: name, ports: make(map[PortID]*Port)}
		h.channels[name] = c
	}
	return c
}

// Destroy tears down a channel and closes all its ports.
func (h *Hub) Destroy(name string) {
	h.mu.Lock()
	c, ok := h.channels[name]
	delete(h.channels, name)
	h.mu.Unlock()
	if !ok {
		return
	}
	c.mu.Lock()
	c.destroyed = true
	ports := make([]*Port, 0, len(c.ports))
	for _, p := range c.ports {
		ports = append(ports, p)
	}
	c.ports = make(map[PortID]*Port)
	c.mu.Unlock()
	for _, p := range ports {
		p.close()
	}
}
