// Package transport provides the message-passing substrate beneath the Isis
// layer: named endpoints exchanging typed, opaque-payload messages. Two
// implementations share one interface — an in-memory network for tests,
// examples and single-process environments, and a TCP network for real
// multi-process deployment (cmd/vced / cmd/vcerun).
//
// Delivery guarantees (both implementations): messages between a live sender
// and a live receiver are delivered reliably and in FIFO order per
// sender→receiver pair; handlers run one message at a time per endpoint.
// Those are the guarantees Isis builds its stronger orderings on.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Addr identifies an endpoint. In-memory addresses are plain names; TCP
// addresses are "host:port" strings.
type Addr string

// Message is one unit of communication.
type Message struct {
	// From is the sender's address, set by the sending endpoint. It is
	// the one place a message names its sender.
	From Addr
	// Kind is an application-level message type tag.
	Kind string
	// Payload is the opaque message body.
	Payload []byte
}

// Handler consumes inbound messages. It is invoked sequentially per endpoint.
type Handler func(Message)

// Endpoint is one communication port on a network.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Send transmits a message; it fails if the destination is unknown,
	// unreachable or closed.
	Send(to Addr, kind string, payload []byte) error
	// Handle installs the inbound message handler. Install before
	// exchanging messages; replacing it later is allowed.
	Handle(h Handler)
	// Close detaches the endpoint; subsequent Sends to it fail.
	Close() error
}

// Network creates endpoints.
type Network interface {
	// Endpoint creates a new endpoint. The name is advisory for in-memory
	// networks (it becomes the address) and ignored by TCP networks
	// (which allocate host:port addresses).
	Endpoint(name string) (Endpoint, error)
}

// ErrClosed is returned when sending from or to a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnreachable is returned when the destination does not exist or cannot
// be dialled.
var ErrUnreachable = errors.New("transport: destination unreachable")

// InMem is an in-process Network: every pair of live endpoints is connected.
type InMem struct {
	mu        sync.RWMutex
	endpoints map[Addr]*inmemEndpoint
}

// NewInMem returns an in-memory network.
func NewInMem() *InMem {
	return &InMem{endpoints: make(map[Addr]*inmemEndpoint)}
}

// Endpoint implements Network.
func (n *InMem) Endpoint(name string) (Endpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: empty endpoint name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := Addr(name)
	if _, exists := n.endpoints[addr]; exists {
		return nil, fmt.Errorf("transport: endpoint %q already exists", name)
	}
	ep := &inmemEndpoint{net: n, addr: addr}
	ep.cond = sync.NewCond(&ep.mu)
	n.endpoints[addr] = ep
	go ep.dispatch()
	return ep, nil
}

func (n *InMem) lookup(addr Addr) (*inmemEndpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[addr]
	return ep, ok
}

func (n *InMem) drop(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

type inmemEndpoint struct {
	net  *InMem
	addr Addr

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	closed  bool
	handler Handler
}

func (e *inmemEndpoint) Addr() Addr { return e.addr }

func (e *inmemEndpoint) Handle(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
	e.cond.Broadcast() // wake dispatch for messages queued before the handler
}

func (e *inmemEndpoint) Send(to Addr, kind string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	dst, ok := e.net.lookup(to)
	if !ok {
		return ErrUnreachable
	}
	msg := Message{From: e.addr, Kind: kind, Payload: payload}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed {
		return ErrClosed
	}
	dst.queue = append(dst.queue, msg)
	dst.cond.Signal()
	return nil
}

// dispatch delivers queued messages to the handler sequentially, preserving
// arrival order. Messages arriving before a handler is installed wait.
func (e *inmemEndpoint) dispatch() {
	for {
		e.mu.Lock()
		for !e.closed && (len(e.queue) == 0 || e.handler == nil) {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		msg := e.queue[0]
		e.queue = e.queue[1:]
		h := e.handler
		e.mu.Unlock()
		h(msg)
	}
}

func (e *inmemEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.net.drop(e.addr)
	return nil
}
