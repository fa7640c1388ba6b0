package proxy

import (
	"encoding/binary"
	"fmt"
	"sync"

	"vce/internal/channel"
)

// Request/response wire layout (after the channel payload):
//
//	u8  frame kind (request/response)
//	u64 call id
//	request:  u16 method length + method + marshalled args
//	response: u16 error length + error + marshalled results
const (
	frameRequest  = 0x01
	frameResponse = 0x02
)

// Handler implements one method of a server object. Args arrive decoded;
// returned results are marshalled back to the caller.
type Handler func(args []interface{}) ([]interface{}, error)

// Server is the server-side proxy of Figure 2: it receives requests,
// translates them out of architecture-independent form, invokes the server
// object, and sends the marshalled reply to the client proxy.
type Server struct {
	port *channel.Port

	mu      sync.Mutex
	methods map[string]Handler

	// Stats
	calls    int64
	errCalls int64
}

// NewServer wraps a channel port as a server proxy. Proxies generated by the
// compilation manager "use VCE channels to exchange information with proxies
// running on other machines" (§4.2).
func NewServer(port *channel.Port) *Server {
	return &Server{port: port, methods: make(map[string]Handler)}
}

// Register installs a method implementation. Registering an empty name or
// nil handler panics: that is interface-definition misuse, not runtime state.
func (s *Server) Register(method string, h Handler) {
	if method == "" || h == nil {
		panic("proxy: Register needs a method name and handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[method] = h
}

// Calls returns (total, failed) call counts.
func (s *Server) Calls() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.errCalls
}

// Serve processes requests until the port closes. Run it on its own
// goroutine; it dispatches each call synchronously (one at a time), matching
// a single-threaded 1994 server object.
func (s *Server) Serve() {
	for {
		msg, ok := s.port.Recv()
		if !ok {
			return
		}
		s.handle(msg)
	}
}

func (s *Server) handle(msg channel.Message) {
	p := msg.Payload
	if len(p) < 9 || p[0] != frameRequest {
		return // not a request frame; ignore
	}
	id := binary.BigEndian.Uint64(p[1:9])
	rest := p[9:]
	if len(rest) < 2 {
		return
	}
	mlen := int(binary.BigEndian.Uint16(rest))
	if 2+mlen > len(rest) {
		return
	}
	method := string(rest[2 : 2+mlen])
	argBytes := rest[2+mlen:]

	s.mu.Lock()
	h := s.methods[method]
	s.calls++
	s.mu.Unlock()

	var results []interface{}
	var callErr error
	if h == nil {
		callErr = fmt.Errorf("proxy: no method %q", method)
	} else {
		var args []interface{}
		args, callErr = UnmarshalValues(argBytes)
		if callErr == nil {
			results, callErr = h(args)
		}
	}
	if callErr != nil {
		s.mu.Lock()
		s.errCalls++
		s.mu.Unlock()
	}
	reply, err := encodeResponse(id, results, callErr)
	if err != nil {
		reply, _ = encodeResponse(id, nil, err)
	}
	_ = s.port.SendTo(msg.From, reply)
}

func encodeResponse(id uint64, results []interface{}, callErr error) ([]byte, error) {
	errText := ""
	if callErr != nil {
		errText = callErr.Error()
		results = nil
	}
	body, err := MarshalValues(results)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 11+len(errText)+len(body))
	out = append(out, frameResponse)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], id)
	out = append(out, u64[:]...)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(errText)))
	out = append(out, u16[:]...)
	out = append(out, errText...)
	return append(out, body...), nil
}

// Client is the client-side proxy: Call marshals a method invocation, sends
// it to the server proxy's port, and blocks for the reply.
type Client struct {
	port   *channel.Port
	server channel.PortID

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	started bool

	bytesOut int64
	bytesIn  int64
}

type response struct {
	results []interface{}
	err     error
}

// NewClient wraps a channel port as a client proxy bound to a server port.
func NewClient(port *channel.Port, server channel.PortID) *Client {
	return &Client{port: port, server: server, pending: make(map[uint64]chan response)}
}

// Traffic returns (bytes sent, bytes received) by this proxy.
func (c *Client) Traffic() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesOut, c.bytesIn
}

// Call invokes method with args on the remote object and returns its
// results. Concurrent calls from multiple goroutines multiplex over call IDs.
func (c *Client) Call(method string, args ...interface{}) ([]interface{}, error) {
	body, err := MarshalValues(args)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 0, 11+len(method)+len(body))
	frame = append(frame, frameRequest)
	c.mu.Lock()
	if !c.started {
		c.started = true
		go c.recvLoop()
	}
	c.nextID++
	id := c.nextID
	ch := make(chan response, 1)
	c.pending[id] = ch
	c.bytesOut += int64(len(method) + len(body) + 11)
	c.mu.Unlock()

	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], id)
	frame = append(frame, u64[:]...)
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(method)))
	frame = append(frame, u16[:]...)
	frame = append(frame, method...)
	frame = append(frame, body...)

	if err := c.port.SendTo(c.server, frame); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("proxy: send: %w", err)
	}
	r, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("proxy: connection closed during call")
	}
	return r.results, r.err
}

func (c *Client) recvLoop() {
	for {
		msg, ok := c.port.Recv()
		if !ok {
			c.mu.Lock()
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		p := msg.Payload
		if len(p) < 11 || p[0] != frameResponse {
			continue
		}
		id := binary.BigEndian.Uint64(p[1:9])
		elen := int(binary.BigEndian.Uint16(p[9:11]))
		if 11+elen > len(p) {
			continue
		}
		errText := string(p[11 : 11+elen])
		var r response
		if errText != "" {
			r.err = fmt.Errorf("%s", errText)
		} else {
			r.results, r.err = UnmarshalValues(p[11+elen:])
		}
		c.mu.Lock()
		ch, exists := c.pending[id]
		delete(c.pending, id)
		c.bytesIn += int64(len(p))
		c.mu.Unlock()
		if exists {
			ch <- r
		}
	}
}
