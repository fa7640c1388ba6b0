package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is a Network whose endpoints are real TCP listeners on the loopback (or
// any) interface. It is the live-mode transport for cmd/vced and cmd/vcerun.
type TCP struct {
	// ListenHost is the interface to bind; defaults to 127.0.0.1.
	ListenHost string
}

// NewTCP returns a TCP network binding loopback listeners.
func NewTCP() *TCP { return &TCP{ListenHost: "127.0.0.1"} }

// Endpoint implements Network. The name parameter is ignored; the endpoint's
// address is its listener's host:port.
func (t *TCP) Endpoint(string) (Endpoint, error) {
	host := t.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ep := &tcpEndpoint{
		ln:    ln,
		addr:  Addr(ln.Addr().String()),
		conns: make(map[Addr]net.Conn),
		ready: make(chan struct{}),
	}
	go ep.acceptLoop()
	return ep, nil
}

type tcpEndpoint struct {
	ln   net.Listener
	addr Addr

	mu      sync.Mutex
	conns   map[Addr]net.Conn // outbound connection cache
	handler Handler
	closed  bool

	ready   chan struct{} // closed once a handler is installed
	readyMu sync.Once

	deliverMu sync.Mutex // serializes handler invocations
}

func (e *tcpEndpoint) Addr() Addr { return e.addr }

func (e *tcpEndpoint) Handle(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
	e.readyMu.Do(func() { close(e.ready) })
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(conn)
	}
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	<-e.ready
	for {
		msg, err := readFrame(conn)
		if err != nil {
			return
		}
		e.mu.Lock()
		h := e.handler
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			// One message at a time per endpoint, matching InMem.
			e.deliverMu.Lock()
			h(msg)
			e.deliverMu.Unlock()
		}
	}
}

func (e *tcpEndpoint) Send(to Addr, kind string, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	conn, ok := e.conns[to]
	e.mu.Unlock()
	if !ok {
		var err error
		conn, err = net.Dial("tcp", string(to))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		e.mu.Lock()
		if cached, race := e.conns[to]; race {
			// Another goroutine dialed concurrently; keep one.
			e.mu.Unlock()
			conn.Close()
			conn = cached
		} else {
			e.conns[to] = conn
			e.mu.Unlock()
		}
	}
	err := writeFrame(conn, Message{From: e.addr, Kind: kind, Payload: payload})
	if err != nil {
		// Connection went bad; drop it so the next send redials.
		e.mu.Lock()
		if e.conns[to] == conn {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		conn.Close()
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return nil
}

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = make(map[Addr]net.Conn)
	e.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	e.readyMu.Do(func() { close(e.ready) })
	return e.ln.Close()
}

// Frame layout: u32 frame length, then u16-prefixed kind, u16-prefixed from
// address, remainder payload. Big-endian, like all VCE wire formats.
const maxFrame = 64 << 20 // 64 MiB: largest migration image the repo ships

func writeFrame(w io.Writer, m Message) error {
	kind := []byte(m.Kind)
	from := []byte(m.From)
	if len(kind) > 0xffff || len(from) > 0xffff {
		return fmt.Errorf("transport: kind/from too long")
	}
	total := 2 + len(kind) + 2 + len(from) + len(m.Payload)
	if total > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf, uint32(total))
	off := 4
	binary.BigEndian.PutUint16(buf[off:], uint16(len(kind)))
	off += 2
	off += copy(buf[off:], kind)
	binary.BigEndian.PutUint16(buf[off:], uint16(len(from)))
	off += 2
	off += copy(buf[off:], from)
	copy(buf[off:], m.Payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total > maxFrame {
		return Message{}, fmt.Errorf("transport: oversized frame %d", total)
	}
	// The body is read as it arrives rather than into a buffer of the
	// declared size: a header alone must not make the reader allocate up
	// to maxFrame.
	buf, err := io.ReadAll(io.LimitReader(r, int64(total)))
	if err != nil {
		return Message{}, err
	}
	if len(buf) < int(total) {
		return Message{}, io.ErrUnexpectedEOF
	}
	if len(buf) < 2 {
		return Message{}, fmt.Errorf("transport: short frame")
	}
	kindLen := int(binary.BigEndian.Uint16(buf))
	off := 2
	if off+kindLen+2 > len(buf) {
		return Message{}, fmt.Errorf("transport: corrupt frame")
	}
	kind := string(buf[off : off+kindLen])
	off += kindLen
	fromLen := int(binary.BigEndian.Uint16(buf[off:]))
	off += 2
	if off+fromLen > len(buf) {
		return Message{}, fmt.Errorf("transport: corrupt frame")
	}
	from := string(buf[off : off+fromLen])
	off += fromLen
	payload := buf[off:]
	return Message{From: Addr(from), Kind: kind, Payload: payload}, nil
}
