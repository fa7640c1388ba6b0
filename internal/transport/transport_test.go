package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// collector gathers delivered messages behind a mutex.
type collector struct {
	mu   sync.Mutex
	msgs []Message
	ch   chan Message
}

func newCollector() *collector {
	return &collector{ch: make(chan Message, 1024)}
}

func (c *collector) handler(m Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	c.ch <- m
}

func (c *collector) wait(t *testing.T, n int) []Message {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-deadline:
			c.mu.Lock()
			got := len(c.msgs)
			c.mu.Unlock()
			t.Fatalf("timed out waiting for %d messages, have %d", n, got)
		case <-time.After(time.Millisecond):
		}
	}
}

func testNetworkBasics(t *testing.T, mk func(t *testing.T) Network) {
	t.Run("roundtrip", func(t *testing.T) {
		net := mk(t)
		a, err := net.Endpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := net.Endpoint("b")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		col := newCollector()
		b.Handle(col.handler)
		a.Handle(func(Message) {})
		if err := a.Send(b.Addr(), "ping", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		msgs := col.wait(t, 1)
		if msgs[0].Kind != "ping" || string(msgs[0].Payload) != "hello" {
			t.Fatalf("got %+v", msgs[0])
		}
		if msgs[0].From != a.Addr() {
			t.Fatalf("from = %v, want %v", msgs[0].From, a.Addr())
		}
	})

	t.Run("fifo per pair", func(t *testing.T) {
		net := mk(t)
		a, _ := net.Endpoint("fifoa")
		defer a.Close()
		b, _ := net.Endpoint("fifob")
		defer b.Close()
		col := newCollector()
		b.Handle(col.handler)
		const n = 200
		for i := 0; i < n; i++ {
			if err := a.Send(b.Addr(), "seq", []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		msgs := col.wait(t, n)
		for i := 0; i < n; i++ {
			if string(msgs[i].Payload) != fmt.Sprintf("%d", i) {
				t.Fatalf("message %d out of order: %s", i, msgs[i].Payload)
			}
		}
	})

	t.Run("send after close fails", func(t *testing.T) {
		net := mk(t)
		a, _ := net.Endpoint("closea")
		b, _ := net.Endpoint("closeb")
		b.Handle(func(Message) {})
		a.Handle(func(Message) {})
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(b.Addr(), "x", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("send from closed endpoint = %v, want ErrClosed", err)
		}
		b.Close()
	})

	t.Run("double close is nil", func(t *testing.T) {
		net := mk(t)
		a, _ := net.Endpoint("dceA")
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	})

	t.Run("empty payload", func(t *testing.T) {
		net := mk(t)
		a, _ := net.Endpoint("empA")
		defer a.Close()
		b, _ := net.Endpoint("empB")
		defer b.Close()
		col := newCollector()
		b.Handle(col.handler)
		if err := a.Send(b.Addr(), "nil", nil); err != nil {
			t.Fatal(err)
		}
		msgs := col.wait(t, 1)
		if len(msgs[0].Payload) != 0 {
			t.Fatalf("payload = %v", msgs[0].Payload)
		}
	})
}

func TestInMemNetwork(t *testing.T) {
	testNetworkBasics(t, func(t *testing.T) Network { return NewInMem() })
}

func TestTCPNetwork(t *testing.T) {
	testNetworkBasics(t, func(t *testing.T) Network { return NewTCP() })
}

func TestInMemUnknownDestination(t *testing.T) {
	net := NewInMem()
	a, _ := net.Endpoint("a")
	defer a.Close()
	if err := a.Send("ghost", "x", nil); err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestInMemDuplicateName(t *testing.T) {
	net := NewInMem()
	_, err := net.Endpoint("dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("dup"); err == nil {
		t.Fatal("duplicate endpoint name accepted")
	}
	if _, err := net.Endpoint(""); err == nil {
		t.Fatal("empty endpoint name accepted")
	}
}

func TestInMemMessagesBeforeHandlerAreQueued(t *testing.T) {
	net := NewInMem()
	a, _ := net.Endpoint("a")
	defer a.Close()
	b, _ := net.Endpoint("b")
	defer b.Close()
	if err := a.Send("b", "early", []byte("1")); err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	b.Handle(col.handler)
	msgs := col.wait(t, 1)
	if msgs[0].Kind != "early" {
		t.Fatalf("queued message lost: %+v", msgs)
	}
}

func TestInMemSendToClosedEndpoint(t *testing.T) {
	net := NewInMem()
	a, _ := net.Endpoint("a")
	defer a.Close()
	b, _ := net.Endpoint("b")
	b.Handle(func(Message) {})
	b.Close()
	if err := a.Send("b", "x", nil); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
}

func TestTCPSendToDeadAddressFails(t *testing.T) {
	net := NewTCP()
	a, _ := net.Endpoint("")
	defer a.Close()
	if err := a.Send("127.0.0.1:1", "x", nil); err == nil {
		t.Fatal("send to dead address succeeded")
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	netw := NewTCP()
	a, _ := netw.Endpoint("")
	defer a.Close()
	b, _ := netw.Endpoint("")
	col := newCollector()
	b.Handle(col.handler)
	if err := a.Send(b.Addr(), "one", nil); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	b.Close()
	// Writes to a dead peer may land in kernel buffers before the RST
	// arrives, so failure is only guaranteed eventually: the cache must
	// self-heal (drop the dead conn, redial, observe refusal).
	deadline := time.After(5 * time.Second)
	for {
		if err := a.Send(b.Addr(), "again", nil); err != nil {
			return // observed the failure; cache healed
		}
		select {
		case <-deadline:
			t.Fatal("sends to closed peer endpoint kept succeeding")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(kind string, from string, payload []byte) bool {
		if len(kind) > 1000 || len(from) > 1000 || len(payload) > 100000 {
			return true
		}
		var buf bytes.Buffer
		in := Message{From: Addr(from), Kind: kind, Payload: payload}
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return out.Kind == kind && out.From == Addr(from) && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, Message{Kind: "k", Payload: make([]byte, maxFrame+1)})
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadFrameCorrupt(t *testing.T) {
	// Frame claims a kind longer than the body.
	raw := []byte{0, 0, 0, 4, 0xff, 0xff, 0, 0}
	if _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

// TestReadFrameAllocatesWhatArrives: a header declaring the largest frame,
// followed by four bytes, fails as a truncated frame without the reader
// allocating the declared size first (64 MiB when it did).
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	raw := binary.BigEndian.AppendUint32(nil, maxFrame)
	raw = append(raw, 0, 1, 'k', 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: error %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("readFrame allocated %d bytes for a 4-byte body", alloc)
	}
}

func TestInMemConcurrentSenders(t *testing.T) {
	net := NewInMem()
	dst, _ := net.Endpoint("dst")
	defer dst.Close()
	col := newCollector()
	dst.Handle(col.handler)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Endpoint(fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		wg.Add(1)
		go func(ep Endpoint, id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send("dst", "m", []byte(fmt.Sprintf("%d:%d", id, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep, s)
	}
	wg.Wait()
	msgs := col.wait(t, senders*per)
	// Per-sender FIFO must hold even under interleaving.
	next := make(map[Addr]int)
	for _, m := range msgs {
		var id, i int
		fmt.Sscanf(string(m.Payload), "%d:%d", &id, &i)
		if next[m.From] != i {
			t.Fatalf("sender %v out of order: got %d want %d", m.From, i, next[m.From])
		}
		next[m.From]++
	}
}
