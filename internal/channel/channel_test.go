package channel

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func pair(t *testing.T) (*Hub, *Channel, *Port, *Port) {
	t.Helper()
	h := NewHub()
	c := h.Channel("data")
	a, err := c.CreatePort("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreatePort("b")
	if err != nil {
		t.Fatal(err)
	}
	return h, c, a, b
}

func recvWithin(t *testing.T, p *Port) Message {
	t.Helper()
	done := make(chan Message, 1)
	go func() {
		if m, ok := p.Recv(); ok {
			done <- m
		}
		close(done)
	}()
	select {
	case m, ok := <-done:
		if !ok {
			t.Fatal("port closed while receiving")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("recv timed out")
	}
	panic("unreachable")
}

func TestDirectedDelivery(t *testing.T) {
	_, _, a, b := pair(t)
	if err := a.SendTo("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m := recvWithin(t, b)
	if string(m.Payload) != "hi" || m.From != "a" || m.To != "b" {
		t.Fatalf("message = %+v", m)
	}
}

func TestGroupDelivery(t *testing.T) {
	_, c, a, b := pair(t)
	d, err := c.CreatePort("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("all")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Port{b, d} {
		if string(recvWithin(t, p).Payload) != "all" {
			t.Fatal("group member missed message")
		}
	}
	a.mu.Lock()
	own := len(a.queue)
	a.mu.Unlock()
	if own != 0 {
		t.Fatal("sender received its own group message")
	}
}

func TestGroupTransparency(t *testing.T) {
	// "Clients may be unaware of whether messages are being received by
	// groups or individuals": a receiver handles both identically.
	_, _, a, b := pair(t)
	if err := a.Send([]byte("group")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo("b", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	first, second := recvWithin(t, b), recvWithin(t, b)
	if string(first.Payload) != "group" || string(second.Payload) != "direct" {
		t.Fatalf("got %q then %q", first.Payload, second.Payload)
	}
}

func TestSendToMissingPort(t *testing.T) {
	_, _, a, _ := pair(t)
	if err := a.SendTo("ghost", nil); err == nil {
		t.Fatal("send to missing port accepted")
	}
}

func TestDuplicateAndEmptyPortIDs(t *testing.T) {
	_, c, _, _ := pair(t)
	if _, err := c.CreatePort("a"); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if _, err := c.CreatePort(""); err == nil {
		t.Fatal("empty port id accepted")
	}
}

func TestHubDestroyClosesEverything(t *testing.T) {
	h, c, a, b := pair(t)
	h.Destroy("data")
	if err := a.Send([]byte("x")); err == nil {
		t.Fatal("send on destroyed channel accepted")
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("port survived channel destruction")
	}
	if _, err := c.CreatePort("late"); err == nil {
		t.Fatal("port created on destroyed channel")
	}
	if len(h.channels) != 0 {
		t.Fatalf("channels = %v", h.channels)
	}
}

func TestHubChannelIdempotent(t *testing.T) {
	h := NewHub()
	c1 := h.Channel("x")
	c2 := h.Channel("x")
	if c1 != c2 {
		t.Fatal("same name produced different channels")
	}
}

func TestConcurrentSendersFIFOPerSender(t *testing.T) {
	_, c, _, b := pair(t)
	const senders, per = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		p, err := c.CreatePort(PortID(fmt.Sprintf("s%d", s)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p *Port, id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := p.SendTo("b", []byte(fmt.Sprintf("%d:%d", id, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(p, s)
	}
	wg.Wait()
	next := make(map[string]int)
	for i := 0; i < senders*per; i++ {
		// Every send enqueued before wg.Wait returned, so Recv never
		// blocks here.
		m, ok := b.Recv()
		if !ok {
			t.Fatalf("only %d messages arrived", i)
		}
		var id, seq int
		fmt.Sscanf(string(m.Payload), "%d:%d", &id, &seq)
		key := fmt.Sprintf("%d", id)
		if next[key] != seq {
			t.Fatalf("sender %d out of order: got %d want %d", id, seq, next[key])
		}
		next[key]++
	}
}
