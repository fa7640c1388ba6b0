package channel

import (
	"bytes"
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
	_, c2, _, _ := pair(t)
	if c2.Stats().Dropped != 0 {
		t.Fatal("fresh channel has drops")
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

func TestInterposerDataConversion(t *testing.T) {
	_, c, a, b := pair(t)
	c.Split(InterposerFunc(func(m Message) (Message, bool) {
		m.Payload = bytes.ToUpper(m.Payload)
		return m, true
	}))
	if err := a.SendTo("b", []byte("convert me")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvWithin(t, b).Payload); got != "CONVERT ME" {
		t.Fatalf("payload = %q", got)
	}
}

func TestInterposerAuthenticationRejects(t *testing.T) {
	_, c, a, b := pair(t)
	c.Split(InterposerFunc(func(m Message) (Message, bool) {
		return m, bytes.HasPrefix(m.Payload, []byte("token:"))
	}))
	if err := a.SendTo("b", []byte("unauthenticated")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo("b", []byte("token:ok")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvWithin(t, b).Payload); got != "token:ok" {
		t.Fatalf("authenticated message lost, got %q", got)
	}
	s := c.Stats()
	if s.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped)
	}
}

func TestInterposersApplyInSpliceOrder(t *testing.T) {
	_, c, a, b := pair(t)
	c.Split(InterposerFunc(func(m Message) (Message, bool) {
		m.Payload = append(m.Payload, '1')
		return m, true
	}))
	c.Split(InterposerFunc(func(m Message) (Message, bool) {
		m.Payload = append(m.Payload, '2')
		return m, true
	}))
	if err := a.SendTo("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvWithin(t, b).Payload); got != "x12" {
		t.Fatalf("payload = %q", got)
	}
}

func TestRedirectMovesConnection(t *testing.T) {
	_, c, a, b := pair(t)
	// b's task migrates: a replacement port takes over its traffic.
	b2, err := c.CreatePort("b-migrated")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Redirect("b", "b-migrated"); err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo("b", []byte("follow me")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvWithin(t, b2).Payload); got != "follow me" {
		t.Fatalf("redirected payload = %q", got)
	}
	// The stale port is closed.
	if _, ok := b.Recv(); ok {
		t.Fatal("stale port still delivers")
	}
}

func TestRedirectChain(t *testing.T) {
	_, c, a, _ := pair(t)
	b2, _ := c.CreatePort("b2")
	if err := c.Redirect("b", "b2"); err != nil {
		t.Fatal(err)
	}
	b3, _ := c.CreatePort("b3")
	if err := c.Redirect("b2", "b3"); err != nil {
		t.Fatal(err)
	}
	_ = b2
	if err := a.SendTo("b", []byte("twice moved")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvWithin(t, b3).Payload); got != "twice moved" {
		t.Fatalf("chained redirect payload = %q", got)
	}
}

func TestRedirectToMissingTarget(t *testing.T) {
	_, c, _, _ := pair(t)
	if err := c.Redirect("a", "nowhere"); err == nil {
		t.Fatal("redirect to missing port accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	_, c, a, b := pair(t)
	d, _ := c.CreatePort("d")
	_ = d
	if err := a.Send(make([]byte, 10)); err != nil { // delivered to b and d
		t.Fatal(err)
	}
	if err := a.SendTo("b", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	_ = b
	s := c.Stats()
	if s.Sent != 2 {
		t.Fatalf("sent = %d", s.Sent)
	}
	if s.Delivered != 3 {
		t.Fatalf("delivered = %d, want 3", s.Delivered)
	}
	if s.Bytes != 25 {
		t.Fatalf("bytes = %d, want 25", s.Bytes)
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
