package isis

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vce/internal/transport"
	"vce/internal/vtime"
)

// eventually polls cond until true or the deadline; protocol progress runs on
// background dispatcher goroutines, so assertions must be patience-based.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if cond() {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// newGroup founds a group and joins n-1 more members over an in-memory
// network with fast heartbeats.
func newGroup(t *testing.T, n int) []*Process {
	t.Helper()
	net := transport.NewInMem()
	// Heartbeat 20x slower than the detection threshold: false positives
	// under scheduler jitter would silently reshape views mid-test.
	cfg := func(i int) Config {
		return Config{
			Name:           fmt.Sprintf("m%d", i),
			HeartbeatEvery: 25 * time.Millisecond,
			FailAfter:      500 * time.Millisecond,
			ReplyTimeout:   2 * time.Second,
		}
	}
	procs := make([]*Process, 0, n)
	founder, err := Found(net, "vce", cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	procs = append(procs, founder)
	for i := 1; i < n; i++ {
		p, err := Join(net, "vce", founder.Addr(), cfg(i))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	netMu.Lock()
	for _, p := range procs {
		netByMember[p.Addr()] = net
	}
	netMu.Unlock()
	for _, p := range procs {
		p := p
		eventually(t, "full view", func() bool { return p.View().Size() == n })
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	return procs
}

func TestFoundAndJoin(t *testing.T) {
	procs := newGroup(t, 4)
	v := procs[0].View()
	if v.Size() != 4 {
		t.Fatalf("view size = %d", v.Size())
	}
	if !procs[0].IsLeader() {
		t.Fatal("founder is not leader")
	}
	for i := 1; i < 4; i++ {
		if procs[i].IsLeader() {
			t.Fatalf("member %d claims leadership", i)
		}
	}
	// Ranks must be join order and views identical everywhere.
	for _, p := range procs {
		pv := p.View()
		if pv.Number != v.Number {
			t.Fatalf("view numbers differ: %d vs %d", pv.Number, v.Number)
		}
		for j, m := range pv.Members {
			if m.Rank != v.Members[j].Rank || m.Addr != v.Members[j].Addr {
				t.Fatalf("views differ at %d", j)
			}
		}
	}
	if v.Leader().Name != "m0" {
		t.Fatalf("leader = %s, want m0 (oldest)", v.Leader().Name)
	}
}

func TestJoinViaNonLeaderForwards(t *testing.T) {
	net := transport.NewInMem()
	cfg := Config{Name: "a", HeartbeatEvery: 25 * time.Millisecond, FailAfter: 500 * time.Millisecond, ReplyTimeout: 2 * time.Second}
	a, err := Found(net, "g", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	cfg.Name = "b"
	b, err := Join(net, "g", a.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	// c joins via b, who is not the leader: the request must be forwarded.
	cfg.Name = "c"
	c, err := Join(net, "g", b.Addr(), cfg)
	if err != nil {
		t.Fatalf("join via non-leader: %v", err)
	}
	defer c.Stop()
	eventually(t, "3-member views", func() bool {
		return a.View().Size() == 3 && b.View().Size() == 3 && c.View().Size() == 3
	})
}

func TestJoinUnknownContactFails(t *testing.T) {
	net := transport.NewInMem()
	cfg := Config{Name: "x", ReplyTimeout: 50 * time.Millisecond}
	if _, err := Join(net, "g", "ghost", cfg); err == nil {
		t.Fatal("join via dead contact succeeded")
	}
}

func TestCastFIFOAllReplies(t *testing.T) {
	procs := newGroup(t, 5)
	for i, p := range procs {
		i := i
		p.HandleCast("bid", func(from transport.Addr, payload []byte) ([]byte, bool) {
			return []byte(fmt.Sprintf("bid-from-%d", i)), true
		})
	}
	replies, err := procs[0].Cast("bid", []byte("need"), AllReplies)
	if err != nil {
		t.Fatalf("cast: %v (replies %d)", err, len(replies))
	}
	if len(replies) != 5 {
		t.Fatalf("replies = %d, want 5 (self included)", len(replies))
	}
	seen := make(map[string]bool)
	for _, r := range replies {
		seen[string(r.Payload)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("duplicate replies: %v", seen)
	}
}

func TestCastKReplies(t *testing.T) {
	procs := newGroup(t, 6)
	for _, p := range procs {
		p.HandleCast("q", func(transport.Addr, []byte) ([]byte, bool) { return []byte("y"), true })
	}
	replies, err := procs[1].Cast("q", nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) < 3 {
		t.Fatalf("replies = %d, want >= 3", len(replies))
	}
}

func TestCastDecliningMembersCauseTimeout(t *testing.T) {
	procs := newGroup(t, 4)
	for i, p := range procs {
		willing := i < 2
		p.HandleCast("q", func(transport.Addr, []byte) ([]byte, bool) {
			return []byte("y"), willing
		})
	}
	short := procs[0]
	// Shorten the reply window for this test only.
	short.cfg.ReplyTimeout = 100 * time.Millisecond
	replies, err := short.Cast("q", nil, AllReplies)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if len(replies) != 2 {
		t.Fatalf("partial replies = %d, want 2", len(replies))
	}
}

func TestCastNoReplyWanted(t *testing.T) {
	procs := newGroup(t, 3)
	var mu sync.Mutex
	got := 0
	for _, p := range procs {
		p.HandleCast("note", func(transport.Addr, []byte) ([]byte, bool) {
			mu.Lock()
			got++
			mu.Unlock()
			return nil, false
		})
	}
	replies, err := procs[0].Cast("note", []byte("x"), 0)
	if err != nil || replies != nil {
		t.Fatalf("cast = %v, %v", replies, err)
	}
	eventually(t, "all deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == 3
	})
}

func TestFIFOOrderPerSender(t *testing.T) {
	procs := newGroup(t, 3)
	var mu sync.Mutex
	received := make(map[int][]int) // receiver index -> sequence observed
	for idx, p := range procs[1:] {
		idx := idx
		p.HandleCast("seq", func(from transport.Addr, payload []byte) ([]byte, bool) {
			mu.Lock()
			var v int
			fmt.Sscanf(string(payload), "%d", &v)
			received[idx] = append(received[idx], v)
			mu.Unlock()
			return nil, false
		})
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := procs[0].Cast("seq", []byte(fmt.Sprintf("%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "all FIFO deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(received[0]) >= n && len(received[1]) >= n
	})
	mu.Lock()
	defer mu.Unlock()
	for recv, seq := range received {
		if len(seq) != n {
			t.Fatalf("receiver %d got %d messages, want %d", recv, len(seq), n)
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1]+1 {
				t.Fatalf("receiver %d saw out-of-order FIFO: %v", recv, seq)
			}
		}
	}
}

func TestLeaderFailoverOldestSurvivorTakesOver(t *testing.T) {
	procs := newGroup(t, 4)
	leader := procs[0]
	if !leader.IsLeader() {
		t.Fatal("unexpected initial leader")
	}
	leader.Stop() // crash, no notice
	eventually(t, "failover to m1", func() bool {
		return procs[1].IsLeader() && procs[1].View().Size() == 3
	})
	// All survivors converge on the same new view.
	eventually(t, "survivor view convergence", func() bool {
		v1 := procs[1].View()
		v2 := procs[2].View()
		v3 := procs[3].View()
		return v1.Number == v2.Number && v2.Number == v3.Number &&
			v1.Size() == 3 && v1.Leader().Name == "m1"
	})
	if procs[2].IsLeader() || procs[3].IsLeader() {
		t.Fatal("younger member claimed leadership")
	}
}

func TestCascadedLeaderFailover(t *testing.T) {
	procs := newGroup(t, 4)
	procs[0].Stop()
	eventually(t, "first failover", func() bool { return procs[1].IsLeader() })
	procs[1].Stop()
	eventually(t, "second failover", func() bool {
		return procs[2].IsLeader() && procs[2].View().Size() == 2
	})
	if got := procs[3].View().Leader().Name; got != "m2" {
		t.Fatalf("m3 sees leader %s, want m2", got)
	}
}

func TestMemberCrashDetectedByLeader(t *testing.T) {
	procs := newGroup(t, 4)
	procs[2].Stop()
	eventually(t, "crash detected", func() bool {
		return procs[0].View().Size() == 3 && !procs[0].View().Contains(procs[2].Addr())
	})
	eventually(t, "view propagated", func() bool {
		return procs[1].View().Size() == 3 && procs[3].View().Size() == 3
	})
}

func TestGracefulLeaveNonLeader(t *testing.T) {
	procs := newGroup(t, 3)
	procs[2].Leave()
	eventually(t, "leave processed", func() bool {
		return procs[0].View().Size() == 2
	})
}

func TestGracefulLeaveLeaderHandsOver(t *testing.T) {
	procs := newGroup(t, 3)
	procs[0].Leave()
	eventually(t, "handover", func() bool {
		return procs[1].IsLeader() && procs[1].View().Size() == 2
	})
}

func TestJoinAfterFailover(t *testing.T) {
	procs := newGroup(t, 3)
	procs[0].Stop()
	eventually(t, "failover", func() bool { return procs[1].IsLeader() })
	net := transportOf(t, procs[1])
	cfg := Config{Name: "late", HeartbeatEvery: 25 * time.Millisecond, FailAfter: 500 * time.Millisecond, ReplyTimeout: 2 * time.Second}
	late, err := Join(net, "vce", procs[1].Addr(), cfg)
	if err != nil {
		t.Fatalf("join after failover: %v", err)
	}
	defer late.Stop()
	eventually(t, "joined view", func() bool {
		return late.View().Size() == 3 && procs[2].View().Size() == 3
	})
	// Ranks keep increasing: the newcomer must be youngest.
	v := late.View()
	if v.Members[len(v.Members)-1].Name != "late" {
		t.Fatalf("late joiner is not youngest: %+v", v.Members)
	}
}

// transportOf digs the shared in-memory network out of an existing process
// for late joins in tests.
func transportOf(t *testing.T, p *Process) transport.Network {
	t.Helper()
	// The in-memory network is shared by construction in newGroup, which
	// records it here for every member it creates.
	netMu.Lock()
	defer netMu.Unlock()
	net, ok := netByMember[p.Addr()]
	if !ok {
		t.Fatal("no recorded network for member")
	}
	return net
}

var (
	netMu       sync.Mutex
	netByMember = map[transport.Addr]transport.Network{}
)

func TestPointToPoint(t *testing.T) {
	procs := newGroup(t, 3)
	got := make(chan string, 1)
	procs[2].HandlePoint("hello", func(from transport.Addr, payload []byte) {
		got <- string(payload)
	})
	if err := procs[0].Send(procs[2].Addr(), "hello", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "direct" {
			t.Fatalf("payload = %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("point-to-point message never arrived")
	}
}

func TestCastOnStoppedProcess(t *testing.T) {
	procs := newGroup(t, 2)
	procs[1].Stop()
	if _, err := procs[1].Cast("x", nil, 0); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestOnViewChangeImmediateAndOnChange(t *testing.T) {
	procs := newGroup(t, 2)
	var mu sync.Mutex
	var sizes []int
	procs[0].OnViewChange(func(v View) {
		mu.Lock()
		sizes = append(sizes, v.Size())
		mu.Unlock()
	})
	eventually(t, "immediate callback", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sizes) >= 1 && sizes[0] == 2
	})
	procs[1].Stop()
	eventually(t, "change callback", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sizes) >= 2 && sizes[len(sizes)-1] == 1
	})
}

func TestManualClockFailureDetection(t *testing.T) {
	// Deterministic failure detection using the manual clock: no real
	// sleeps are involved in deciding death, only explicit Advance calls.
	net := transport.NewInMem()
	clock := vtime.NewManual(time.Unix(0, 0))
	cfg := func(name string) Config {
		return Config{Name: name, Clock: clock, HeartbeatEvery: time.Second, FailAfter: 3 * time.Second, ReplyTimeout: time.Minute}
	}
	a, err := Found(net, "g", cfg("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := Join(net, "g", a.Addr(), cfg("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	eventually(t, "two-member view", func() bool { return a.View().Size() == 2 })
	b.Stop()
	// Advance past FailAfter in heartbeat steps; message deliveries run on
	// dispatcher goroutines, so give them a beat between advances.
	for i := 0; i < 10; i++ {
		clock.Advance(time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	eventually(t, "manual-clock detection", func() bool { return a.View().Size() == 1 })
}

func TestViewNumbersMonotonic(t *testing.T) {
	// Every installed view must carry a strictly larger number than its
	// predecessor at each member — across joins, crashes and failover.
	procs := newGroup(t, 5)
	var mu sync.Mutex
	last := map[int]int{}
	for i, p := range procs {
		i := i
		p.OnViewChange(func(v View) {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := last[i]; ok && v.Number <= prev {
				t.Errorf("member %d: view %d after %d", i, v.Number, prev)
			}
			last[i] = v.Number
		})
	}
	procs[4].Leave()
	procs[0].Stop() // leader crash
	eventually(t, "post-failover convergence", func() bool {
		return procs[1].IsLeader() && procs[1].View().Size() == 3
	})
}

// TestOutsiderPointToPointWithProcess is the execution program's path: a
// bare endpoint outside the group messages a member under its own kind and
// gets the member's Send back at its address.
func TestOutsiderPointToPointWithProcess(t *testing.T) {
	procs := newGroup(t, 2)
	outsider, err := transportOf(t, procs[0]).Endpoint("outsider")
	if err != nil {
		t.Fatal(err)
	}
	defer outsider.Close()
	got := make(chan string, 1)
	procs[0].HandlePoint("ping", func(from transport.Addr, payload []byte) {
		got <- string(payload)
		_ = procs[0].Send(from, "pong", []byte("back"))
	})
	reply := make(chan transport.Message, 1)
	outsider.Handle(func(msg transport.Message) { reply <- msg })
	if err := outsider.Send(procs[0].Addr(), "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "hello" {
			t.Fatalf("member got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member never received the outsider's message")
	}
	select {
	case msg := <-reply:
		if msg.Kind != "pong" || string(msg.Payload) != "back" || msg.From != procs[0].Addr() {
			t.Fatalf("outsider got %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outsider never received the reply")
	}
}
