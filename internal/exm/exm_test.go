package exm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/isis"
	"vce/internal/taskgraph"
	"vce/internal/transport"
	"vce/internal/vfs"
)

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

// cluster is a live in-memory VCE: one workstation group of n daemons plus a
// shared registry and hub.
type cluster struct {
	net      *transport.InMem
	registry *Registry
	hub      *channel.Hub
	daemons  []*Daemon
	loads    []float64 // mutable per-daemon base loads
	mu       sync.Mutex
}

func (c *cluster) setLoad(i int, v float64) {
	c.mu.Lock()
	c.loads[i] = v
	c.mu.Unlock()
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	return newClusterReplyTimeout(t, n, 300*time.Millisecond)
}

// newClusterReplyTimeout is newCluster with the members' cast reply timeout
// set to d.
func newClusterReplyTimeout(t *testing.T, n int, d time.Duration) *cluster {
	t.Helper()
	c := &cluster{
		net:      transport.NewInMem(),
		registry: NewRegistry(),
		hub:      channel.NewHub(),
		loads:    make([]float64, n),
	}
	isisCfg := isis.Config{
		HeartbeatEvery: 25 * time.Millisecond,
		FailAfter:      500 * time.Millisecond,
		ReplyTimeout:   d,
	}
	var contact transport.Addr
	for i := 0; i < n; i++ {
		i := i
		cfg := DaemonConfig{
			Machine: arch.Machine{
				Name: fmt.Sprintf("ws%d", i), Class: arch.Workstation,
				Speed: 1, OS: "unix", MemoryMB: 64,
			},
			Registry: c.registry,
			Hub:      c.hub,
			BaseLoad: func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.loads[i]
			},
			MaxTasks: 4,
			Isis:     isisCfg,
		}
		cfg.Isis.Name = cfg.Machine.Name
		d, err := StartDaemon(c.net, "WORKSTATION", contact, cfg)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if i == 0 {
			contact = d.Addr()
		}
		c.daemons = append(c.daemons, d)
	}
	for _, d := range c.daemons {
		d := d
		eventually(t, "group formation", func() bool { return d.GroupSize() == n })
	}
	t.Cleanup(func() {
		for _, d := range c.daemons {
			d.Stop()
		}
	})
	return c
}

func (c *cluster) execProgram(t *testing.T) *ExecProgram {
	t.Helper()
	e, err := NewExecProgram(c.net, ExecConfig{
		Name:          fmt.Sprintf("exec-%p", t),
		Contacts:      map[arch.Class]transport.Addr{arch.Workstation: c.daemons[0].Addr()},
		LocalRegistry: c.registry,
		Hub:           c.hub,
		Timeout:       8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func wsGraph(t *testing.T, name string, tasks ...taskgraph.Task) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New(name)
	for _, task := range tasks {
		if len(task.Requirements.Classes) == 0 {
			task.Requirements.Classes = []arch.Class{arch.Workstation}
		}
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBiddingSelectsLeastLoaded(t *testing.T) {
	c := newCluster(t, 4)
	c.setLoad(0, 0.8)
	c.setLoad(1, 0.1) // least loaded: should win the bid
	c.setLoad(2, 0.5)
	c.setLoad(3, 0.9)
	var ran atomic.Value
	if err := c.registry.Register("/apps/one.vce", func(ctx ProgContext) error {
		ran.Store(ctx.Machine)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	report, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "one", Program: "/apps/one.vce"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Placements) != 1 || report.Placements[0].Machine != "ws1" {
		t.Fatalf("placements = %+v, want ws1 (least loaded)", report.Placements)
	}
	if got := ran.Load(); got != "ws1" {
		t.Fatalf("program ran on %v", got)
	}
}

func TestMultiInstanceSpreadAcrossBidders(t *testing.T) {
	c := newCluster(t, 3)
	var mu sync.Mutex
	machines := map[string]int{}
	if err := c.registry.Register("/apps/collector.vce", func(ctx ProgContext) error {
		mu.Lock()
		machines[ctx.Machine]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	g := wsGraph(t, "spread", taskgraph.Task{ID: "collector", Program: "/apps/collector.vce", MinInstances: 3})
	report, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Placements) != 3 {
		t.Fatalf("placements = %+v", report.Placements)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(machines) < 2 {
		t.Fatalf("3 instances ran on %v; expected spreading across bidders", machines)
	}
}

func TestAllocationErrorWhenInsufficient(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.registry.Register("/apps/x.vce", func(ProgContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	// 2 daemons * 4 slots = 8 max; ask for 9.
	g := wsGraph(t, "big", taskgraph.Task{ID: "x", Program: "/apps/x.vce", MinInstances: 9})
	if _, err := e.Run(g); err == nil {
		t.Fatal("over-subscription did not produce an allocation error")
	}
}

func TestOverloadedDaemonsDecline(t *testing.T) {
	c := newCluster(t, 3)
	// Two daemons excessively loaded: only ws2 may bid.
	c.setLoad(0, 5.0)
	c.setLoad(1, 5.0)
	var ran atomic.Value
	if err := c.registry.Register("/apps/y.vce", func(ctx ProgContext) error {
		ran.Store(ctx.Machine)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	report, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "y", Program: "/apps/y.vce"}))
	if err != nil {
		t.Fatal(err)
	}
	if report.Placements[0].Machine != "ws2" {
		t.Fatalf("placed on %s; overloaded daemons must not bid", report.Placements[0].Machine)
	}
}

// TestDecliningDaemonDoesNotStallAllocation: a daemon that will not bid
// still answers the leader's cast, so an allocation request is served as
// soon as every member has replied, not after the reply timeout.
func TestDecliningDaemonDoesNotStallAllocation(t *testing.T) {
	c := newClusterReplyTimeout(t, 3, 10*time.Second)
	c.setLoad(1, 5.0) // excessively loaded: declines to bid
	if err := c.registry.Register("/apps/w.vce", func(ProgContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	start := time.Now()
	report, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "w", Program: "/apps/w.vce"}))
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 2*time.Second {
		t.Fatalf("allocation took %v with one daemon declining; the leader waited out its reply timeout", took)
	}
	if m := report.Placements[0].Machine; m == "ws1" {
		t.Fatalf("placed on %s, the daemon that declined", m)
	}
	if n := c.daemons[1].BidsSent(); n != 0 {
		t.Fatalf("declining daemon counted %d bids", n)
	}
}

func TestAllOverloadedIsAllocError(t *testing.T) {
	c := newCluster(t, 2)
	c.setLoad(0, 5.0)
	c.setLoad(1, 5.0)
	if err := c.registry.Register("/apps/z.vce", func(ProgContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "z", Program: "/apps/z.vce"})); err == nil {
		t.Fatal("fully loaded group accepted work")
	}
}

func TestRequestViaNonLeaderIsForwarded(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.registry.Register("/apps/f.vce", func(ProgContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecProgram(c.net, ExecConfig{
		Name: "exec-fwd",
		// Contact a non-leader daemon; the request must still be served.
		Contacts:      map[arch.Class]transport.Addr{arch.Workstation: c.daemons[2].Addr()},
		LocalRegistry: c.registry,
		Timeout:       8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(wsGraph(t, "fwd", taskgraph.Task{ID: "f", Program: "/apps/f.vce"})); err != nil {
		t.Fatalf("request via non-leader failed: %v", err)
	}
}

func TestPrecedenceWaves(t *testing.T) {
	c := newCluster(t, 2)
	var mu sync.Mutex
	var order []string
	record := func(name string) Program {
		return func(ProgContext) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	_ = c.registry.Register("/apps/first.vce", record("first"))
	_ = c.registry.Register("/apps/second.vce", record("second"))
	g := wsGraph(t, "pipeline",
		taskgraph.Task{ID: "first", Program: "/apps/first.vce"},
		taskgraph.Task{ID: "second", Program: "/apps/second.vce"},
	)
	if err := g.AddArc(taskgraph.Arc{From: "first", To: "second", Kind: taskgraph.Precedence}); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	report, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if report.Waves != 2 {
		t.Fatalf("waves = %d, want 2", report.Waves)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("execution order = %v", order)
	}
}

// sendLog wraps a network and records, in send order, the resource requests
// and exec dispatches its endpoints send, as "request <task>" / "exec <task>".
type sendLog struct {
	transport.Network
	mu   sync.Mutex
	sent []string
}

func (l *sendLog) Endpoint(name string) (transport.Endpoint, error) {
	ep, err := l.Network.Endpoint(name)
	if err != nil {
		return nil, err
	}
	return loggedEndpoint{ep, l}, nil
}

type loggedEndpoint struct {
	transport.Endpoint
	log *sendLog
}

func (e loggedEndpoint) Send(to transport.Addr, kind string, payload []byte) error {
	// Both kinds' bodies name the task; gob matches the field by name.
	var body struct{ Task string }
	if (kind == kindRequest || kind == kindExec) && decode(payload, &body) == nil {
		e.log.add(strings.TrimPrefix(kind, "exm.") + " " + body.Task)
	}
	return e.Endpoint.Send(to, kind, payload)
}

func (l *sendLog) add(entry string) {
	l.mu.Lock()
	l.sent = append(l.sent, entry)
	l.mu.Unlock()
}

// dispatchOrder runs g on a one-daemon cluster and returns the order in
// which the execution program requested machines for, and dispatched, each
// task.
func dispatchOrder(t *testing.T, g *taskgraph.Graph) []string {
	t.Helper()
	c := newCluster(t, 1)
	for _, task := range g.Tasks() {
		_ = c.registry.Register(task.Program, func(ProgContext) error { return nil })
	}
	log := &sendLog{Network: c.net}
	e, err := NewExecProgram(log, ExecConfig{
		Contacts: map[arch.Class]transport.Addr{arch.Workstation: c.daemons[0].Addr()},
		Timeout:  8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(g); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return log.sent
}

func wantOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %q, want %q", got, want)
	}
}

// §3.1.1: of functionally parallel modules, the one expected to run longest
// is dispatched first. The long task comes second in the script, and its
// runtime comes from the RUNTIME hint on one side and WorkUnits on the other.
func TestWaveRequestsLongerRuntimeFirst(t *testing.T) {
	g := wsGraph(t, "par",
		taskgraph.Task{ID: "short1", Program: "/apps/short1.vce", Hint: taskgraph.Hints{ExpectedRuntime: time.Minute}},
		taskgraph.Task{ID: "long", Program: "/apps/long.vce", Hint: taskgraph.Hints{ExpectedRuntime: time.Hour}},
		taskgraph.Task{ID: "short2", Program: "/apps/short2.vce", WorkUnits: 120},
	)
	wantOrder(t, dispatchOrder(t, g),
		"request long", "request short2", "request short1",
		"exec long", "exec short2", "exec short1")
}

// An explicit PRIORITY outranks any runtime estimate.
func TestWavePriorityBeatsRuntime(t *testing.T) {
	g := wsGraph(t, "prio",
		taskgraph.Task{ID: "long", Program: "/apps/long.vce", Hint: taskgraph.Hints{ExpectedRuntime: time.Hour}},
		taskgraph.Task{ID: "boosted", Program: "/apps/boosted.vce", Hint: taskgraph.Hints{ExpectedRuntime: time.Minute, Priority: 1}},
	)
	wantOrder(t, dispatchOrder(t, g),
		"request boosted", "request long", "exec boosted", "exec long")
}

// Equal hints keep graph order, and the order never crosses a precedence
// arc: a longer task that depends on a shorter one still waits its wave.
func TestWaveTiesKeepGraphOrder(t *testing.T) {
	g := wsGraph(t, "ties",
		taskgraph.Task{ID: "b", Program: "/apps/b.vce", WorkUnits: 10},
		taskgraph.Task{ID: "a", Program: "/apps/a.vce", WorkUnits: 10},
		taskgraph.Task{ID: "after", Program: "/apps/after.vce", WorkUnits: 1000},
	)
	if err := g.AddArc(taskgraph.Arc{From: "a", To: "after", Kind: taskgraph.Precedence}); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, dispatchOrder(t, g),
		"request b", "request a", "exec b", "exec a",
		"request after", "exec after")
}

func TestLocalTaskRunsLocally(t *testing.T) {
	c := newCluster(t, 2)
	var localRan atomic.Bool
	_ = c.registry.Register("/apps/display.vce", func(ctx ProgContext) error {
		if ctx.Machine == "local" {
			localRan.Store(true)
		}
		return nil
	})
	e := c.execProgram(t)
	g := wsGraph(t, "snow", taskgraph.Task{ID: "display", Program: "/apps/display.vce", Local: true})
	report, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !localRan.Load() {
		t.Fatal("LOCAL task did not run on the user's workstation")
	}
	if report.Placements[0].Machine != "local" {
		t.Fatalf("placement = %+v", report.Placements[0])
	}
}

func TestTaskFailurePropagates(t *testing.T) {
	c := newCluster(t, 2)
	_ = c.registry.Register("/apps/bad.vce", func(ProgContext) error {
		return fmt.Errorf("segfault")
	})
	e := c.execProgram(t)
	_, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "bad", Program: "/apps/bad.vce"}))
	if err == nil {
		t.Fatal("failing task reported success")
	}
}

func TestUnknownProgramFails(t *testing.T) {
	c := newCluster(t, 2)
	e := c.execProgram(t)
	_, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "ghost", Program: "/apps/ghost.vce"}))
	if err == nil {
		t.Fatal("unknown program accepted")
	}
}

func TestRedundantExecutionFirstCopyWins(t *testing.T) {
	c := newCluster(t, 3)
	var starts atomic.Int64
	var kills atomic.Int64
	_ = c.registry.Register("/apps/red.vce", func(ctx ProgContext) error {
		starts.Add(1)
		if ctx.Copy == 0 {
			return nil // primary finishes immediately
		}
		select { // redundant copies linger until killed
		case <-ctx.Cancel:
			kills.Add(1)
			return nil
		case <-time.After(8 * time.Second):
			return nil
		}
	})
	task := taskgraph.Task{ID: "red", Program: "/apps/red.vce", Hint: taskgraph.Hints{Redundant: 3}}
	e := c.execProgram(t)
	report, err := e.Run(wsGraph(t, "app", task))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Placements) != 1 {
		t.Fatalf("placements = %+v", report.Placements)
	}
	eventually(t, "all copies started", func() bool { return starts.Load() == 3 })
	eventually(t, "redundant copies killed", func() bool { return kills.Load() == 2 })
}

func TestTerminateKillsLingerersOnAllMachines(t *testing.T) {
	c := newCluster(t, 3)
	var cancelled atomic.Int64
	_ = c.registry.Register("/apps/fast.vce", func(ProgContext) error { return nil })
	_ = c.registry.Register("/apps/slow.vce", func(ctx ProgContext) error {
		select {
		case <-ctx.Cancel:
			cancelled.Add(1)
		case <-time.After(8 * time.Second):
		}
		return nil
	})
	// Run an app whose graph fails at wave 2, leaving wave-1 lingerers.
	g := wsGraph(t, "mixed",
		taskgraph.Task{ID: "slow", Program: "/apps/slow.vce", MinInstances: 2},
	)
	e := c.execProgram(t)
	// The slow tasks never finish: the wave times out, Run terminates the
	// app, and the daemons must cancel them.
	eShort, err := NewExecProgram(c.net, ExecConfig{
		Name:          "exec-short",
		Contacts:      map[arch.Class]transport.Addr{arch.Workstation: c.daemons[0].Addr()},
		LocalRegistry: c.registry,
		Timeout:       300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eShort.Close()
	_ = e
	if _, err := eShort.Run(g); err == nil {
		t.Fatal("hung wave reported success")
	}
	eventually(t, "lingerers cancelled", func() bool { return cancelled.Load() == 2 })
}

func TestLeaderFailoverDuringOperationNewRequestsServed(t *testing.T) {
	c := newCluster(t, 3)
	_ = c.registry.Register("/apps/ok.vce", func(ProgContext) error { return nil })
	// Kill the leader.
	c.daemons[0].Stop()
	eventually(t, "failover", func() bool { return c.daemons[1].IsLeader() })
	// New execution program contacts a surviving daemon.
	e, err := NewExecProgram(c.net, ExecConfig{
		Name:          "exec-after-failover",
		Contacts:      map[arch.Class]transport.Addr{arch.Workstation: c.daemons[1].Addr()},
		LocalRegistry: c.registry,
		Timeout:       8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	report, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "ok", Program: "/apps/ok.vce"}))
	if err != nil {
		t.Fatalf("post-failover run failed: %v", err)
	}
	if len(report.Placements) != 1 {
		t.Fatalf("placements = %+v", report.Placements)
	}
}

func TestAvailQuery(t *testing.T) {
	c := newCluster(t, 3)
	e := c.execProgram(t)
	if n := e.Avail(arch.Workstation); n != 3 {
		t.Fatalf("Avail = %d, want 3", n)
	}
	if n := e.Avail(arch.SIMD); n != 0 {
		t.Fatalf("Avail(SIMD) = %d, want 0 (no contact)", n)
	}
}

func TestConcurrentExecutionPrograms(t *testing.T) {
	// §5: "If several execution programs have requests outstanding at the
	// same time, Isis will construct different threads for each request."
	c := newCluster(t, 4)
	var count atomic.Int64
	_ = c.registry.Register("/apps/c.vce", func(ProgContext) error {
		count.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	const submitters = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := NewExecProgram(c.net, ExecConfig{
				Name:          fmt.Sprintf("exec-conc-%d", i),
				Contacts:      map[arch.Class]transport.Addr{arch.Workstation: c.daemons[0].Addr()},
				LocalRegistry: c.registry,
				Timeout:       8 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			defer e.Close()
			g := wsGraph(t, fmt.Sprintf("app%d", i), taskgraph.Task{ID: "c", Program: "/apps/c.vce", MinInstances: 2})
			if _, err := e.Run(g); err != nil {
				errs <- fmt.Errorf("submitter %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if count.Load() != submitters*2 {
		t.Fatalf("instances run = %d, want %d", count.Load(), submitters*2)
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", func(ProgContext) error { return nil }); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := r.Register("/x", nil); err == nil {
		t.Fatal("nil program accepted")
	}
	if err := r.Register("/x", func(ProgContext) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("/x", func(ProgContext) error { return nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, ok := r.Lookup("/x"); !ok {
		t.Fatal("lookup failed")
	}
	if len(r.progs) != 1 {
		t.Fatal("paths wrong")
	}
}

func TestChannelCommunicationBetweenTasks(t *testing.T) {
	// Producer and consumer communicate over a VCE channel while both run
	// on (possibly) different machines of the group.
	c := newCluster(t, 2)
	result := make(chan string, 1)
	_ = c.registry.Register("/apps/producer.vce", func(ctx ProgContext) error {
		port, err := ctx.Hub.Channel("pipe").CreatePort("producer")
		if err != nil {
			return err
		}
		// Wait for the consumer to connect, then send.
		for i := 0; i < 1000; i++ {
			if len(ctx.Hub.Channel("pipe").Ports()) >= 2 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return port.Send([]byte("42"))
	})
	_ = c.registry.Register("/apps/consumer.vce", func(ctx ProgContext) error {
		port, err := ctx.Hub.Channel("pipe").CreatePort("consumer")
		if err != nil {
			return err
		}
		m, ok := port.Recv()
		if !ok {
			return fmt.Errorf("channel closed")
		}
		result <- string(m.Payload)
		return nil
	})
	g := wsGraph(t, "pipe",
		taskgraph.Task{ID: "producer", Program: "/apps/producer.vce"},
		taskgraph.Task{ID: "consumer", Program: "/apps/consumer.vce"},
	)
	if err := g.AddArc(taskgraph.Arc{From: "producer", To: "consumer", Kind: taskgraph.Stream, Channel: "pipe"}); err != nil {
		t.Fatal(err)
	}
	e := c.execProgram(t)
	if _, err := e.Run(g); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-result:
		if v != "42" {
			t.Fatalf("consumer got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never received")
	}
}

func TestRetryFaultTolerance(t *testing.T) {
	c := newCluster(t, 3)
	var attempts atomic.Int64
	// Fails twice, succeeds on the third dispatch.
	_ = c.registry.Register("/apps/flaky.vce", func(ctx ProgContext) error {
		if attempts.Add(1) <= 2 {
			return fmt.Errorf("transient crash %d", attempts.Load())
		}
		return nil
	})
	task := taskgraph.Task{ID: "flaky", Program: "/apps/flaky.vce",
		Hint: taskgraph.Hints{Retries: 2}}
	e := c.execProgram(t)
	report, err := e.Run(wsGraph(t, "app", task))
	if err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
	if len(report.Placements) != 1 {
		t.Fatalf("placements = %+v", report.Placements)
	}
}

func TestRetriesExhaustedFails(t *testing.T) {
	c := newCluster(t, 2)
	var attempts atomic.Int64
	_ = c.registry.Register("/apps/dead.vce", func(ProgContext) error {
		attempts.Add(1)
		return fmt.Errorf("permanent failure")
	})
	task := taskgraph.Task{ID: "dead", Program: "/apps/dead.vce",
		Hint: taskgraph.Hints{Retries: 2}}
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", task)); err == nil {
		t.Fatal("permanently failing task reported success")
	}
	if attempts.Load() != 3 { // initial + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts.Load())
	}
}

func TestNoRetryByDefault(t *testing.T) {
	c := newCluster(t, 2)
	var attempts atomic.Int64
	_ = c.registry.Register("/apps/once.vce", func(ProgContext) error {
		attempts.Add(1)
		return fmt.Errorf("boom")
	})
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", taskgraph.Task{ID: "once", Program: "/apps/once.vce"})); err == nil {
		t.Fatal("failure swallowed")
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries requested)", attempts.Load())
	}
}

func TestInputFileStagingAtDispatch(t *testing.T) {
	c := newCluster(t, 2)
	fs := vfs.New()
	for _, d := range c.daemons {
		d.cfg.FS = fs
	}
	if err := fs.Create("/data/in.dat", 4096, "archive"); err != nil {
		t.Fatal(err)
	}
	var ranOn atomic.Value
	_ = c.registry.Register("/apps/staged.vce", func(ctx ProgContext) error {
		ranOn.Store(ctx.Machine)
		return nil
	})
	task := taskgraph.Task{ID: "staged", Program: "/apps/staged.vce",
		InputFiles: []string{"/data/in.dat"}}
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", task)); err != nil {
		t.Fatal(err)
	}
	machine := ranOn.Load().(string)
	if !fs.HasReplica("/data/in.dat", machine) {
		t.Fatalf("input not staged at %s", machine)
	}
	var staged int64
	for _, d := range c.daemons {
		staged += d.StagedBytes()
	}
	if staged != 4096 {
		t.Fatalf("staged bytes = %d, want 4096", staged)
	}
}

func TestMissingInputFileFailsDispatch(t *testing.T) {
	c := newCluster(t, 2)
	fs := vfs.New()
	for _, d := range c.daemons {
		d.cfg.FS = fs
	}
	_ = c.registry.Register("/apps/needsfile.vce", func(ProgContext) error { return nil })
	task := taskgraph.Task{ID: "needsfile", Program: "/apps/needsfile.vce",
		InputFiles: []string{"/data/ghost.dat"}}
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", task)); err == nil {
		t.Fatal("dispatch with missing input succeeded")
	}
}

func TestAnticipatoryReplicaMakesStagingFree(t *testing.T) {
	c := newCluster(t, 2)
	fs := vfs.New()
	for _, d := range c.daemons {
		d.cfg.FS = fs
	}
	if err := fs.Create("/data/in.dat", 1<<20, "archive"); err != nil {
		t.Fatal(err)
	}
	// Anticipatory replication to every candidate machine (§4.5).
	for _, d := range c.daemons {
		if _, err := fs.Replicate("/data/in.dat", d.MachineName()); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.registry.Register("/apps/warm.vce", func(ProgContext) error { return nil })
	task := taskgraph.Task{ID: "warm", Program: "/apps/warm.vce",
		InputFiles: []string{"/data/in.dat"}}
	e := c.execProgram(t)
	if _, err := e.Run(wsGraph(t, "app", task)); err != nil {
		t.Fatal(err)
	}
	var staged int64
	for _, d := range c.daemons {
		staged += d.StagedBytes()
	}
	if staged != 0 {
		t.Fatalf("staged bytes = %d, want 0 (replicas pre-placed)", staged)
	}
}
