package exm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/taskgraph"
	"vce/internal/transport"
)

// ExecProgram is the §5 execution program: "an execution program that
// executes applications on behalf of a local user." It follows the paper's
// execute() pseudocode — request resources per directive, abort on
// allocation error, ship execution info, start, wait for termination, then
// broadcast terminate — generalized to task graphs with precedence arcs
// (dispatched in ready-set waves; a script without arcs is one wave, exactly
// the prototype). Within a wave the user's hints set the dispatch order
// (orderReady).
type ExecProgram struct {
	// ep is the user's endpoint. The execution program is not a group
	// member: it talks to daemons with bare point messages.
	ep transport.Endpoint
	// Contacts maps machine classes to a known daemon address per group.
	contacts map[arch.Class]transport.Addr
	// LocalRegistry runs LOCAL tasks on the user's workstation.
	localRegistry *Registry
	hub           *channel.Hub
	timeout       time.Duration

	mu      sync.Mutex
	reqSeq  uint64
	waiting map[uint64]chan []byte // reply payloads, by request ID
	doneCh  chan doneMsg
}

// ExecConfig configures an execution program.
type ExecConfig struct {
	// Name labels the user's endpoint.
	Name string
	// Contacts gives one known daemon address per machine class group.
	Contacts map[arch.Class]transport.Addr
	// LocalRegistry resolves LOCAL task programs; may equal the shared
	// registry.
	LocalRegistry *Registry
	// Hub carries application channels for local tasks.
	Hub *channel.Hub
	// Timeout bounds each allocation and each wave of executions
	// (default 30s).
	Timeout time.Duration
}

// NewExecProgram creates the user-side endpoint.
func NewExecProgram(net transport.Network, cfg ExecConfig) (*ExecProgram, error) {
	if cfg.Name == "" {
		cfg.Name = "execprog"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Hub == nil {
		cfg.Hub = channel.NewHub()
	}
	ep, err := net.Endpoint(cfg.Name)
	if err != nil {
		return nil, err
	}
	e := &ExecProgram{
		ep:            ep,
		contacts:      cfg.Contacts,
		localRegistry: cfg.LocalRegistry,
		hub:           cfg.Hub,
		timeout:       cfg.Timeout,
		waiting:       make(map[uint64]chan []byte),
		doneCh:        make(chan doneMsg, 1024),
	}
	ep.Handle(e.onMessage)
	return e, nil
}

// Close releases the endpoint.
func (e *ExecProgram) Close() { e.ep.Close() }

// onMessage takes every reply a daemon sends the execution program.
func (e *ExecProgram) onMessage(msg transport.Message) {
	switch msg.Kind {
	case kindDone:
		var d doneMsg
		if decode(msg.Payload, &d) == nil {
			e.doneCh <- d
		}
	case kindAlloc, kindAvailRep:
		// Both answer one request and carry its ReqID (gob matches the
		// field by name): hand the body to whoever waits under that ID.
		// A reply nobody waits for any more (late, or a duplicate) is
		// dropped.
		var r struct{ ReqID uint64 }
		if decode(msg.Payload, &r) != nil {
			return
		}
		e.mu.Lock()
		ch := e.waiting[r.ReqID]
		e.mu.Unlock()
		select {
		case ch <- msg.Payload:
		default:
		}
	}
}

// ask sends one request and waits for its reply: req builds the request
// around a fresh ID, and the reply carrying that ID is decoded into reply.
func (e *ExecProgram) ask(to transport.Addr, kind string, req func(id uint64) any, reply any) error {
	ch := make(chan []byte, 1)
	e.mu.Lock()
	e.reqSeq++
	id := e.reqSeq
	e.waiting[id] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiting, id)
		e.mu.Unlock()
	}()
	body, err := encode(req(id))
	if err != nil {
		return err
	}
	if err := e.ep.Send(to, kind, body); err != nil {
		return fmt.Errorf("request to %s: %w", to, err)
	}
	select {
	case payload := <-ch:
		return decode(payload, reply)
	case <-time.After(e.timeout):
		return fmt.Errorf("%s to %s: no reply within %v", kind, to, e.timeout)
	}
}

// Avail queries the size of the group serving a machine class, implementing
// script.Env for conditional application descriptions. A class with no
// known group, or a group that does not answer, has none available.
func (e *ExecProgram) Avail(class arch.Class) int {
	contact, ok := e.contacts[class]
	if !ok {
		return 0
	}
	var r availRepMsg
	if e.ask(contact, kindAvailReq, func(id uint64) any { return availReqMsg{ReqID: id} }, &r) != nil {
		return 0
	}
	return r.Count
}

// Placement records where one task instance ran.
type Placement struct {
	// Task and Instance identify the placed work; Copy > 0 marks a
	// redundant copy.
	Task     taskgraph.TaskID
	Instance int
	Copy     int
	// Machine is the executing machine's name ("local" for LOCAL tasks).
	Machine string
	// Err is the instance's failure, if any.
	Err string
	// Elapsed is the wall time from dispatch to completion.
	Elapsed time.Duration
}

// RunReport summarizes one application execution.
type RunReport struct {
	// App is the application name.
	App string
	// Placements lists every instance execution.
	Placements []Placement
	// Waves is the number of dispatch rounds (1 for arc-free scripts).
	Waves int
	// Elapsed is total wall time.
	Elapsed time.Duration
}

// MachinesUsed returns the distinct machine names that hosted instances.
func (r *RunReport) MachinesUsed() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range r.Placements {
		if !seen[p.Machine] {
			seen[p.Machine] = true
			out = append(out, p.Machine)
		}
	}
	return out
}

// Run executes an application described by an annotated task graph.
func (e *ExecProgram) Run(g *taskgraph.Graph) (*RunReport, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	report := &RunReport{App: g.Name}
	done := make(map[taskgraph.TaskID]bool)
	started := make(map[taskgraph.TaskID]bool)
	for g.Len() > len(done) {
		ready := g.Ready(done, started)
		if len(ready) == 0 {
			return report, fmt.Errorf("exm: no dispatchable tasks with %d/%d complete", len(done), g.Len())
		}
		report.Waves++
		orderReady(g, ready)
		placements, err := e.runWave(g, ready)
		report.Placements = append(report.Placements, placements...)
		if err != nil {
			e.kill(killMsg{App: g.Name, Instance: -1})
			return report, err
		}
		for _, id := range ready {
			done[id] = true
		}
	}
	e.kill(killMsg{App: g.Name, Instance: -1})
	report.Elapsed = time.Since(start)
	return report, nil
}

// orderReady sorts one ready set into dispatch order, the §3.1.1
// optimization: "dispatching of the longer job can be given higher priority
// so opportunities for parallel execution will be maximized." Higher
// Hint.Priority goes first, then the longer expected runtime (the RUNTIME
// hint, else WorkUnits seconds); ties keep graph order. A wave is one
// precedence depth, so the order never crosses an arc.
func orderReady(g *taskgraph.Graph, ready []taskgraph.TaskID) {
	expected := func(t taskgraph.Task) time.Duration {
		if t.Hint.ExpectedRuntime > 0 {
			return t.Hint.ExpectedRuntime
		}
		return time.Duration(t.WorkUnits * float64(time.Second))
	}
	sort.SliceStable(ready, func(i, j int) bool {
		a, _ := g.Task(ready[i])
		b, _ := g.Task(ready[j])
		if a.Hint.Priority != b.Hint.Priority {
			return a.Hint.Priority > b.Hint.Priority
		}
		return expected(a) > expected(b)
	})
}

// pendingInstance tracks one dispatched instance awaiting completion.
type pendingInstance struct {
	task      taskgraph.TaskID
	instance  int
	copies    int
	retries   int
	nextCopy  int
	completed bool
}

// runWave allocates, dispatches and awaits one ready set.
func (e *ExecProgram) runWave(g *taskgraph.Graph, ready []taskgraph.TaskID) ([]Placement, error) {
	type dispatch struct {
		task  taskgraph.Task
		addrs []string
		names []string
	}
	var remote []dispatch
	var local []taskgraph.Task

	// Phase 1: resource requests, one per remote task (§5: read line,
	// send request, receive reply, abort on AllocError).
	for _, id := range ready {
		task, _ := g.Task(id)
		if task.Local {
			local = append(local, task)
			continue
		}
		copies := 1
		if task.Hint.Redundant > 1 {
			copies = task.Hint.Redundant
		}
		need := task.Instances() * copies
		alloc, err := e.requestMachines(g.Name, task, need)
		if err != nil {
			return nil, fmt.Errorf("exm: allocating %q: %w", id, err)
		}
		remote = append(remote, dispatch{task: task, addrs: alloc.Machines, names: alloc.Names})
	}

	// Phase 2: ship execution info and start everything.
	waveStart := time.Now()
	expected := make(map[instanceKey]*pendingInstance)
	taskByName := make(map[string]taskgraph.Task, len(remote))
	var placements []Placement
	for _, disp := range remote {
		taskByName[string(disp.task.ID)] = disp.task
		copies := 1
		if disp.task.Hint.Redundant > 1 {
			copies = disp.task.Hint.Redundant
		}
		n := disp.task.Instances()
		slot := 0
		for inst := 0; inst < n; inst++ {
			expected[instanceKey{app: g.Name, task: string(disp.task.ID), instance: inst}] = &pendingInstance{
				task: disp.task.ID, instance: inst, copies: copies,
				retries: disp.task.Hint.Retries, nextCopy: copies - 1,
			}
			for c := 0; c < copies; c++ {
				addr := disp.addrs[slot%len(disp.addrs)]
				slot++
				if err := e.exec(transport.Addr(addr), g.Name, disp.task, inst, c); err != nil {
					return placements, fmt.Errorf("exm: dispatching %s[%d]: %w", disp.task.ID, inst, err)
				}
			}
		}
	}

	// Local tasks run on the user's workstation, "after the remote
	// executions have begun" (§5).
	localErr := make(chan Placement, len(local))
	for _, task := range local {
		task := task
		go func() {
			p := Placement{Task: task.ID, Machine: "local"}
			t0 := time.Now()
			if e.localRegistry == nil {
				p.Err = "no local registry"
			} else if prog, ok := e.localRegistry.Lookup(task.Program); !ok {
				p.Err = fmt.Sprintf("no local program %q", task.Program)
			} else if err := prog(ProgContext{App: g.Name, Task: string(task.ID), Machine: "local", Hub: e.hub, Cancel: make(chan struct{})}); err != nil {
				p.Err = err.Error()
			}
			p.Elapsed = time.Since(t0)
			localErr <- p
		}()
	}

	// Phase 3: wait for termination of the wave.
	needed := len(expected)
	deadline := time.After(e.timeout)
	for completedCount := 0; completedCount < needed; {
		select {
		case d := <-e.doneCh:
			if d.App != g.Name {
				continue
			}
			key := instanceKey{app: d.App, task: d.Task, instance: d.Instance}
			pi, ok := expected[key]
			if !ok {
				continue
			}
			if d.Err != "" {
				// A failed copy only fails the instance when no
				// redundant copy remains.
				pi.copies--
				if pi.copies > 0 || pi.completed {
					continue
				}
				// Retry-based fault tolerance (§3.1.2, ONFAIL):
				// re-request a machine and dispatch a fresh copy.
				if pi.retries > 0 {
					pi.retries--
					if e.redispatchInstance(g.Name, taskByName[d.Task], pi) {
						continue
					}
				}
				placements = append(placements, Placement{
					Task: pi.task, Instance: d.Instance, Copy: d.Copy,
					Machine: d.Machine, Err: d.Err, Elapsed: time.Since(waveStart),
				})
				return placements, fmt.Errorf("exm: task %s[%d] failed on %s: %s", d.Task, d.Instance, d.Machine, d.Err)
			}
			if pi.completed {
				continue // a slower redundant copy; ignore
			}
			pi.completed = true
			completedCount++
			placements = append(placements, Placement{
				Task: pi.task, Instance: d.Instance, Copy: d.Copy,
				Machine: d.Machine, Elapsed: time.Since(waveStart),
			})
			if pi.copies > 1 {
				// First copy wins: kill the redundant ones
				// ("kill the incarnation of the redundant task",
				// §4.4).
				e.kill(killMsg{App: g.Name, Task: d.Task, Instance: d.Instance})
			}
		case <-deadline:
			return placements, fmt.Errorf("exm: wave timed out: %d/%d instances complete", completedCount, needed)
		}
	}
	for range local {
		p := <-localErr
		placements = append(placements, p)
		if p.Err != "" {
			return placements, fmt.Errorf("exm: local task %s: %s", p.Task, p.Err)
		}
	}
	return placements, nil
}

// redispatchInstance re-runs a failed instance on a freshly allocated
// machine; it reports whether the retry was dispatched.
func (e *ExecProgram) redispatchInstance(app string, task taskgraph.Task, pi *pendingInstance) bool {
	if task.ID == "" {
		return false
	}
	alloc, err := e.requestMachines(app, task, 1)
	if err != nil || len(alloc.Machines) == 0 {
		return false
	}
	pi.nextCopy++
	if e.exec(transport.Addr(alloc.Machines[0]), app, task, pi.instance, pi.nextCopy) != nil {
		return false
	}
	pi.copies++
	return true
}

// exec ships one copy of one task instance to a daemon, which reports its
// completion back to this endpoint.
func (e *ExecProgram) exec(to transport.Addr, app string, task taskgraph.Task, instance, copyIdx int) error {
	body, err := encode(execMsg{
		App: app, Task: string(task.ID), Program: task.Program,
		Instance: instance, Copy: copyIdx, Files: task.InputFiles,
	})
	if err != nil {
		return err
	}
	return e.ep.Send(to, kindExec, body)
}

// requestMachines performs the Figure 3 request/reply with a group leader.
func (e *ExecProgram) requestMachines(app string, task taskgraph.Task, need int) (allocMsg, error) {
	if len(task.Requirements.Classes) == 0 {
		return allocMsg{}, fmt.Errorf("task %q has no machine classes", task.ID)
	}
	var contact transport.Addr
	var found bool
	for _, class := range task.Requirements.Classes {
		if c, ok := e.contacts[class]; ok {
			contact, found = c, true
			break
		}
	}
	if !found {
		return allocMsg{}, fmt.Errorf("no group contact for classes %v", task.Requirements.Classes)
	}
	var a allocMsg
	err := e.ask(contact, kindRequest, func(id uint64) any {
		return requestMsg{
			ReqID: id, App: app, Task: string(task.ID), Program: task.Program,
			Need: need, ReplyTo: e.ep.Addr(),
		}
	}, &a)
	if err != nil {
		return allocMsg{}, err
	}
	if a.Err != "" {
		return a, fmt.Errorf("%s", a.Err)
	}
	if len(a.Machines) < need {
		return a, fmt.Errorf("allocation returned %d machines, need %d", len(a.Machines), need)
	}
	return a, nil
}

// kill sends k to one known daemon of every group, which relays it to its
// whole group: "the execution program notifies all machines working on the
// application to terminate" (§5).
func (e *ExecProgram) kill(k killMsg) {
	body, err := encode(k)
	if err != nil {
		return
	}
	for _, contact := range e.contacts {
		_ = e.ep.Send(contact, kindKill, body)
	}
}
