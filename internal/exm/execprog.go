package exm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/isis"
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
	client *isis.Client
	// Contacts maps machine classes to a known daemon address per group.
	contacts map[arch.Class]transport.Addr
	// LocalRegistry runs LOCAL tasks on the user's workstation.
	localRegistry *Registry
	hub           *channel.Hub
	timeout       time.Duration

	mu      sync.Mutex
	reqSeq  uint64
	allocCh map[uint64]chan allocMsg
	availCh map[uint64]chan int
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
	client, err := isis.NewClient(net, cfg.Name)
	if err != nil {
		return nil, err
	}
	e := &ExecProgram{
		client:        client,
		contacts:      cfg.Contacts,
		localRegistry: cfg.LocalRegistry,
		hub:           cfg.Hub,
		timeout:       cfg.Timeout,
		allocCh:       make(map[uint64]chan allocMsg),
		availCh:       make(map[uint64]chan int),
		doneCh:        make(chan doneMsg, 1024),
	}
	client.HandlePoint(kindAlloc, e.onAlloc)
	client.HandlePoint(kindDone, e.onDone)
	client.HandlePoint(kindAvailRep, e.onAvailRep)
	return e, nil
}

// Close releases the endpoint.
func (e *ExecProgram) Close() { e.client.Close() }

func (e *ExecProgram) onAlloc(_ isis.MemberID, payload []byte) {
	var a allocMsg
	if decode(payload, &a) != nil {
		return
	}
	e.mu.Lock()
	ch := e.allocCh[a.ReqID]
	e.mu.Unlock()
	if ch != nil {
		ch <- a
	}
}

func (e *ExecProgram) onDone(_ isis.MemberID, payload []byte) {
	var d doneMsg
	if decode(payload, &d) == nil {
		e.doneCh <- d
	}
}

func (e *ExecProgram) onAvailRep(_ isis.MemberID, payload []byte) {
	var r availRepMsg
	if decode(payload, &r) != nil {
		return
	}
	e.mu.Lock()
	ch := e.availCh[r.ReqID]
	e.mu.Unlock()
	if ch != nil {
		ch <- r.Count
	}
}

// Avail queries a group's current size, implementing script.Env for
// conditional application descriptions.
func (e *ExecProgram) Avail(group string) int {
	class, ok := arch.GroupKeywords()[group]
	if !ok {
		return 0
	}
	contact, ok := e.contacts[class]
	if !ok {
		return 0
	}
	e.mu.Lock()
	e.reqSeq++
	id := e.reqSeq
	ch := make(chan int, 1)
	e.availCh[id] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.availCh, id)
		e.mu.Unlock()
	}()
	body, err := encode(availReqMsg{ReqID: id, ReplyTo: string(e.client.Addr())})
	if err != nil {
		return 0
	}
	if err := e.client.Send(contact, kindAvailReq, body); err != nil {
		return 0
	}
	select {
	case n := <-ch:
		return n
	case <-time.After(e.timeout):
		return 0
	}
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
			e.terminate(g.Name)
			return report, err
		}
		for _, id := range ready {
			done[id] = true
		}
	}
	e.terminate(g.Name)
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
				body, err := encode(execMsg{
					App: g.Name, Task: string(disp.task.ID), Program: disp.task.Program,
					Instance: inst, Copy: c, Files: disp.task.InputFiles,
					ReplyTo: string(e.client.Addr()),
				})
				if err != nil {
					return placements, err
				}
				addr := disp.addrs[slot%len(disp.addrs)]
				slot++
				if err := e.client.Send(transport.Addr(addr), kindExec, body); err != nil {
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
				e.killTask(g.Name, d.Task, d.Instance)
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
	body, err := encode(execMsg{
		App: app, Task: string(task.ID), Program: task.Program,
		Instance: pi.instance, Copy: pi.nextCopy, Files: task.InputFiles,
		ReplyTo: string(e.client.Addr()),
	})
	if err != nil {
		return false
	}
	if e.client.Send(transport.Addr(alloc.Machines[0]), kindExec, body) != nil {
		return false
	}
	pi.copies++
	return true
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
	e.mu.Lock()
	e.reqSeq++
	id := e.reqSeq
	ch := make(chan allocMsg, 1)
	e.allocCh[id] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.allocCh, id)
		e.mu.Unlock()
	}()
	body, err := encode(requestMsg{
		ReqID: id, App: app, Task: string(task.ID), Program: task.Program,
		Need: need, ReplyTo: string(e.client.Addr()),
	})
	if err != nil {
		return allocMsg{}, err
	}
	if err := e.client.Send(contact, kindRequest, body); err != nil {
		return allocMsg{}, fmt.Errorf("request to %s: %w", contact, err)
	}
	select {
	case a := <-ch:
		if a.Err != "" {
			return a, fmt.Errorf("%s", a.Err)
		}
		if len(a.Machines) < need {
			return a, fmt.Errorf("allocation returned %d machines, need %d", len(a.Machines), need)
		}
		return a, nil
	case <-time.After(e.timeout):
		return allocMsg{}, fmt.Errorf("allocation request timed out")
	}
}

// terminate broadcasts the app's termination to every known group contact —
// "the execution program notifies all machines working on the application to
// terminate" (§5).
func (e *ExecProgram) terminate(app string) {
	body, err := encode(killMsg{App: app, Instance: -1})
	if err != nil {
		return
	}
	for _, contact := range e.contacts {
		_ = e.client.Send(contact, kindKill, body)
	}
}

// killTask terminates one instance's redundant copies everywhere.
func (e *ExecProgram) killTask(app, task string, instance int) {
	body, err := encode(killMsg{App: app, Task: task, Instance: instance})
	if err != nil {
		return
	}
	for _, contact := range e.contacts {
		_ = e.client.Send(contact, kindKill, body)
	}
}
