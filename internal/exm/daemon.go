package exm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/isis"
	"vce/internal/sched"
	"vce/internal/transport"
	"vce/internal/vfs"
)

// DaemonConfig configures one scheduling/dispatching daemon.
type DaemonConfig struct {
	// Machine describes the hosting hardware.
	Machine arch.Machine
	// Registry resolves program paths. Required.
	Registry *Registry
	// Hub carries application channels; daemons in one process share it
	// (the in-memory stand-in for the LAN the tasks talk over).
	Hub *channel.Hub
	// FS is the shared distributed file system; when set, the daemon
	// stages each instance's input files to this machine before launch
	// (and anticipatory replication pre-empts that cost, §4.5). Nil
	// disables staging.
	FS *vfs.FS
	// BaseLoad reports the machine's local (non-VCE) load; nil means 0.
	BaseLoad func() float64
	// MaxTasks bounds concurrent VCE instances; 0 means 4.
	MaxTasks int
	// OverloadThreshold is the load above which the daemon declines to
	// bid ("not already excessively loaded", §5). 0 means 2.0.
	OverloadThreshold float64
	// Isis tunes the underlying group process.
	Isis isis.Config
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.MaxTasks <= 0 {
		c.MaxTasks = 4
	}
	if c.OverloadThreshold <= 0 {
		c.OverloadThreshold = 2.0
	}
	if c.Hub == nil {
		c.Hub = channel.NewHub()
	}
	return c
}

// Daemon is the VCE daemon of §5: it "contributes to global scheduling and
// remote execution functions", bids for work, hosts instances, and serves as
// group leader when it is the oldest surviving member.
type Daemon struct {
	cfg  DaemonConfig
	proc *isis.Process

	mu      sync.Mutex
	running map[instanceKey]*instance

	// Counters for experiments.
	bidsSent    atomic.Int64
	stagedBytes atomic.Int64
}

// StagedBytes returns the input bytes this daemon has staged in for
// dispatched instances.
func (d *Daemon) StagedBytes() int64 { return d.stagedBytes.Load() }

type instanceKey struct {
	app      string
	task     string
	instance int
	copyIdx  int
}

type instance struct {
	cancel chan struct{}
	done   bool
}

// StartDaemon founds (contact == "") or joins a daemon group.
func StartDaemon(net transport.Network, group string, contact transport.Addr, cfg DaemonConfig) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("exm: daemon needs a program registry")
	}
	if cfg.Isis.Name == "" {
		cfg.Isis.Name = cfg.Machine.Name
	}
	d := &Daemon{cfg: cfg, running: make(map[instanceKey]*instance)}
	var proc *isis.Process
	var err error
	if contact == "" {
		proc, err = isis.Found(net, group, cfg.Isis)
	} else {
		proc, err = isis.Join(net, group, contact, cfg.Isis)
	}
	if err != nil {
		return nil, err
	}
	d.proc = proc
	proc.HandleCast(kindBidCast, d.onBidRequest)
	proc.HandleCast(kindKillCast, d.onKillCast)
	proc.HandlePoint(kindRequest, d.onRequest)
	proc.HandlePoint(kindExec, d.onExec)
	proc.HandlePoint(kindKill, d.onKill)
	proc.HandlePoint(kindAvailReq, d.onAvailReq)
	return d, nil
}

// Addr returns the daemon's transport address (its contact address).
func (d *Daemon) Addr() transport.Addr { return d.proc.Addr() }

// MachineName returns the hosting machine's name.
func (d *Daemon) MachineName() string { return d.cfg.Machine.Name }

// IsLeader reports whether this daemon currently leads its group.
func (d *Daemon) IsLeader() bool { return d.proc.IsLeader() }

// GroupSize returns the current group view size.
func (d *Daemon) GroupSize() int { return d.proc.View().Size() }

// Stop crashes the daemon (no goodbye), as in the failover experiments.
func (d *Daemon) Stop() {
	d.killAll()
	d.proc.Stop()
}

// Leave departs gracefully.
func (d *Daemon) Leave() {
	d.killAll()
	d.proc.Leave()
}

// Load returns the daemon's current load: local activity plus one unit per
// running VCE instance, normalized by machine speed.
func (d *Daemon) Load() float64 {
	base := 0.0
	if d.cfg.BaseLoad != nil {
		base = d.cfg.BaseLoad()
	}
	d.mu.Lock()
	n := len(d.running)
	d.mu.Unlock()
	speed := d.cfg.Machine.Speed
	if speed <= 0 {
		speed = 1
	}
	return base + float64(n)/speed
}

// RunningInstances returns the number of live instances.
func (d *Daemon) RunningInstances() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.running)
}

// BidsSent returns how many bids this daemon has submitted.
func (d *Daemon) BidsSent() int64 { return d.bidsSent.Load() }

// onBidRequest answers the leader's broadcast: "Any daemon that is not
// already excessively loaded and can run remote jobs sends its load
// description to the group leader." Every other daemon still answers, with
// an empty payload that lead skips: the leader's cast waits for a reply
// from every member, so a silent decline would cost it the whole
// ReplyTimeout.
func (d *Daemon) onBidRequest(_ transport.Addr, payload []byte) ([]byte, bool) {
	var req bidReqMsg
	if decode(payload, &req) != nil {
		return nil, true
	}
	load := d.Load()
	d.mu.Lock()
	capacity := d.cfg.MaxTasks - len(d.running)
	d.mu.Unlock()
	if load >= d.cfg.OverloadThreshold || capacity <= 0 {
		return nil, true // decline: excessively loaded or full
	}
	bid, err := encode(bidMsg{Machine: d.cfg.Machine.Name, Load: load, Capacity: capacity})
	if err != nil {
		return nil, true
	}
	d.bidsSent.Add(1)
	return bid, true
}

// onRequest fields a resource request. Non-leaders forward to the leader
// (the §5 flow sends requests to the leader, but execution programs may only
// know one daemon's address — forwarding keeps the protocol robust across
// failovers).
func (d *Daemon) onRequest(_ transport.Addr, payload []byte) {
	var req requestMsg
	if decode(payload, &req) != nil {
		return
	}
	if !d.proc.IsLeader() {
		_ = d.proc.Send(d.proc.View().Leader().Addr, kindRequest, payload)
		return
	}
	// The leader "fields this request and translates it into a broadcast
	// to all the scheduling/dispatching daemons to disclose their state."
	// Collection runs on its own goroutine: Isis builds "different
	// threads for each request", so concurrent execution programs do not
	// serialize.
	go d.lead(req)
}

func (d *Daemon) lead(req requestMsg) {
	cast, err := encode(bidReqMsg{App: req.App, Task: req.Task})
	reply := func(a allocMsg) {
		if body, err := encode(a); err == nil {
			_ = d.proc.Send(req.ReplyTo, kindAlloc, body)
		}
	}
	if err != nil {
		reply(allocMsg{ReqID: req.ReqID, App: req.App, Task: req.Task, Err: err.Error()})
		return
	}
	replies, castErr := d.proc.Cast(kindBidCast, cast, isis.AllReplies)
	// Declining daemons reply too (empty payloads, skipped below), so a
	// timeout means a member crashed or went silent; the replies that did
	// arrive still count, and only a hard failure (stopped process) aborts.
	if castErr != nil && castErr != isis.ErrTimeout {
		reply(allocMsg{ReqID: req.ReqID, App: req.App, Task: req.Task, Err: castErr.Error()})
		return
	}
	bids := make([]sched.Bid, 0, len(replies))
	addrByMachine := make(map[string]string, len(replies))
	for _, r := range replies {
		var b bidMsg
		if decode(r.Payload, &b) != nil {
			continue
		}
		bids = append(bids, sched.Bid{Machine: b.Machine, Load: b.Load, Capacity: b.Capacity})
		addrByMachine[b.Machine] = string(r.From)
	}
	names, ok := sched.SelectBest(bids, req.Need)
	if !ok {
		reply(allocMsg{
			ReqID: req.ReqID, App: req.App, Task: req.Task,
			Err: fmt.Sprintf("insufficient resources: need %d, %d available", req.Need, len(names)),
		})
		return
	}
	addrs := make([]string, len(names))
	for i, n := range names {
		addrs[i] = addrByMachine[n]
	}
	reply(allocMsg{ReqID: req.ReqID, App: req.App, Task: req.Task, Machines: addrs, Names: names})
}

// onExec starts one instance: load the module, run it, report completion to
// the sender.
func (d *Daemon) onExec(from transport.Addr, payload []byte) {
	var ex execMsg
	if decode(payload, &ex) != nil {
		return
	}
	key := instanceKey{app: ex.App, task: ex.Task, instance: ex.Instance, copyIdx: ex.Copy}
	report := func(errText string) {
		body, err := encode(doneMsg{
			App: ex.App, Task: ex.Task, Instance: ex.Instance, Copy: ex.Copy,
			Machine: d.cfg.Machine.Name, Err: errText,
		})
		if err == nil {
			_ = d.proc.Send(from, kindDone, body)
		}
	}
	prog, ok := d.cfg.Registry.Lookup(ex.Program)
	if !ok {
		report(fmt.Sprintf("no program %q on machine %s", ex.Program, d.cfg.Machine.Name))
		return
	}
	// Stage input files to this machine before launch. A replica placed
	// here earlier (anticipatory replication) makes this free.
	if d.cfg.FS != nil && len(ex.Files) > 0 {
		moved, err := d.cfg.FS.Stage(ex.Files, d.cfg.Machine.Name)
		if err != nil {
			report(fmt.Sprintf("staging inputs on %s: %v", d.cfg.Machine.Name, err))
			return
		}
		d.stagedBytes.Add(moved)
	}
	inst := &instance{cancel: make(chan struct{})}
	d.mu.Lock()
	if _, dup := d.running[key]; dup {
		d.mu.Unlock()
		report("duplicate instance")
		return
	}
	d.running[key] = inst
	d.mu.Unlock()

	go func() {
		err := prog(ProgContext{
			App: ex.App, Task: ex.Task, Machine: d.cfg.Machine.Name,
			Instance: ex.Instance, Copy: ex.Copy, Hub: d.cfg.Hub, Cancel: inst.cancel,
		})
		d.mu.Lock()
		killed := d.running[key] == nil || d.running[key].done
		delete(d.running, key)
		d.mu.Unlock()
		if killed {
			return // terminated by kill; no completion report
		}
		if err != nil {
			report(err.Error())
		} else {
			report("")
		}
	}()
}

// onKill handles a kill from outside the group (the execution program): it
// applies locally and relays to the whole group so every machine working on
// the application terminates it.
func (d *Daemon) onKill(_ transport.Addr, payload []byte) {
	var k killMsg
	if decode(payload, &k) != nil {
		return
	}
	d.applyKill(k)
	_, _ = d.proc.Cast(kindKillCast, payload, 0)
}

// onKillCast applies a group-relayed kill.
func (d *Daemon) onKillCast(_ transport.Addr, payload []byte) ([]byte, bool) {
	var k killMsg
	if decode(payload, &k) == nil {
		d.applyKill(k)
	}
	return nil, false
}

func (d *Daemon) applyKill(k killMsg) {
	d.mu.Lock()
	for key, inst := range d.running {
		if key.app != k.App {
			continue
		}
		if k.Task != "" && key.task != k.Task {
			continue
		}
		if k.Instance >= 0 && key.instance != k.Instance {
			continue
		}
		if !inst.done {
			inst.done = true
			close(inst.cancel)
		}
	}
	d.mu.Unlock()
}

func (d *Daemon) killAll() {
	d.mu.Lock()
	for _, inst := range d.running {
		if !inst.done {
			inst.done = true
			close(inst.cancel)
		}
	}
	d.mu.Unlock()
}

// onAvailReq answers script AVAIL() queries with the group view size.
func (d *Daemon) onAvailReq(from transport.Addr, payload []byte) {
	var req availReqMsg
	if decode(payload, &req) != nil {
		return
	}
	body, err := encode(availRepMsg{ReqID: req.ReqID, Count: d.proc.View().Size()})
	if err == nil {
		_ = d.proc.Send(from, kindAvailRep, body)
	}
}
