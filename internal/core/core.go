// Package core assembles the full Virtual Computing Environment: the
// machine database, compilation manager, program registry, channel hub, and
// the per-class daemon groups of §5, behind one facade. It is the engine
// under the public vce package: construct an environment, add machines,
// register programs, submit application descriptions (scripts or SDM
// specifications), and run them.
package core

import (
	"fmt"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/compilemgr"
	"vce/internal/exm"
	"vce/internal/isis"
	"vce/internal/script"
	"vce/internal/sdm"
	"vce/internal/taskgraph"
	"vce/internal/transport"
	"vce/internal/vfs"
)

// Options configures a VCE.
type Options struct {
	// Network carries all daemon and execution-program traffic; nil uses
	// a fresh in-memory network (single-process deployments, tests,
	// examples). cmd/vced passes a TCP network.
	Network transport.Network
	// Isis tunes group membership (heartbeats, failure detection, reply
	// windows) for every daemon.
	Isis isis.Config
	// CompileCost prices simulated compilations; zero value uses
	// compilemgr.DefaultCostModel.
	CompileCost compilemgr.CostModel
	// RunTimeout bounds each allocation round and execution wave
	// (default 30s).
	RunTimeout time.Duration
}

// MachineConfig tunes one machine's daemon beyond its hardware description.
type MachineConfig struct {
	// BaseLoad reports local (owner) load; nil means always 0.
	BaseLoad func() float64
	// MaxTasks bounds concurrent VCE instances (default 4).
	MaxTasks int
	// OverloadThreshold is the §5 "excessively loaded" bid cutoff
	// (default 2.0).
	OverloadThreshold float64
}

// VCE is a live virtual computing environment.
type VCE struct {
	opts     Options
	db       *arch.DB
	compiler *compilemgr.Manager
	registry *exm.Registry
	hub      *channel.Hub
	fs       *vfs.FS

	mu       sync.Mutex
	daemons  map[string]*exm.Daemon // by machine name
	contacts map[arch.Class]transport.Addr
	execSeq  int
}

// New constructs an empty environment.
func New(opts Options) *VCE {
	if opts.Network == nil {
		opts.Network = transport.NewInMem()
	}
	if opts.CompileCost == (compilemgr.CostModel{}) {
		opts.CompileCost = compilemgr.DefaultCostModel()
	}
	if opts.RunTimeout <= 0 {
		opts.RunTimeout = 30 * time.Second
	}
	db := arch.NewDB()
	return &VCE{
		opts:     opts,
		db:       db,
		compiler: compilemgr.New(db, opts.CompileCost),
		registry: exm.NewRegistry(),
		hub:      channel.NewHub(),
		fs:       vfs.New(),
		daemons:  make(map[string]*exm.Daemon),
		contacts: make(map[arch.Class]transport.Addr),
	}
}

// FS exposes the environment's distributed file system: create application
// input files here (and replicate them anticipatorily); daemons stage them
// to the executing machine at dispatch.
func (v *VCE) FS() *vfs.FS { return v.fs }

// DB exposes the machine database (§3.1.2's "simple database").
func (v *VCE) DB() *arch.DB { return v.db }

// Compiler exposes the compilation manager.
func (v *VCE) Compiler() *compilemgr.Manager { return v.compiler }

// Registry exposes the program registry.
func (v *VCE) Registry() *exm.Registry { return v.registry }

// Hub exposes the channel hub applications communicate over.
func (v *VCE) Hub() *channel.Hub { return v.hub }

// Contacts returns one daemon address per machine-class group.
func (v *VCE) Contacts() map[arch.Class]transport.Addr {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[arch.Class]transport.Addr, len(v.contacts))
	for k, a := range v.contacts {
		out[k] = a
	}
	return out
}

// AddMachine registers a machine and starts its VCE daemon, which founds or
// joins its class group ("All of the machines participating in the VCE will
// be divided into groups, where the members of the group share similar
// architectural features", §5).
func (v *VCE) AddMachine(m arch.Machine, cfg MachineConfig) (*exm.Daemon, error) {
	if err := v.db.Add(m); err != nil {
		return nil, err
	}
	v.mu.Lock()
	contact := v.contacts[m.Class]
	v.mu.Unlock()
	isisCfg := v.opts.Isis
	isisCfg.Name = m.Name
	d, err := exm.StartDaemon(v.opts.Network, m.Class.String(), contact, exm.DaemonConfig{
		Machine:           m,
		Registry:          v.registry,
		Hub:               v.hub,
		FS:                v.fs,
		BaseLoad:          cfg.BaseLoad,
		MaxTasks:          cfg.MaxTasks,
		OverloadThreshold: cfg.OverloadThreshold,
		Isis:              isisCfg,
	})
	if err != nil {
		v.db.Remove(m.Name)
		return nil, err
	}
	v.mu.Lock()
	v.daemons[m.Name] = d
	if _, ok := v.contacts[m.Class]; !ok {
		v.contacts[m.Class] = d.Addr()
	}
	v.mu.Unlock()
	return d, nil
}

// Daemon returns the named machine's daemon.
func (v *VCE) Daemon(machine string) (*exm.Daemon, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.daemons[machine]
	return d, ok
}

// StopMachine crashes a machine's daemon (fault injection). The class
// group's contact address is repointed at a surviving daemon so later joins
// and execution programs keep working across the failover.
func (v *VCE) StopMachine(machine string) error {
	spec, had := v.db.Get(machine)
	v.mu.Lock()
	d, ok := v.daemons[machine]
	delete(v.daemons, machine)
	if ok && had && v.contacts[spec.Class] == d.Addr() {
		delete(v.contacts, spec.Class)
		for name, other := range v.daemons {
			if otherSpec, exists := v.db.Get(name); exists && otherSpec.Class == spec.Class {
				v.contacts[spec.Class] = other.Addr()
				break
			}
		}
	}
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no machine %q", machine)
	}
	v.db.Remove(machine)
	d.Stop()
	return nil
}

// NewExecProgram creates an execution program bound to this environment's
// groups.
func (v *VCE) NewExecProgram() (*exm.ExecProgram, error) {
	v.mu.Lock()
	v.execSeq++
	name := fmt.Sprintf("execprog-%d", v.execSeq)
	v.mu.Unlock()
	return exm.NewExecProgram(v.opts.Network, exm.ExecConfig{
		Name:          name,
		Contacts:      v.Contacts(),
		LocalRegistry: v.registry,
		Hub:           v.hub,
		Timeout:       v.opts.RunTimeout,
	})
}

// RunScript compiles a §5 application-description script (conditionals
// evaluated against live group availability) and runs it.
func (v *VCE) RunScript(app, src string) (*exm.RunReport, error) {
	e, err := v.NewExecProgram()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	g, err := script.Compile(app, src, e)
	if err != nil {
		return nil, err
	}
	return v.run(e, g)
}

// RunSpec runs an application defined as an SDM problem specification.
func (v *VCE) RunSpec(spec sdm.Spec) (*exm.RunReport, error) {
	g, err := spec.Graph()
	if err != nil {
		return nil, err
	}
	e, err := v.NewExecProgram()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return v.run(e, g)
}

// run is the one application pipeline behind both front ends: the SDM
// design and coding layers annotate g, the compilation manager prepares its
// binaries for every candidate target (§4.1), and e executes it.
func (v *VCE) run(e *exm.ExecProgram, g *taskgraph.Graph) (*exm.RunReport, error) {
	if err := sdm.Design(g); err != nil {
		return nil, err
	}
	if err := sdm.Code(g); err != nil {
		return nil, err
	}
	if _, _, err := v.compiler.PrepareGraph(g); err != nil {
		return nil, err
	}
	return e.Run(g)
}

// GroupSizes reports each class group's current view size.
func (v *VCE) GroupSizes() map[arch.Class]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[arch.Class]int)
	for _, d := range v.daemons {
		// One daemon per machine: ask any member of each group.
		spec, ok := v.db.Get(d.MachineName())
		if !ok {
			continue
		}
		if cur, seen := out[spec.Class]; !seen || d.GroupSize() > cur {
			out[spec.Class] = d.GroupSize()
		}
	}
	return out
}

// Shutdown stops every daemon.
func (v *VCE) Shutdown() {
	v.mu.Lock()
	daemons := make([]*exm.Daemon, 0, len(v.daemons))
	for _, d := range v.daemons {
		daemons = append(daemons, d)
	}
	v.daemons = make(map[string]*exm.Daemon)
	v.mu.Unlock()
	for _, d := range daemons {
		d.Stop()
	}
}
