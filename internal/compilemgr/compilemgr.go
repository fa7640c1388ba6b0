// Package compilemgr implements the compilation manager of §3.1.2 and §4.1:
// it "maps the architecture independent computation and communication
// requirements of VCE tasks to machines that are actually available in the
// VCE network", determines candidate machines through the machine database,
// and "prepares executable images for all possible machines" ahead of run
// time, "so the runtime manager will be able to move a given task among
// various machine architectures without the need to compile a task while the
// application is running."
//
// Compilation is simulated by a cost model (there are no CM-5 cross-compilers
// here); what the experiments measure — compile latency paid before versus
// during a run, cache hits from anticipatory compilation — depends only on
// the cost existing, not on real code generation.
package compilemgr

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// Target is an object-code compatibility signature: binaries built for a
// target run on every machine sharing it (§5's "object-code compatible"
// groups).
type Target struct {
	// Class is the machine architecture class.
	Class arch.Class
	// OS is the operating system.
	OS string
	// Order is the byte order.
	Order arch.ByteOrder
}

// TargetOf returns the machine's object-code signature.
func TargetOf(m arch.Machine) Target {
	return Target{Class: m.Class, OS: m.OS, Order: m.Order}
}

// Key returns a stable string form usable as a map key or file suffix.
func (t Target) Key() string {
	return fmt.Sprintf("%s-%s-%s", t.Class, t.OS, t.Order)
}

// Binary is one prepared executable image.
type Binary struct {
	// Program is the source program path.
	Program string
	// Target is the signature the binary runs on.
	Target Target
	// Bytes is the image size.
	Bytes int64
	// Language records the source language compiled from.
	Language string
}

// CostModel prices a (simulated) compilation.
type CostModel struct {
	// Base is the fixed per-compilation cost (toolchain startup).
	Base time.Duration
	// PerMiB is the additional cost per binary MiB produced.
	PerMiB time.Duration
}

// DefaultCostModel is shaped like a 1994 workstation compile: ~20s fixed
// plus ~10s per MiB of image.
func DefaultCostModel() CostModel {
	return CostModel{Base: 20 * time.Second, PerMiB: 10 * time.Second}
}

// CompileTime returns the cost of producing an image of the given size.
func (c CostModel) CompileTime(imageBytes int64) time.Duration {
	d := c.Base
	if imageBytes > 0 {
		d += time.Duration(float64(c.PerMiB) * float64(imageBytes) / (1 << 20))
	}
	return d
}

type cacheKey struct {
	program string
	target  Target
}

// Manager is the compilation manager. It is safe for concurrent use: the
// runtime manager and anticipatory compilation race to warm the same cache.
type Manager struct {
	db   *arch.DB
	cost CostModel

	mu       sync.Mutex
	cache    map[cacheKey]Binary
	compiles int64
	hits     int64
}

// New returns a manager over the machine database.
func New(db *arch.DB, cost CostModel) *Manager {
	return &Manager{db: db, cost: cost, cache: make(map[cacheKey]Binary)}
}

// CostModel returns the manager's compile pricing model.
func (m *Manager) CostModel() CostModel { return m.cost }

// Candidates returns the machines able to host the task, best-first.
func (m *Manager) Candidates(t taskgraph.Task) []arch.Machine {
	return m.db.Candidates(t.Requirements)
}

// Targets returns the distinct object-code signatures among the task's
// candidate machines, sorted by key for determinism.
func (m *Manager) Targets(t taskgraph.Task) []Target {
	seen := make(map[Target]bool)
	var out []Target
	for _, machine := range m.Candidates(t) {
		tg := TargetOf(machine)
		if !seen[tg] {
			seen[tg] = true
			out = append(out, tg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Prepare compiles (or fetches from cache) the task's binary for one target,
// returning the binary and the compile time spent (zero on a cache hit).
func (m *Manager) Prepare(t taskgraph.Task, target Target) (Binary, time.Duration) {
	key := cacheKey{program: t.Program, target: target}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.cache[key]; ok {
		m.hits++
		return b, 0
	}
	b := Binary{Program: t.Program, Target: target, Bytes: t.ImageBytes, Language: t.Language}
	m.cache[key] = b
	m.compiles++
	return b, m.cost.CompileTime(t.ImageBytes)
}

// PrepareAll prepares executables for every possible machine (§4.1). It
// returns the binaries, the total compile time paid now (cache hits are
// free), and an error when no machine in the network can host the task.
func (m *Manager) PrepareAll(t taskgraph.Task) ([]Binary, time.Duration, error) {
	targets := m.Targets(t)
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("compilemgr: no machines in the VCE network can run task %q (requirements %+v)", t.ID, t.Requirements)
	}
	var out []Binary
	var total time.Duration
	for _, tg := range targets {
		b, cost := m.Prepare(t, tg)
		out = append(out, b)
		total += cost
	}
	return out, total, nil
}

// Lookup returns the cached binary for (program, target) without compiling.
func (m *Manager) Lookup(program string, target Target) (Binary, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.cache[cacheKey{program: program, target: target}]
	return b, ok
}

// HasBinaryFor reports whether a cached binary exists that runs on machine.
func (m *Manager) HasBinaryFor(program string, machine arch.Machine) bool {
	_, ok := m.Lookup(program, TargetOf(machine))
	return ok
}

// Stats returns (compilations performed, cache hits).
func (m *Manager) Stats() (int64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compiles, m.hits
}

// PrepareGraph prepares all binaries for every non-local task of a graph —
// what the EXM does between accepting an application and dispatching it.
// The returned duration is the total compile time paid.
func (m *Manager) PrepareGraph(g *taskgraph.Graph) (map[taskgraph.TaskID][]Binary, time.Duration, error) {
	out := make(map[taskgraph.TaskID][]Binary)
	var total time.Duration
	for _, t := range g.Tasks() {
		bins, cost, err := m.PrepareAll(t)
		if err != nil {
			return nil, total, err
		}
		out[t.ID] = bins
		total += cost
	}
	return out, total, nil
}
