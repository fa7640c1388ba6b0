package exm

import (
	"fmt"
	"sync"

	"vce/internal/channel"
)

// ProgContext is the environment a VCE program instance runs in.
type ProgContext struct {
	// App is the owning application name.
	App string
	// Task is the task ID within the application.
	Task string
	// Machine is the hosting machine's name.
	Machine string
	// Instance is the instance index (0-based).
	Instance int
	// Copy is the redundant-execution copy index (0 for the primary).
	Copy int
	// Hub provides VCE channels for inter-task communication.
	Hub *channel.Hub
	// Cancel closes when the runtime kills the instance; cooperative
	// programs select on it.
	Cancel <-chan struct{}
}

// Program is an executable VCE module. In the prototype, "applications are
// described at runtime in terms of object (rather than source) modules"; in
// this reproduction a module is an opaque Go function — the runtime manager
// ships, starts, monitors and kills it without knowing what it does.
type Program func(ctx ProgContext) error

// Registry maps program paths to implementations — the stand-in for the
// shared file system the prototype loaded object modules from.
type Registry struct {
	mu    sync.RWMutex
	progs map[string]Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{progs: make(map[string]Program)}
}

// Register installs a program under its path.
func (r *Registry) Register(path string, p Program) error {
	if path == "" || p == nil {
		return fmt.Errorf("exm: Register needs a path and a program")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.progs[path]; dup {
		return fmt.Errorf("exm: program %q already registered", path)
	}
	r.progs[path] = p
	return nil
}

// Lookup fetches a program.
func (r *Registry) Lookup(path string) (Program, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.progs[path]
	return p, ok
}
