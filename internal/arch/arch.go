// Package arch models the heterogeneous hardware landscape the VCE schedules
// over: machine architecture classes (the "low-level counterparts of the
// problem architecture classes", §4.1), Fox's problem-architecture classes
// used by the SDM design stage (§3.1.1), machine descriptors, and the "simple
// database, maintained by VCE software" (§3.1.2) that the compilation manager
// consults to pick candidate machines.
package arch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Class is a machine architecture class. Machines in a VCE network are
// divided into groups of the same class (§5): "there might be a MIMD group, a
// SIMD group and a workstation group."
type Class uint8

const (
	// ClassUnknown is the zero Class; it never matches a requirement.
	ClassUnknown Class = iota
	// SIMD machines (the paper's examples: CM-5, MasPar MP-1).
	SIMD
	// MIMD machines with asynchronous architectures.
	MIMD
	// Vector supercomputers.
	Vector
	// Workstation is a general-purpose Unix workstation.
	Workstation
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case SIMD:
		return "SIMD"
	case MIMD:
		return "MIMD"
	case Vector:
		return "VECTOR"
	case Workstation:
		return "WORKSTATION"
	default:
		return "UNKNOWN"
	}
}

// ParseClass converts a class keyword to a Class. Keywords are ASCII and
// match in any ASCII case; a keyword holding any other letter is unknown,
// so neither 'ſ' nor 'ı' upper-cases its way into one.
func ParseClass(s string) (Class, error) {
	k := strings.TrimSpace(s)
	if strings.ContainsFunc(k, func(r rune) bool { return r >= utf8.RuneSelf }) {
		k = ""
	}
	switch strings.ToUpper(k) {
	case "SIMD":
		return SIMD, nil
	case "MIMD":
		return MIMD, nil
	case "VECTOR":
		return Vector, nil
	case "WORKSTATION", "WS":
		return Workstation, nil
	default:
		return ClassUnknown, fmt.Errorf("arch: unknown machine class %q", s)
	}
}

// ProblemClass is one of Fox's "three broad classes of problem architectures
// ... which describe the temporal (time or synchronization) structure of the
// problem" (§3.1.1).
type ProblemClass uint8

const (
	// ProblemUnknown is the zero ProblemClass.
	ProblemUnknown ProblemClass = iota
	// Synchronous problems: lock-step temporal structure (SIMD-like).
	Synchronous
	// LooselySynchronous problems: iterate compute/communicate phases.
	LooselySynchronous
	// Asynchronous problems: no global temporal structure (MIMD-like).
	Asynchronous
)

// String implements fmt.Stringer.
func (p ProblemClass) String() string {
	switch p {
	case Synchronous:
		return "SYNC"
	case LooselySynchronous:
		return "LOOSESYNC"
	case Asynchronous:
		return "ASYNC"
	default:
		return "UNKNOWN"
	}
}

// MachineClasses maps a problem architecture to the machine classes able to
// execute it well — the design-stage-to-machine-level mapping of §4.1 ("the
// synchronous class of problems maps easily to most SIMD style machines").
// The slice is ordered best-first.
func (p ProblemClass) MachineClasses() []Class {
	switch p {
	case Synchronous:
		return []Class{SIMD, Vector}
	case LooselySynchronous:
		return []Class{MIMD, Vector}
	case Asynchronous:
		return []Class{MIMD, Workstation}
	default:
		return nil
	}
}

// ByteOrder distinguishes machine endianness; address-space migration (§4.4)
// requires identical byte order, and proxies (§4.2) convert between orders.
type ByteOrder uint8

const (
	// BigEndian byte order.
	BigEndian ByteOrder = iota
	// LittleEndian byte order.
	LittleEndian
)

// String implements fmt.Stringer.
func (b ByteOrder) String() string {
	if b == LittleEndian {
		return "little"
	}
	return "big"
}

// Machine describes one computer participating in the VCE.
type Machine struct {
	// Name is the unique machine identifier (host name).
	Name string
	// Class is the machine's architecture class.
	Class Class
	// Speed is relative compute throughput in work units per second; a
	// 1994-vintage workstation is 1.0.
	Speed float64
	// MemoryMB is physical memory available to VCE tasks.
	MemoryMB int
	// OS names the operating system ("unix", "cmost", ...). Object-code
	// compatibility (§5) requires equal Class, OS and ByteOrder.
	OS string
	// Order is the machine's byte order.
	Order ByteOrder
	// Tags carries free-form capability markers ("graphics", "bigmem").
	Tags []string
	// MaxRemoteTasks bounds how many VCE tasks the daemon will accept;
	// zero means unlimited.
	MaxRemoteTasks int
}

// HasTag reports whether the machine carries the named capability tag.
func (m Machine) HasTag(tag string) bool {
	for _, t := range m.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// ObjectCodeCompatible reports whether binaries built for m run unchanged on
// other — the homogeneity requirement for address-space migration and for the
// prototype's object-module application descriptions (§5).
func (m Machine) ObjectCodeCompatible(other Machine) bool {
	return m.Class == other.Class && m.OS == other.OS && m.Order == other.Order
}

// Requirements filters machines for a task (processor, architecture, file
// requirements — §4.3's "best available platform" definition).
type Requirements struct {
	// Classes lists acceptable machine classes; empty accepts any class.
	Classes []Class
	// MinMemoryMB is the smallest acceptable memory.
	MinMemoryMB int
	// MinSpeed is the smallest acceptable relative speed.
	MinSpeed float64
	// Tags lists capability tags the machine must carry.
	Tags []string
	// Machine pins the requirement to one named machine (the "can only
	// run on machine A" case of §4.3); empty means no pin.
	Machine string
}

// Admits reports whether machine m satisfies the requirements.
func (r Requirements) Admits(m Machine) bool {
	if r.Machine != "" && r.Machine != m.Name {
		return false
	}
	if len(r.Classes) > 0 {
		ok := false
		for _, c := range r.Classes {
			if c == m.Class {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if m.MemoryMB < r.MinMemoryMB {
		return false
	}
	if m.Speed < r.MinSpeed {
		return false
	}
	for _, tag := range r.Tags {
		if !m.HasTag(tag) {
			return false
		}
	}
	return true
}

// DB is the machine database of §3.1.2. It is safe for concurrent use: live
// daemons register and deregister while the compilation manager reads.
type DB struct {
	mu       sync.RWMutex
	machines map[string]Machine
}

// NewDB returns an empty machine database.
func NewDB() *DB {
	return &DB{machines: make(map[string]Machine)}
}

// Add registers or updates a machine. It rejects unnamed or unclassified
// machines and non-positive speeds.
func (db *DB) Add(m Machine) error {
	if m.Name == "" {
		return fmt.Errorf("arch: machine with empty name")
	}
	if m.Class == ClassUnknown {
		return fmt.Errorf("arch: machine %q has unknown class", m.Name)
	}
	if m.Speed <= 0 {
		return fmt.Errorf("arch: machine %q has non-positive speed %v", m.Name, m.Speed)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.machines[m.Name] = m
	return nil
}

// Remove deletes a machine; removing an absent machine is a no-op.
func (db *DB) Remove(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.machines, name)
}

// Get returns the named machine.
func (db *DB) Get(name string) (Machine, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m, ok := db.machines[name]
	return m, ok
}

// Candidates returns every machine admitted by req, sorted by descending
// speed then name — the compilation manager's "best machines" ordering.
func (db *DB) Candidates(req Requirements) []Machine {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Machine
	for _, m := range db.machines {
		if req.Admits(m) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Speed != out[j].Speed {
			return out[i].Speed > out[j].Speed
		}
		return out[i].Name < out[j].Name
	})
	return out
}
