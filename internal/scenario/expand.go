package scenario

import (
	"fmt"

	"vce/internal/arch"
)

// Instance is one concrete cell of the policy matrix: the spec's generated
// world under one scheduling policy and one migration strategy. All cells of
// the same run index share identical machines, workload, owner traces and
// fault schedules (the streams derive from spec seed + run index only), so a
// comparison across cells isolates the policy effect.
type Instance struct {
	// Spec is the owning scenario (defaults applied).
	Spec *Spec
	// Sched is the scheduling policy name.
	Sched string
	// Migration is the migration strategy name.
	Migration string
}

// Key identifies the instance in tables and seed derivations.
func (i Instance) Key() string { return i.Sched + "/" + i.Migration }

// Instances expands the spec's policy matrix into concrete instances, in
// matrix order (scheduling major, migration minor).
func (s *Spec) Instances() []Instance {
	sp := s.withDefaults()
	var out []Instance
	for _, sc := range sp.Policies.Scheduling {
		for _, mig := range sp.Policies.Migration {
			out = append(out, Instance{Spec: sp, Sched: sc, Migration: mig})
		}
	}
	return out
}

// fleetShape materializes the spec-determined part of the machine-set model:
// per-class counts with every machine field but the sampled speed, which
// each run's world fills in (generateWorld), plus the per-machine slot
// counts. Workstations alternate byte order (big/little by index parity) so
// homogeneity-requiring migration strategies face the §4.4 heterogeneity
// problem; other classes are big-endian.
func fleetShape(ms MachineSetSpec) ([]arch.Machine, []int, error) {
	var out []arch.Machine
	var slots []int
	for _, cl := range ms.Classes {
		class, err := arch.ParseClass(cl.Class)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: unknown machine class %q", cl.Class)
		}
		def := classDefaults[class]
		mem := cl.MemoryMB
		if mem == 0 {
			mem = def.memoryMB
		}
		perSlots := cl.Slots
		if perSlots == 0 {
			perSlots = 1
		}
		for i := 0; i < cl.Count; i++ {
			order := arch.BigEndian
			if class == arch.Workstation && i%2 == 1 {
				order = arch.LittleEndian
			}
			os := "unix"
			switch class {
			case arch.SIMD:
				os = "cmost"
			case arch.Vector:
				os = "unicos"
			}
			out = append(out, arch.Machine{
				Name:     fmt.Sprintf("%s%02d", def.prefix, i),
				Class:    class,
				OS:       os,
				Order:    order,
				MemoryMB: mem,
			})
			slots = append(slots, perSlots)
		}
	}
	return out, slots, nil
}
