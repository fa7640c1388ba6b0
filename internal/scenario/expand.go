package scenario

import (
	"cmp"
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
// counts. Machines number per class across blocks, so two workstation
// blocks of two name ws00–ws03. Workstations alternate byte order
// (big/little by that per-class index's parity) so homogeneity-requiring
// migration strategies face the §4.4 heterogeneity problem; other classes
// are big-endian. The class keywords are the ones Validate parsed.
func fleetShape(ms MachineSetSpec) ([]arch.Machine, []int) {
	var out []arch.Machine
	var slots []int
	numbered := make(map[arch.Class]int)
	for _, cl := range ms.Classes {
		class, _ := arch.ParseClass(cl.Class)
		def := classDefaults[class]
		for range cl.Count {
			i := numbered[class]
			numbered[class]++
			order := arch.BigEndian
			if class == arch.Workstation && i%2 == 1 {
				order = arch.LittleEndian
			}
			out = append(out, arch.Machine{
				Name:     fmt.Sprintf("%s%02d", def.prefix, i),
				Class:    class,
				OS:       def.os,
				Order:    order,
				MemoryMB: cmp.Or(cl.MemoryMB, def.memoryMB),
			})
			slots = append(slots, max(cl.Slots, 1)) // Validate refuses negative slots
		}
	}
	return out, slots
}
