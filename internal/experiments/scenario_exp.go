package experiments

import (
	"context"
	"fmt"
	"reflect"

	"vce/examples/scenarios"
	"vce/internal/scenario"
)

// E14ScenarioMatrix re-expresses the §4.3–§4.4 migration-versus-suspension
// comparison on the declarative scenario engine: it runs the built-in
// "owner-churn" scenario (a generated workstation pool under owner reclaim, a
// 2×4 scheduling × migration matrix, repeated seeds) and checks the shape E8
// and E13 assert by hand — migration escapes owner churn that suspension
// cannot — plus identical indexes at one and many workers.
//
// It witnesses that one comparison, not that every experiment is a spec
// away. E5's world written as a spec, for one, shows no utilization-first
// gain (41 vs 41.5 s at a 0.25 constrained fraction, equal at the other
// three): E5's own harness gets its gain by queueing portable tasks ahead of
// constrained ones, which the engine's placement does not do.
func E14ScenarioMatrix() (*Result, error) {
	spec, err := scenarios.Builtin("owner-churn")
	if err != nil {
		return nil, err
	}
	spec.Runs = 3 // enough seeds for stable means at harness speed

	// The sweep fans out across all CPUs (the executor default); the
	// reproducibility check below re-runs it single-threaded, so E14 also
	// witnesses the executor's parallel-equals-serial merge contract on
	// every regeneration.
	ctx := context.Background()
	rep, err := scenario.RunContext(ctx, spec, scenario.Options{})
	if err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	// Determinism: the engine's reproducibility contract, checked live.
	rep2, err := scenario.RunContext(ctx, spec, scenario.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("E14: %w", err)
	}
	if !reflect.DeepEqual(rep.Cells, rep2.Cells) {
		return nil, fmt.Errorf("E14: same spec + seed produced different indexes across worker counts")
	}

	meanMakespan := func(sched, migration string) (float64, error) {
		for _, cell := range rep.Cells {
			if cell.Sched == sched && cell.Migration == migration {
				var sum float64
				for _, run := range cell.Runs {
					sum += run.MakespanS
				}
				return sum / float64(len(cell.Runs)), nil
			}
		}
		return 0, fmt.Errorf("E14: no cell %s/%s in report", sched, migration)
	}
	totalMigrations := func(migration string) int64 {
		var n int64
		for _, cell := range rep.Cells {
			if cell.Migration == migration {
				for _, run := range cell.Runs {
					n += run.Migrations
				}
			}
		}
		return n
	}

	// Shape 1: for every scheduling policy, migration strategies finish the
	// bag no later than suspension, and strictly earlier somewhere.
	improved := false
	for _, sched := range spec.Policies.Scheduling {
		suspend, err := meanMakespan(sched, "suspend")
		if err != nil {
			return nil, err
		}
		for _, mig := range []string{"address-space", "adaptive"} {
			moved, err := meanMakespan(sched, mig)
			if err != nil {
				return nil, err
			}
			if moved > suspend {
				return nil, fmt.Errorf("E14: %s/%s makespan %.0fs worse than suspension %.0fs", sched, mig, moved, suspend)
			}
			if moved < suspend {
				improved = true
			}
		}
	}
	if !improved {
		return nil, fmt.Errorf("E14: migration never beat suspension under owner churn")
	}
	// Shape 2: migrating cells actually migrate; non-migrating cells don't.
	for _, mig := range []string{"none", "suspend"} {
		if n := totalMigrations(mig); n != 0 {
			return nil, fmt.Errorf("E14: %q cells recorded %d migrations", mig, n)
		}
	}
	if totalMigrations("address-space")+totalMigrations("adaptive") == 0 {
		return nil, fmt.Errorf("E14: migration cells never migrated")
	}

	res := &Result{ID: "E14", Title: "Scenario engine: owner-churn policy matrix (declarative §4.3–§4.4 comparison)"}
	res.Table = rep.ComparisonTable()
	res.note("the owner-churn spec shows the E8/E13 shape on the engine — under owner reclaim, migration finishes no later than suspension in every scheduling row and earlier in at least one (means over %d seeds), with identical indexes at one and many workers", spec.Runs)
	return res, nil
}
