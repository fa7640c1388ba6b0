// Package check is the engine-wide invariant harness behind `vcebench
// check`: it draws randomized scenario specs from internal/scenario/specgen
// and asserts six properties of the whole pipeline. execution-identity
// compares the reference sweep, mode by mode, with the same sweep run again,
// on single-use arenas, at N workers, sharded and merged, from a warm cache,
// under the kernel audit hook (sim.Auditor) and with the policy matrix
// reversed. counts keeps every run's task counts in range.
// steady-state-bounds and topology-conservation check the indexes on the
// generator's two strata and skip other specs. machine-permutation and
// makespan-dominance are metamorphic pairs over worlds derived from the seed.
//
// A failing property is shrunk to a minimal still-failing spec and written
// to disk as a standalone reproduction file, so a red nightly run hands the
// investigator a `vcebench -spec` input instead of a seed and a shrug.
package check

import (
	"context"
	"fmt"
	"io"
	"time"

	"vce/internal/metrics"
	"vce/internal/scenario"
	"vce/internal/scenario/specgen"
)

// Options configure a harness sweep.
type Options struct {
	// Seeds is how many generated specs to sweep (default 20).
	Seeds int
	// BaseSeed is the first generation seed; spec i uses BaseSeed+i.
	BaseSeed uint64
	// Workers is the worker count of every multi-worker sweep the
	// properties run (default 4).
	Workers int
	// OutDir is where minimized reproduction specs are written on failure
	// (default: current directory). Empty string means default.
	OutDir string
	// ShrinkBudget caps how many property re-evaluations minimization may
	// spend per failure (default 40; negative disables shrinking).
	ShrinkBudget int
	// Log, when non-nil, receives per-seed progress lines.
	Log io.Writer
	// Properties filters which properties run, by name; nil runs all.
	Properties []string
}

// withDefaults fills the zero-valued options.
func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 20
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.OutDir == "" {
		o.OutDir = "."
	}
	if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 40
	}
	return o
}

// Failure is one property violation, minimized and persisted.
type Failure struct {
	// Property names the violated invariant.
	Property string
	// Seed is the generation seed of the original failing spec.
	Seed uint64
	// Err is the violation from the minimized spec.
	Err error
	// Spec is the minimized still-failing spec.
	Spec *scenario.Spec
	// ReproPath is the reproduction file written under OutDir ("" if the
	// write itself failed; Err still stands).
	ReproPath string
}

// PropertyResult aggregates one property across the sweep. Skipped counts
// the specs outside the property's precondition: it said nothing about them.
type PropertyResult struct {
	Name    string
	Passed  int
	Skipped int
	Failed  int
}

// Result is the outcome of a harness sweep.
type Result struct {
	// Specs is how many generated specs were swept.
	Specs int
	// Properties aggregates per-property outcomes in harness order.
	Properties []PropertyResult
	// Failures lists every violation with its minimized reproduction.
	Failures []Failure
	// Elapsed is the sweep's wall-clock time.
	Elapsed time.Duration
}

// Ok reports whether every property held on every spec.
func (r *Result) Ok() bool { return len(r.Failures) == 0 }

// Table renders the per-property summary.
func (r *Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("engine invariants over %d generated specs (%v)", r.Specs, r.Elapsed.Round(time.Millisecond)),
		"property", "passed", "skipped", "failed")
	for _, p := range r.Properties {
		t.AddRow(p.Name, p.Passed, p.Skipped, p.Failed)
	}
	return t
}

// Run sweeps the configured seed range. It returns a non-nil Result unless
// ctx is cancelled or the options are unusable; property violations are
// reported in the Result, not as an error.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	props, err := selectProperties(opts.Properties)
	if err != nil {
		return nil, err
	}
	return sweep(ctx, opts, props)
}

// sweep is Run over an explicit property table (opts already defaulted).
func sweep(ctx context.Context, opts Options, props []property) (*Result, error) {
	start := time.Now()
	res := &Result{Specs: opts.Seeds}
	res.Properties = make([]PropertyResult, len(props))
	for i, p := range props {
		res.Properties[i].Name = p.name
	}
	for i := 0; i < opts.Seeds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := opts.BaseSeed + uint64(i)
		sp := specgen.Generate(seed, specgen.Caps{})
		before := len(res.Failures)
		for pi, p := range props {
			if p.applies != nil && !p.applies(sp) {
				res.Properties[pi].Skipped++
				continue
			}
			err := p.check(ctx, sp, opts.Workers)
			if err == nil {
				res.Properties[pi].Passed++
				continue
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.Properties[pi].Failed++
			fail := Failure{Property: p.name, Seed: seed, Err: err, Spec: sp}
			// Shrinking mutates the spec, which seed-only properties never
			// read: their reproduction is the seed itself.
			if opts.ShrinkBudget > 0 && !p.seedOnly {
				if mspec, merr := shrink(ctx, p, sp, opts.Workers, opts.ShrinkBudget); merr != nil {
					fail.Spec, fail.Err = mspec, merr
				} else {
					// Did not reproduce on re-evaluation: keep the original
					// violation — it is the only record of what went wrong —
					// and flag the flakiness, which is itself a finding (the
					// engine's determinism contract says this cannot happen).
					fail.Err = fmt.Errorf("%w (violation did not reproduce when re-evaluated for shrinking)", err)
				}
			}
			if path, werr := writeRepro(opts.OutDir, p, seed, fail.Spec, fail.Err); werr == nil {
				fail.ReproPath = path
			} else if opts.Log != nil {
				fmt.Fprintf(opts.Log, "check: writing repro: %v\n", werr)
			}
			res.Failures = append(res.Failures, fail)
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "check: seed %d: property %s FAILED: %v\n", seed, p.name, err)
			}
		}
		if opts.Log != nil {
			failed := len(res.Failures) > before
			if failed {
				fmt.Fprintf(opts.Log, "check: seed %d/%d FAILED\n", i+1, opts.Seeds)
			} else {
				fmt.Fprintf(opts.Log, "check: seed %d/%d ok\n", i+1, opts.Seeds)
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// selectProperties resolves a name filter against the property table.
func selectProperties(names []string) ([]property, error) {
	all := properties()
	if names == nil {
		return all, nil
	}
	var out []property
	for _, name := range names {
		found := false
		for _, p := range all {
			if p.name == name {
				out = append(out, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("check: unknown property %q (have %v)", name, PropertyNames())
		}
	}
	return out, nil
}

// PropertyNames lists the checkable property names in harness order.
func PropertyNames() []string {
	all := properties()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.name
	}
	return out
}
