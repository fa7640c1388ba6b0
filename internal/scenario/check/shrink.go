package check

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"vce/internal/scenario"
)

// shrink greedily minimizes a failing spec: it repeatedly tries a fixed
// menu of simplifications (single matrix cell, one run, dropped churn, fault,
// constraint, graph and topology models, closed arrivals, no queue bound,
// fewer tasks and machines, shorter horizon) and keeps any candidate on which
// the property still fails, until no simplification sticks or the evaluation
// budget runs out. A candidate outside the property's precondition does not
// fail, so a stratum property's repro stays in its stratum. It returns the
// smallest still-failing spec and that spec's violation.
//
// Minimality is local and the failure mode may shift while shrinking (any
// property error counts) — the point is a small, runnable reproduction, not
// a canonical one. A nil error return means the failure did not reproduce
// on re-evaluation (a flake): the caller keeps the original spec and
// violation.
func shrink(ctx context.Context, p property, sp *scenario.Spec, workers, budget int) (*scenario.Spec, error) {
	err := p.violation(ctx, sp, workers)
	budget--
	if err == nil {
		return sp, nil
	}
	current, lastErr := sp, err
	for budget > 0 {
		improved := false
		for _, cand := range candidates(current) {
			if budget <= 0 {
				break
			}
			if cand.Validate() != nil {
				continue // a transformation broke spec structure: not a candidate
			}
			budget--
			if cerr := p.violation(ctx, cand, workers); cerr != nil {
				current, lastErr = cand, cerr
				improved = true
				break // restart the menu from the smaller spec
			}
		}
		if !improved {
			break
		}
	}
	return current, lastErr
}

// candidates generates one-step simplifications of s, biggest wins first.
func candidates(s *scenario.Spec) []*scenario.Spec {
	var out []*scenario.Spec
	mutate := func(f func(*scenario.Spec)) {
		c := *s
		// Classes is the one thing a transformation edits in place; the
		// rest is replaced or dropped whole.
		c.Machines.Classes = slices.Clone(s.Machines.Classes)
		f(&c)
		out = append(out, &c)
	}
	if len(s.Policies.Scheduling)*len(s.Policies.Migration) > 1 {
		for _, sc := range s.Policies.Scheduling {
			for _, mig := range s.Policies.Migration {
				sc, mig := sc, mig
				mutate(func(c *scenario.Spec) {
					c.Policies = scenario.PolicyMatrix{Scheduling: []string{sc}, Migration: []string{mig}}
				})
			}
		}
	}
	if s.Runs > 1 {
		mutate(func(c *scenario.Spec) { c.Runs = 1 })
	}
	if s.Owner != nil {
		mutate(func(c *scenario.Spec) { c.Owner = nil })
	}
	if s.Faults != nil {
		mutate(func(c *scenario.Spec) { c.Faults = nil })
	}
	if s.Workload.Constrained != nil {
		mutate(func(c *scenario.Spec) { c.Workload.Constrained = nil })
	}
	if s.Workload.Arrivals.Kind != "batch" {
		// A queue bound is only meaningful on an open-loop source.
		mutate(func(c *scenario.Spec) {
			c.Workload.Arrivals = scenario.ArrivalSpec{Kind: "batch"}
			c.Workload.QueueLimit = 0
		})
	}
	if s.Workload.QueueLimit > 0 {
		mutate(func(c *scenario.Spec) { c.Workload.QueueLimit = 0 })
	}
	if s.Workload.Graph != nil {
		mutate(func(c *scenario.Spec) { c.Workload.Graph = nil })
	}
	hasSite := func(cl scenario.MachineClassSpec) bool { return cl.Site != "" }
	if s.Machines.Topology != nil || slices.ContainsFunc(s.Machines.Classes, hasSite) {
		// The topology needs its sites, and sites without it still feed
		// locality's affinity accounting: they go together.
		mutate(func(c *scenario.Spec) {
			c.Machines.Topology = nil
			for i := range c.Machines.Classes {
				c.Machines.Classes[i].Site = ""
			}
		})
	}
	if s.Workload.Tasks > 1 {
		mutate(func(c *scenario.Spec) { c.Workload.Tasks = s.Workload.Tasks / 2 })
	}
	if len(s.Machines.Classes) > 1 {
		for i := range s.Machines.Classes {
			i := i
			mutate(func(c *scenario.Spec) {
				c.Machines.Classes = append(c.Machines.Classes[:i], c.Machines.Classes[i+1:]...)
			})
		}
	}
	for i, cl := range s.Machines.Classes {
		if cl.Count > 1 {
			i := i
			mutate(func(c *scenario.Spec) { c.Machines.Classes[i].Count /= 2 })
		}
	}
	if s.HorizonS > 120 {
		mutate(func(c *scenario.Spec) { c.HorizonS = s.HorizonS / 2 })
	}
	return out
}

// firstLine clips an error message for the repro file's description.
func firstLine(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i] + " …"
	}
	return msg
}

// writeRepro persists a failing spec and returns its path. For spec-driven
// properties the file is a minimized standalone `vcebench -spec` input; for
// seed-only properties (which derive their own worlds from the spec seed)
// the description instead names the `vcebench check` invocation that
// replays the failure.
func writeRepro(dir string, p property, seed uint64, sp *scenario.Spec, cause error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("check: %w", err)
	}
	out := *sp
	// The violation leads, so an execution-identity repro opens with the
	// failing mode.
	out.Description = fmt.Sprintf("%s — check repro: property %q failed on generator seed %d", firstLine(cause), p.name, seed)
	if p.seedOnly {
		out.Description += fmt.Sprintf(
			"; this property derives its world from the seed, replay with `vcebench check -seed %d -seeds 1 -properties %s`",
			seed, p.name)
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return "", fmt.Errorf("check: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("check-repro-%s-seed%d.json", p.name, seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("check: %w", err)
	}
	return path, nil
}
