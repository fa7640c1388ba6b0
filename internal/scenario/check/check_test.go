package check

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vce/internal/scenario"
	"vce/internal/scenario/specgen"
)

// TestCleanSweep is the harness's own regression test: every property must
// hold on a range of generated specs against the current engine.
func TestCleanSweep(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	dir := t.TempDir()
	res, err := Run(context.Background(), Options{Seeds: seeds, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		for _, f := range res.Failures {
			t.Errorf("seed %d: property %s: %v (repro: %s)", f.Seed, f.Property, f.Err, f.ReproPath)
		}
		t.Fatal("generated-spec sweep violated engine invariants")
	}
	// Seeds 0..5 hold one spec of each specgen stratum, so no property may
	// get through the full sweep on skips alone.
	for _, p := range res.Properties {
		if p.Passed+p.Skipped != seeds || p.Failed != 0 || (p.Passed == 0 && !testing.Short()) {
			t.Errorf("property %s: passed=%d skipped=%d failed=%d over %d seeds", p.Name, p.Passed, p.Skipped, p.Failed, seeds)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("clean sweep wrote %d repro files", len(entries))
	}
	if res.Table().NumRows() != len(PropertyNames()) {
		t.Errorf("summary table has %d rows, want %d", res.Table().NumRows(), len(PropertyNames()))
	}
}

// TestPropertyFilter: the name filter selects exactly the named properties
// and rejects unknown names.
func TestPropertyFilter(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Seeds: 1, OutDir: t.TempDir(),
		Properties: []string{"makespan-dominance"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Properties) != 1 || res.Properties[0].Name != "makespan-dominance" {
		t.Fatalf("filtered properties = %+v", res.Properties)
	}
	if _, err := Run(context.Background(), Options{Seeds: 1, Properties: []string{"no-such"}}); err == nil {
		t.Fatal("unknown property name accepted")
	}
}

// TestShrinkMinimizes drives the shrinker with a synthetic property that
// fails whenever the workload exceeds three tasks: the minimized spec must
// keep failing, land just above the threshold, and shed every optional
// model the failure does not need — from a free draw, a sited DAG and a
// bounded stream alike.
func TestShrinkMinimizes(t *testing.T) {
	fake := property{
		name: "fake-tasks-gt-3",
		check: func(_ context.Context, s *scenario.Spec, _ int) error {
			if s.Workload.Tasks > 3 {
				return fmt.Errorf("tasks = %d", s.Workload.Tasks)
			}
			return nil
		},
	}
	for _, seed := range []uint64{3, 5, 2} { // free draw, TwoSiteDAG, OverloadedStream
		sp := specgen.Generate(seed, specgen.Caps{})
		sp.Workload.Tasks = 32
		min, err := shrink(context.Background(), fake, sp, 2, 200)
		if err == nil {
			t.Fatalf("seed %d: shrink lost the failure", seed)
		}
		if min.Workload.Tasks <= 3 || min.Workload.Tasks > 7 {
			t.Errorf("seed %d: minimized tasks = %d, want in (3, 7]", seed, min.Workload.Tasks)
		}
		if got := len(min.Policies.Scheduling) * len(min.Policies.Migration); got != 1 {
			t.Errorf("seed %d: minimized matrix has %d cells, want 1", seed, got)
		}
		if min.Runs != 1 {
			t.Errorf("seed %d: minimized runs = %d, want 1", seed, min.Runs)
		}
		w, m := min.Workload, min.Machines
		if min.Owner != nil || min.Faults != nil || w.Constrained != nil || w.Graph != nil || m.Topology != nil ||
			w.QueueLimit != 0 || w.Arrivals.Kind != "batch" || m.Classes[0].Site != "" {
			data, _ := specgen.MarshalCanonical(min)
			t.Errorf("seed %d: optional models survived minimization:\n%s", seed, data)
		}
		if err := min.Validate(); err != nil {
			t.Errorf("seed %d: minimized spec does not validate: %v", seed, err)
		}
	}
	if !specgen.TwoSiteDAG(specgen.Generate(5, specgen.Caps{})) || !specgen.OverloadedStream(specgen.Generate(2, specgen.Caps{})) {
		t.Error("seeds 5 and 2 no longer draw a sited DAG and a bounded stream: pick other inputs")
	}
}

// TestShrinkBudget: minimization must respect its evaluation budget.
func TestShrinkBudget(t *testing.T) {
	evals := 0
	alwaysFail := property{
		name: "always-fail",
		check: func(context.Context, *scenario.Spec, int) error {
			evals++
			return errors.New("no")
		},
	}
	if _, err := shrink(context.Background(), alwaysFail, specgen.Generate(1, specgen.Caps{}), 2, 10); err == nil {
		t.Fatal("failure lost")
	}
	if evals > 11 { // initial re-check + budget
		t.Errorf("shrink spent %d evaluations on a budget of 10", evals)
	}
}

// TestWriteRepro: the reproduction file must itself be a valid `vcebench
// -spec` input naming the failed property.
func TestWriteRepro(t *testing.T) {
	dir := t.TempDir()
	sp := specgen.Generate(7, specgen.Caps{})
	path, err := writeRepro(dir, property{name: "execution-identity"}, 7, sp, errors.New("mode=boom: bang"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("repro written outside OutDir: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("repro file is not a valid spec: %v", err)
	}
	if !strings.Contains(got.Description, "execution-identity") || !strings.HasPrefix(got.Description, "mode=boom") {
		t.Errorf("repro description does not identify the failure: %q", got.Description)
	}
}

// TestHarnessReportsInjectedFailure runs the full sweep loop against a
// planted violation to exercise the failure path end to end (shrink, repro
// file, counters) without breaking the engine: on an OverloadedStream spec
// the real steady-state check is handed runs whose queue depth overshoots
// queue_limit. The repro must stay in the stratum — a candidate outside it is
// skipped, which is not failing — be smaller than the input, and run as a
// `vcebench -spec` file.
func TestHarnessReportsInjectedFailure(t *testing.T) {
	planted := property{
		name:    "steady-state-bounds",
		applies: specgen.OverloadedStream,
		check: onRuns(func(sp *scenario.Spec, run scenario.Indexes) error {
			run.QueueDepthMax = float64(sp.Workload.QueueLimit + 1)
			return steadyStateHolds(sp, run)
		}),
	}
	const seed = 2
	orig := specgen.Generate(seed, specgen.Caps{})
	opts := Options{Seeds: 1, BaseSeed: seed, OutDir: t.TempDir()}.withDefaults()
	res, err := sweep(context.Background(), opts, []property{planted})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Properties[0].Failed != 1 {
		t.Fatalf("planted violation reported as %+v / %+v", res.Properties, res.Failures)
	}
	f := res.Failures[0]
	if !strings.Contains(f.Err.Error(), "exceeded the admission limit") {
		t.Errorf("violation = %v", f.Err)
	}
	if !specgen.OverloadedStream(f.Spec) {
		t.Error("minimized spec left the stratum the property is defined on")
	}
	if f.Spec.Runs != 1 || len(f.Spec.Policies.Migration) != 1 || f.Spec.Owner != nil || f.Spec.Workload.Tasks >= orig.Workload.Tasks {
		data, _ := specgen.MarshalCanonical(f.Spec)
		t.Errorf("repro was not minimized:\n%s", data)
	}
	sp, err := scenario.Load(f.ReproPath)
	if err != nil {
		t.Fatalf("repro file is not a loadable spec: %v", err)
	}
	if _, err := scenario.RunContext(context.Background(), sp, scenario.Options{}); err != nil {
		t.Fatalf("repro spec does not run: %v", err)
	}
}

// TestLatticeNamesTheFailingMode: with one mode's runner corrupted — a byte
// flipped in whatever it returns — execution-identity fails exactly once on a
// spec, and the violation opens with that mode's name; specs outside both
// strata report the two stratum properties as skipped, never passed.
func TestLatticeNamesTheFailingMode(t *testing.T) {
	const seed = 1 // a free-draw spec in neither stratum
	opts := Options{Seeds: 1, BaseSeed: seed, OutDir: t.TempDir(), ShrinkBudget: -1}.withDefaults()
	for i, m := range executionModes() {
		modes := executionModes()
		modes[i].run = func(ctx context.Context, sp *scenario.Spec, workers int) (*scenario.Report, error) {
			rep, err := m.run(ctx, sp, workers)
			if err == nil {
				rep.Cells[0].Runs[0].Completed ^= 1
			}
			return rep, err
		}
		res, err := sweep(context.Background(), opts, []property{{name: "execution-identity", check: executionIdentity(modes)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0].Err.Error(), "mode="+m.name+": ") {
			t.Errorf("corrupted mode %s reported as %+v", m.name, res.Failures)
		}
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Properties {
		stratum := p.Name == "steady-state-bounds" || p.Name == "topology-conservation"
		if want := (PropertyResult{Name: p.Name, Passed: 1}); !stratum && p != want {
			t.Errorf("%+v, want %+v", p, want)
		}
		if want := (PropertyResult{Name: p.Name, Skipped: 1}); stratum && p != want {
			t.Errorf("%+v, want %+v", p, want)
		}
	}
}

// TestCountsInRange: each range of the counts property rejects what breaks
// it, including the reading of a pump that admits one task past its cap,
// and lets the extremes of a sound run through.
func TestCountsInRange(t *testing.T) {
	sp := &scenario.Spec{Workload: scenario.WorkloadSpec{Tasks: 5000}}
	for _, c := range []struct {
		name string
		run  scenario.Indexes
		ok   bool
	}{
		{"all-completed", scenario.Indexes{Completed: 5000}, true},
		{"all-rejected", scenario.Indexes{Rejected: 5000, RejectRatePct: 100}, true},
		{"unfinished-left", scenario.Indexes{Completed: 10, Rejected: 20, Failed: 3, RejectRatePct: 0.4}, true},
		{"pump-past-cap", scenario.Indexes{Completed: 5001, Rejected: -1, RejectRatePct: -0.02}, false},
		{"negative-completed", scenario.Indexes{Completed: -1}, false},
		{"double-counted", scenario.Indexes{Completed: 4000, Rejected: 1001}, false},
		{"negative-failed", scenario.Indexes{Failed: -1}, false},
		{"rate-over-100", scenario.Indexes{RejectRatePct: 100.5}, false},
	} {
		if err := countsInRange(sp, c.run); (err == nil) != c.ok {
			t.Errorf("%s: countsInRange = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
