package specgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vce/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus from the current generator output")

// corpusSize is how many seeds, from 0, the committed corpus holds: enough
// diversity to cover every optional spec axis and both strata twice.
const corpusSize = 16

// TestGeneratedSpecsAlwaysValid sweeps a wide seed range: every generated
// spec must validate, re-validate after defaults, expand to the matrix area
// its policy lists promise, and round-trip through the JSON parser.
func TestGeneratedSpecsAlwaysValid(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	for seed := 0; seed < n; seed++ {
		sp := Generate(uint64(seed), Caps{})
		if err := sp.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		insts := sp.Instances()
		want := len(sp.Policies.Scheduling) * len(sp.Policies.Migration)
		if len(insts) != want {
			t.Fatalf("seed %d: %d instances, want %d", seed, len(insts), want)
		}
		if want > DefaultCaps().MaxCells {
			t.Fatalf("seed %d: matrix area %d exceeds cap %d", seed, want, DefaultCaps().MaxCells)
		}
		data, err := MarshalCanonical(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Parse(data); err != nil {
			t.Fatalf("seed %d: generated spec does not re-parse: %v\n%s", seed, err, data)
		}
	}
}

// TestGenerateDeterministic: equal (seed, caps) must yield byte-identical
// specs — the replay contract every check-harness failure report relies on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		a, err := MarshalCanonical(Generate(seed, Caps{}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalCanonical(Generate(seed, Caps{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: generator is nondeterministic:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestGenerateRespectsCaps pins the size bounds small harness configurations
// depend on.
func TestGenerateRespectsCaps(t *testing.T) {
	caps := Caps{MaxMachines: 3, MaxTasks: 5, MaxRuns: 1, MaxHorizonS: 120, MaxCells: 2}
	for seed := uint64(0); seed < 200; seed++ {
		sp := Generate(seed, caps)
		total := 0
		for _, cl := range sp.Machines.Classes {
			total += cl.Count
		}
		if total > caps.MaxMachines {
			t.Fatalf("seed %d: %d machines > cap %d", seed, total, caps.MaxMachines)
		}
		if sp.Workload.Tasks > caps.MaxTasks {
			t.Fatalf("seed %d: %d tasks > cap %d", seed, sp.Workload.Tasks, caps.MaxTasks)
		}
		if sp.Runs > caps.MaxRuns {
			t.Fatalf("seed %d: %d runs > cap %d", seed, sp.Runs, caps.MaxRuns)
		}
		if sp.HorizonS > caps.MaxHorizonS {
			t.Fatalf("seed %d: horizon %v > cap %v", seed, sp.HorizonS, caps.MaxHorizonS)
		}
		if area := len(sp.Policies.Scheduling) * len(sp.Policies.Migration); area > caps.MaxCells {
			t.Fatalf("seed %d: matrix area %d > cap %d", seed, area, caps.MaxCells)
		}
	}
}

// TestCoverageAcrossSeeds: the generator must actually exercise the optional
// spec axes somewhere in a modest seed range, or the property harness is
// sweeping a blind spot — and the two strata the harness's streaming and
// topology properties run on must each appear in CI's 25-seed slice, under
// every cap set the repo generates with.
func TestCoverageAcrossSeeds(t *testing.T) {
	axes := map[string]int{}
	count := func(name string, hit bool) {
		hits := axes[name] // a miss still registers the axis
		if hit {
			hits++
		}
		axes[name] = hits
	}
	const n = 200
	for seed := 0; seed < n; seed++ {
		sp := Generate(uint64(seed), Caps{})
		count("owner", sp.Owner != nil)
		count("faults", sp.Faults != nil)
		count("constrained", sp.Workload.Constrained != nil)
		count("multi-class", len(sp.Machines.Classes) > 1)
		for _, kind := range []string{"poisson", "diurnal", "trace"} {
			count(kind, sp.Workload.Arrivals.Kind == kind)
		}
		count("queue_limit", sp.Workload.QueueLimit > 0)
		count("graph", sp.Workload.Graph != nil)
		count("topology", sp.Machines.Topology != nil)
		for _, cl := range sp.Machines.Classes {
			count("slots", cl.Slots > 0)
			count("site", cl.Site != "")
		}
	}
	for name, got := range axes {
		if got == 0 {
			t.Errorf("axis %q never generated in %d seeds", name, n)
		}
	}
	for name, caps := range map[string]Caps{"default": {}, "fuzz": fuzzCaps} {
		var streams, dags int
		for seed := uint64(1); seed <= 25; seed++ {
			sp := Generate(seed, caps)
			if OverloadedStream(sp) {
				streams++
			}
			if TwoSiteDAG(sp) {
				dags++
			}
		}
		if streams < 3 || dags < 3 {
			t.Errorf("%s caps: seeds 1..25 hold %d overloaded streams and %d two-site DAGs, want at least 3 of each", name, streams, dags)
		}
	}
}

// corpusPath returns the committed corpus file for a seed.
func corpusPath(seed int) string {
	return filepath.Join("testdata", "corpus", fmt.Sprintf("gen-%03d.json", seed))
}

// TestCorpusInSync regenerates the committed corpus from its fixed seeds and
// fails on any byte drift: the corpus is a build artifact of the generator,
// and letting them diverge would fuzz yesterday's spec shapes. Regenerate
// with -update after a deliberate generator change.
func TestCorpusInSync(t *testing.T) {
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "corpus"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for seed := 0; seed < corpusSize; seed++ {
		want, err := MarshalCanonical(Generate(uint64(seed), Caps{}))
		if err != nil {
			t.Fatal(err)
		}
		path := corpusPath(seed)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing corpus file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the generator (regenerate with -update if intended)", path)
		}
	}
}
