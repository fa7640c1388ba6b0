package scenario

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testSpec returns a small but non-trivial scenario: heterogeneous machines,
// owner churn, faults, constrained tasks, a 2×2 matrix — every engine
// feature exercised at a size that runs in milliseconds.
func testSpec() *Spec {
	return &Spec{
		Name:     "engine-test",
		HorizonS: 900,
		Machines: MachineSetSpec{
			BandwidthMiBps: Float64(4),
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 4, Speed: Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: 1, Speed: Dist{Kind: "fixed", Value: 4}},
			},
		},
		Workload: WorkloadSpec{
			Tasks:          12,
			Work:           Dist{Kind: "uniform", Min: 30, Max: 90},
			Arrivals:       ArrivalSpec{Kind: "poisson", RatePerS: 0.1},
			ImageMiB:       1,
			Checkpointable: true,
			Constrained:    &ConstrainedSpec{Fraction: 0.25, Class: "mimd"},
		},
		Owner:  &OwnerSpec{MeanIdleS: 120, MeanBusyS: 60, BusyLoad: 1},
		Faults: &FaultSpec{MTBFHours: 0.2, DownS: 60},
		Policies: PolicyMatrix{
			Scheduling: []string{"greedy-best-fit", "utilization-first"},
			Migration:  []string{"suspend", "address-space"},
		},
		Runs: 2,
		Seed: 1234,
	}
}

// TestGoldenDeterminism is the reproducibility contract: the same spec and
// seed produce bitwise-identical indexes, run after run.
func TestGoldenDeterminism(t *testing.T) {
	a, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	b, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatalf("same spec + seed produced different indexes:\n%+v\nvs\n%+v", a.Cells, b.Cells)
	}
}

// TestSeedChangesOutcome guards against the opposite bug: a seed that is
// silently ignored would make every "independent" run identical.
func TestSeedChangesOutcome(t *testing.T) {
	a, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	sp.Seed = 99999
	b, err := RunContext(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatal("different seeds produced identical indexes — the seed is not wired through")
	}
}

func TestRunShape(t *testing.T) {
	sp := testSpec()
	rep, err := RunContext(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2×2 matrix)", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if len(cell.Runs) != sp.Runs {
			t.Errorf("cell %s/%s has %d runs, want %d", cell.Sched, cell.Migration, len(cell.Runs), sp.Runs)
		}
		for run, idx := range cell.Runs {
			if idx.Completed+idx.Rejected > sp.Workload.Tasks+int(idx.Failed) {
				t.Errorf("%s/%s run %d: completed %d + rejected %d inconsistent with %d tasks",
					cell.Sched, cell.Migration, run, idx.Completed, idx.Rejected, sp.Workload.Tasks)
			}
			if idx.MakespanS <= 0 || idx.MakespanS > sp.HorizonS+1 {
				t.Errorf("%s/%s run %d: makespan %v outside (0, horizon]", cell.Sched, cell.Migration, run, idx.MakespanS)
			}
			if idx.UtilizationPct < 0 || idx.UtilizationPct > 100 {
				t.Errorf("%s/%s run %d: utilization %v%%", cell.Sched, cell.Migration, run, idx.UtilizationPct)
			}
		}
	}
	// The migration column must actually migrate somewhere in the matrix,
	// and the suspend column must never migrate.
	for _, cell := range rep.Cells {
		for _, idx := range cell.Runs {
			if cell.Migration == "suspend" && idx.Migrations != 0 {
				t.Errorf("suspend cell recorded %d migrations", idx.Migrations)
			}
		}
	}
}

func TestRunInstanceMatchesRun(t *testing.T) {
	sp := testSpec()
	rep, err := RunContext(context.Background(), sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst := sp.Instances()[0]
	idx, err := RunInstanceContext(context.Background(), inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, rep.Cells[0].Runs[0]) {
		t.Errorf("RunInstanceContext = %+v, RunContext cell = %+v", idx, rep.Cells[0].Runs[0])
	}
}

// TestIndexTablePrecision guards the machine-facing contract: tiny values
// must survive into indexes.csv/json instead of rounding to "0".
func TestIndexTablePrecision(t *testing.T) {
	rep := &Report{
		Spec: testSpec(),
		Cells: []Cell{{
			Sched: "greedy-best-fit", Migration: "none",
			Runs: []Indexes{{ThroughputPerH: 1.00001}, {ThroughputPerH: 1.00004}},
		}},
	}
	tab := rep.IndexTable()
	stdCol := -1
	for i, c := range tab.Columns {
		if c == "throughput_per_h_std" {
			stdCol = i
		}
	}
	if stdCol < 0 {
		t.Fatal("no throughput_per_h_std column")
	}
	if got := tab.Cell(0, stdCol); got == "0" {
		t.Fatalf("sub-1e-4 stddev collapsed to %q in the machine-facing table", got)
	}
}

func TestWriteArtifacts(t *testing.T) {
	rep, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, err := rep.WriteArtifacts(dir)
	if err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	want := []string{"report.txt", "report.md", "indexes.csv", "indexes.json", "runs.csv", "spec.json", "report.json"}
	if len(written) != len(want) {
		t.Fatalf("wrote %d artifacts, want %d: %v", len(written), len(want), written)
	}
	for i, name := range want {
		if written[i] != filepath.Join(dir, name) {
			t.Errorf("written[%d] = %s, want %s: paths come back in step order", i, written[i], name)
		}
	}
	// A failed step returns its error and the paths of the steps before it,
	// whatever order the concurrent writers finished in.
	blocked := t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked, "indexes.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	part, err := rep.WriteArtifacts(blocked)
	if err == nil || !strings.Contains(err.Error(), "indexes.json") {
		t.Errorf("WriteArtifacts over a directory named indexes.json: err = %v", err)
	}
	if len(part) != 3 || part[2] != filepath.Join(blocked, "indexes.csv") {
		t.Errorf("WriteArtifacts before the failed step returned %v, want the first 3 paths", part)
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// indexes.csv must parse as CSV with one row per matrix cell.
	f, err := os.Open(filepath.Join(dir, "indexes.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("indexes.csv does not parse: %v", err)
	}
	if len(recs) != 1+len(rep.Cells) {
		t.Errorf("indexes.csv has %d records, want %d", len(recs), 1+len(rep.Cells))
	}
	// spec.json must round-trip through the parser.
	data, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Errorf("spec.json artifact does not re-parse: %v", err)
	}
	// report.json must round-trip through LoadReport into the same report.
	loaded, err := LoadReport(filepath.Join(dir, ReportFile))
	if err != nil {
		t.Fatalf("report.json artifact does not load: %v", err)
	}
	origJSON, _ := json.Marshal(rep)
	loadedJSON, _ := json.Marshal(loaded)
	if string(origJSON) != string(loadedJSON) {
		t.Error("report.json artifact does not round-trip byte-identically")
	}
}
