package scenario

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// equivalenceSpec is deliberately much larger than the golden-tiny fixture:
// two machine classes, Poisson arrivals, owner churn, faults, and a 2×3
// policy matrix over two seeds. It drives on the order of tens of thousands
// of kernel events per run, so any drift in the hot path — event ordering,
// processor-sharing accounting, completion detection — lands here even when
// the tiny fixture is too small to expose it.
func equivalenceSpec() *Spec {
	return &Spec{
		Name:        "equivalence-large",
		Description: "Large fixed-seed fixture pinning hot-path semantics across optimizations.",
		HorizonS:    5400,
		Machines: MachineSetSpec{
			BandwidthMiBps: Float64(8),
			LatencyMs:      2,
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 14, Speed: Dist{Kind: "uniform", Min: 1, Max: 3}},
				{Class: "mimd", Count: 4, Speed: Dist{Kind: "uniform", Min: 4, Max: 8}, Slots: 4},
			},
		},
		Workload: WorkloadSpec{
			Tasks:          140,
			Work:           Dist{Kind: "pareto", Alpha: 1.5, Xmin: 40},
			Arrivals:       ArrivalSpec{Kind: "poisson", RatePerS: 0.08},
			ImageMiB:       4,
			Checkpointable: true,
		},
		Owner:  &OwnerSpec{MeanIdleS: 300, MeanBusyS: 90, BusyLoad: 1},
		Faults: &FaultSpec{MTBFHours: 4, DownS: 120},
		Policies: PolicyMatrix{
			Scheduling: []string{"greedy-best-fit", "utilization-first"},
			Migration:  []string{"suspend", "checkpoint", "adaptive"},
		},
		Runs: 2,
		Seed: 1994,
	}
}

// TestEquivalenceLargeScenario runs the large fixture and compares the
// full-precision per-run artifacts byte-for-byte against the committed
// copies. An optimization must change no observable simulation result:
// identical completion instants, identical migration/suspension counts,
// identical aggregate float bytes. A deliberate semantics change
// regenerates them with -update and bumps EngineVersion in the same commit
// (last: vce-scenario/4, the cell-wide checkpoint cadence).
func TestEquivalenceLargeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture; skipped with -short")
	}
	rep, err := RunContext(context.Background(), equivalenceSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join("testdata", "golden-large")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// runs.csv pins every per-run index at full float precision; indexes.json
	// pins the aggregation (mean/stddev) arithmetic on top of it.
	for _, name := range []string{"runs.csv", "indexes.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		goldenPath := filepath.Join(goldenDir, name)
		if *update {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from the pinned semantics:\n--- got ---\n%s\n--- want ---\n%s",
				name, clip(got), clip(want))
		}
	}
}
