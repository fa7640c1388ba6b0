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
	// runs.csv pins every per-run index at full float precision; indexes.json
	// pins the aggregation (mean/stddev) arithmetic on top of it.
	checkPerCellGolden(t, rep, "golden-large")
}

// topologySpec is the fixture for the paths the flat fixtures never reach:
// a three-site random DAG with data staging between sites, the locality
// policy's wait/forward triad against site-blind greedy placement, a
// constrained fraction pinned to the center's slotted machines, and owner
// churn so capacity comes and goes under migration.
func topologySpec() *Spec {
	return &Spec{
		Name:        "golden-topo",
		Description: "Fixed-seed fixture pinning topology, locality placement and constrained waiters.",
		HorizonS:    3600,
		Machines: MachineSetSpec{
			BandwidthMiBps: Float64(4),
			LatencyMs:      2,
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 4, Site: "campus", Speed: Dist{Kind: "uniform", Min: 1, Max: 2}},
				{Class: "mimd", Count: 1, Slots: 3, Site: "center", Speed: Dist{Kind: "fixed", Value: 4}},
				{Class: "vector", Count: 2, Site: "annex", Speed: Dist{Kind: "uniform", Min: 1, Max: 3}},
			},
			Topology: &TopologySpec{
				IntraLatencyMs: 1, IntraBandwidthMiBps: 8,
				InterLatencyMs: 25, InterBandwidthMiBps: 0.75,
			},
		},
		Workload: WorkloadSpec{
			Tasks:       96,
			Work:        Dist{Kind: "uniform", Min: 40, Max: 120},
			Arrivals:    ArrivalSpec{Kind: "poisson", RatePerS: 1},
			Graph:       &GraphSpec{Kind: "random", EdgeProb: 0.15, DataMiB: 4},
			ImageMiB:    2,
			Constrained: &ConstrainedSpec{Fraction: 0.2, Class: "mimd"},
		},
		Owner: &OwnerSpec{MeanIdleS: 240, MeanBusyS: 90, BusyLoad: 1},
		Policies: PolicyMatrix{
			Scheduling: []string{"locality", "greedy-best-fit"},
			Migration:  []string{"none", "address-space"},
		},
		Runs: 2,
		Seed: 33,
	}
}

// TestGoldenTopology pins the per-run indexes of the topology fixture the
// way TestEquivalenceLargeScenario pins the large flat one.
func TestGoldenTopology(t *testing.T) {
	rep, err := RunContext(context.Background(), topologySpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkPerCellGolden(t, rep, "golden-topo")
}

// checkPerCellGolden writes rep's artifacts and compares its per-cell files,
// runs.csv and indexes.json, against testdata/<name> (rewriting them under
// -update).
func checkPerCellGolden(t *testing.T, rep *Report, name string) {
	t.Helper()
	dir := t.TempDir()
	if _, err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	goldenDir := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
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

// TestGoldensPassAudit runs the golden fixtures and the small example specs
// audited: the engine auditor and the cell's fleet-snapshot check must find
// nothing, and auditing must not move a byte of report.json. A writer the
// snapshot's stale set misses fails here even where the missed slot happens
// not to move a placement, so no golden number would show it.
func TestGoldensPassAudit(t *testing.T) {
	specs := []*Spec{goldenSpec(), topologySpec()}
	if !testing.Short() {
		specs = append(specs, equivalenceSpec())
	}
	for _, name := range []string{"dag-locality", "faulty-fleet", "hetero-baseline", "owner-churn"} {
		sp, err := Load(filepath.Join("../../examples/scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			report := func(audit bool) []byte {
				rep, err := RunContext(context.Background(), sp, Options{Workers: 2, Audit: audit})
				if err != nil {
					t.Fatalf("audit=%v: %v", audit, err)
				}
				dir := t.TempDir()
				if _, err := rep.WriteArtifacts(dir); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(dir, "report.json"))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if plain, audited := report(false), report(true); string(plain) != string(audited) {
				t.Errorf("audited report.json differs from the unaudited one:\n--- audited ---\n%s\n--- plain ---\n%s", clip(audited), clip(plain))
			}
		})
	}
}
