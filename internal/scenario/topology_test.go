package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"vce/internal/arch"
)

// topoSpec is the shared two-site fixture: four workstations on campus, two
// mimd hosts in the center, fast intra links and a slow cross-site pipe.
func topoSpec() *Spec {
	return &Spec{
		Name:     "topo-test",
		HorizonS: 3000,
		Machines: MachineSetSpec{
			BandwidthMiBps: Float64(4),
			LatencyMs:      2,
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 4, Speed: Dist{Kind: "fixed", Value: 1}, Site: "campus"},
				{Class: "mimd", Count: 2, Speed: Dist{Kind: "fixed", Value: 3}, Slots: 2, Site: "center"},
			},
			Topology: &TopologySpec{
				IntraLatencyMs:      0.5,
				IntraBandwidthMiBps: 16,
				InterLatencyMs:      25,
				InterBandwidthMiBps: 1,
			},
		},
		Workload: WorkloadSpec{
			Tasks: 24,
			Work:  Dist{Kind: "uniform", Min: 10, Max: 40},
			Graph: &GraphSpec{Kind: "fanout", FanOut: 3, DataMiB: 2},
		},
		Policies: PolicyMatrix{
			Scheduling: []string{"locality", "greedy-best-fit"},
			Migration:  []string{"none"},
		},
		Runs: 2,
		Seed: 94,
	}
}

// TestBuildTopology pins the site realization: class-major machine-to-site
// mapping, intra/inter link selection, per-pair overrides, and the resolver
// and cost-matrix views the engine and the locality policy consume.
func TestBuildTopology(t *testing.T) {
	sp := topoSpec().withDefaults()
	ms := &sp.Machines
	ms.Topology.Links = []LinkSpec{{A: "campus", B: "center", LatencyMs: 40}}
	specs := []arch.Machine{
		{Name: "ws-0"}, {Name: "ws-1"}, {Name: "ws-2"}, {Name: "ws-3"},
		{Name: "mimd-0"}, {Name: "mimd-1"},
	}
	topo := buildTopology(ms, specs)
	if topo == nil {
		t.Fatal("buildTopology returned nil for a sited two-class spec")
	}
	if len(topo.sites) != 2 || topo.sites[0] != "campus" || topo.sites[1] != "center" {
		t.Fatalf("sites = %v, want [campus center] in declaration order", topo.sites)
	}
	wantSite := []int{0, 0, 0, 0, 1, 1}
	for i, want := range wantSite {
		if topo.siteOf[i] != want {
			t.Errorf("siteOf[%d] = %d, want %d (class-major blocks)", i, topo.siteOf[i], want)
		}
	}
	intra := topo.links[0][0]
	if intra.Latency != 500*time.Microsecond || intra.Bandwidth != 16*(1<<20) {
		t.Errorf("intra link = %+v, want 0.5ms / 16 MiB/s", intra)
	}
	// The per-pair override replaces latency but inherits inter bandwidth.
	cross := topo.links[0][1]
	if cross.Latency != 40*time.Millisecond || cross.Bandwidth != 1*(1<<20) {
		t.Errorf("cross link = %+v, want 40ms / 1 MiB/s (pair override on inter base)", cross)
	}
	if topo.links[1][0] != cross {
		t.Error("link matrix is not symmetric")
	}

	resolve := topo.resolver()
	if l, ok := resolve("ws-1", "mimd-0"); !ok || l != cross {
		t.Errorf("resolver(ws-1, mimd-0) = %+v, %v; want cross link", l, ok)
	}
	if l, ok := resolve("ws-1", "ws-3"); !ok || l != intra {
		t.Errorf("resolver(ws-1, ws-3) = %+v, %v; want intra link", l, ok)
	}
	if _, ok := resolve("ws-1", "stranger"); ok {
		t.Error("resolver matched a machine outside the fleet")
	}

	cost := topo.costMatrix(1 << 20) // 1 MiB payload
	wantIntra := 0.0005 + 1.0/16
	wantCross := 0.040 + 1.0
	if !near(cost[0][0], wantIntra) || !near(cost[0][1], wantCross) {
		t.Errorf("costMatrix = %v, want intra %v / cross %v", cost, wantIntra, wantCross)
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// TestTopologyInactive: partial siting or a single site leaves the flat
// single-link path in charge (nil topology), matching pre-topology engines.
func TestTopologyInactive(t *testing.T) {
	ms := MachineSetSpec{
		BandwidthMiBps: Float64(4),
		Classes: []MachineClassSpec{
			{Class: "workstation", Count: 2, Site: "campus"},
			{Class: "mimd", Count: 1}, // unsited
		},
	}
	if buildTopology(&ms, nil) != nil {
		t.Error("partially sited classes must not activate a topology")
	}
	ms.Classes[1].Site = "campus" // all one site
	if buildTopology(&ms, nil) != nil {
		t.Error("a single site must not activate a topology")
	}
}

// TestTopologyValidation: the spec schema rejects broken site models and
// graphs with errors naming the offending field.
func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sp *Spec)
		want string
	}{
		{"zero bandwidth", func(sp *Spec) {
			sp.Machines.BandwidthMiBps = Float64(0)
		}, "machines.bandwidth_mib_s must be positive"},
		{"unsited class under topology", func(sp *Spec) {
			sp.Machines.Classes[1].Site = ""
		}, "to declare a site"},
		{"single-site topology", func(sp *Spec) {
			sp.Machines.Classes[1].Site = "campus"
		}, "at least two distinct sites"},
		{"link to undeclared site", func(sp *Spec) {
			sp.Machines.Topology.Links = []LinkSpec{{A: "campus", B: "mars", LatencyMs: 1}}
		}, "must both be declared class sites"},
		{"negative topology latency", func(sp *Spec) {
			sp.Machines.Topology.InterLatencyMs = -1
		}, "negative latency"},
		{"unknown graph kind", func(sp *Spec) {
			sp.Workload.Graph.Kind = "tree"
		}, "unknown kind"},
		{"graph on streaming arrivals", func(sp *Spec) {
			sp.Workload.Arrivals = ArrivalSpec{Kind: "diurnal", RatePerS: 1}
		}, "closed arrival source"},
		{"negative graph data", func(sp *Spec) {
			sp.Workload.Graph.DataMiB = -2
		}, "negative data_mib"},
		{"graph edge_prob out of range", func(sp *Spec) {
			sp.Workload.Graph = &GraphSpec{Kind: "random", EdgeProb: 1.5}
		}, "edge_prob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := topoSpec()
			tc.mut(sp)
			err := sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := topoSpec().Validate(); err != nil {
		t.Fatalf("fixture spec must validate: %v", err)
	}
}

// TestDagTopologyRun drives the full engine over the two-site DAG fixture:
// every task is accounted for exactly once, the DAG ordering audit passes
// (Run errors if a child ever finishes before its last parent), the stretch
// index is positive (it can dip below 1 — the critical path is priced at
// unit speed, and the mimd hosts run 3× faster), and every cell reports its
// affinity indexes in range.
func TestDagTopologyRun(t *testing.T) {
	rep, err := RunContext(context.Background(), topoSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want locality + greedy-best-fit", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		for r, idx := range cell.Runs {
			if got := idx.Completed + idx.Rejected; got != 24 {
				t.Errorf("%s run %d: completed %d + rejected %d = %d, want 24",
					cell.Sched, r, idx.Completed, idx.Rejected, got)
			}
			if idx.Completed == 0 {
				t.Errorf("%s run %d: no task completed", cell.Sched, r)
			}
			if idx.CriticalPathStretch <= 0 {
				t.Errorf("%s run %d: critical_path_stretch %v, want > 0", cell.Sched, r, idx.CriticalPathStretch)
			}
			if idx.XferWaitS < 0 {
				t.Errorf("%s run %d: negative xfer_wait_s %v", cell.Sched, r, idx.XferWaitS)
			}
			if idx.ForwardedPct < 0 || idx.ForwardedPct > 100 {
				t.Errorf("%s run %d: forwarded_pct %v outside [0, 100]", cell.Sched, r, idx.ForwardedPct)
			}
		}
	}
}

// TestFlatSpecsUnaffected: a spec with no sites and no graph produces
// zero-valued topology indexes — the new columns are inert on legacy specs.
func TestFlatSpecsUnaffected(t *testing.T) {
	rep, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range rep.Cells {
		for r, idx := range cell.Runs {
			if idx.ForwardedPct != 0 || idx.XferWaitS != 0 || idx.CriticalPathStretch != 0 {
				t.Errorf("%s run %d: flat spec has topology indexes %v/%v/%v",
					cell.Sched, r, idx.ForwardedPct, idx.XferWaitS, idx.CriticalPathStretch)
			}
		}
	}
}
