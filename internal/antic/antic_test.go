package antic

import (
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/compilemgr"
	"vce/internal/netsim"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vfs"
)

func TestExtraInstances(t *testing.T) {
	cases := []struct {
		min, max, idle, want int
	}{
		{1, 1, 10, 1},    // fixed count
		{1, 5, 10, 5},    // "ASYNC 5-": up to 5
		{1, 5, 3, 3},     // capped by idle machines
		{5, 10, 2, 5},    // never below min
		{1, 0, 100, 100}, // unbounded: soak up all idle machines
		{0, 0, 4, 4},     // zero min defaults to 1 but idle wins
	}
	for _, c := range cases {
		if got := ExtraInstances(c.min, c.max, c.idle); got != c.want {
			t.Errorf("ExtraInstances(%d,%d,%d) = %d, want %d", c.min, c.max, c.idle, got, c.want)
		}
	}
}

func testGraphAndMgr(t *testing.T) (*taskgraph.Graph, *compilemgr.Manager, *arch.DB) {
	t.Helper()
	db := arch.NewDB()
	_ = db.Add(arch.Machine{Name: "ws1", Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.BigEndian})
	_ = db.Add(arch.Machine{Name: "cm5", Class: arch.SIMD, Speed: 50, OS: "cmost", Order: arch.BigEndian})
	mgr := compilemgr.New(db, compilemgr.CostModel{Base: 10 * time.Second})
	g := taskgraph.New("two-stage")
	first := taskgraph.Task{ID: "first", Program: "/apps/first.vce",
		Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation}}, WorkUnits: 10}
	second := taskgraph.Task{ID: "second", Program: "/apps/second.vce", ImageBytes: 1 << 20,
		Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation, arch.SIMD}},
		InputFiles:   []string{"/data/obs.dat"}, WorkUnits: 20}
	for _, task := range []taskgraph.Task{first, second} {
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddArc(taskgraph.Arc{From: "first", To: "second", Kind: taskgraph.Precedence}); err != nil {
		t.Fatal(err)
	}
	return g, mgr, db
}

func TestCompilationPlansTargetFutureTasksOnly(t *testing.T) {
	g, mgr, _ := testGraphAndMgr(t)
	done := map[taskgraph.TaskID]bool{}
	started := map[taskgraph.TaskID]bool{}
	plans := CompilationPlans(mgr, g, done, started)
	// "first" is ready (not future); only "second" gets plans: one per
	// distinct target (ws and cm5 differ).
	if len(plans) != 2 {
		t.Fatalf("plans = %+v", plans)
	}
	for _, p := range plans {
		if p.Task != "second" {
			t.Fatalf("plan for %s; anticipation must target future tasks", p.Task)
		}
		if p.Cost <= 0 {
			t.Fatal("zero-cost plan")
		}
	}
}

func TestCompilationPlansSkipCachedTargets(t *testing.T) {
	g, mgr, _ := testGraphAndMgr(t)
	second, _ := g.Task("second")
	if _, _, err := mgr.PrepareAll(second); err != nil {
		t.Fatal(err)
	}
	plans := CompilationPlans(mgr, g, map[taskgraph.TaskID]bool{}, map[taskgraph.TaskID]bool{})
	if len(plans) != 0 {
		t.Fatalf("plans after warm cache = %+v", plans)
	}
}

func TestExecuteCompileWarmsCacheViaIdleMachine(t *testing.T) {
	g, mgr, _ := testGraphAndMgr(t)
	c := sim.NewCluster()
	idle, _ := c.AddMachine(arch.Machine{Name: "ws1", Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.BigEndian})
	plans := CompilationPlans(mgr, g, map[taskgraph.TaskID]bool{}, map[taskgraph.TaskID]bool{})
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	if _, err := ExecuteCompile(c, mgr, g, plans[0], idle); err != nil {
		t.Fatal(err)
	}
	if _, cached := mgr.Lookup("/apps/second.vce", plans[0].Target); cached {
		t.Fatal("cache warm before compile finished")
	}
	c.Sim.Run()
	if _, cached := mgr.Lookup("/apps/second.vce", plans[0].Target); !cached {
		t.Fatal("cache cold after anticipatory compile")
	}
	if c.Sim.Now() != 10*time.Second {
		t.Fatalf("compile took %v, want 10s", c.Sim.Now())
	}
}

func TestReplicationPlansAndExecution(t *testing.T) {
	g, _, _ := testGraphAndMgr(t)
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	fs := vfs.New()
	if err := fs.Create("/data/obs.dat", 1<<20, "origin"); err != nil {
		t.Fatal(err)
	}
	candidates := map[taskgraph.TaskID][]string{"second": {"ws1", "ws2"}}
	plans, err := ReplicationPlans(fs, g, map[taskgraph.TaskID]bool{}, map[taskgraph.TaskID]bool{}, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %+v", plans)
	}
	for _, p := range plans {
		if err := ExecuteReplicate(c, fs, p); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run()
	if !fs.HasReplica("/data/obs.dat", "ws1") || !fs.HasReplica("/data/obs.dat", "ws2") {
		t.Fatal("replicas missing after anticipatory replication")
	}
	// Transfer of 1 MiB at 1 MiB/s: done at 1s.
	if c.Sim.Now() != time.Second {
		t.Fatalf("replication finished at %v", c.Sim.Now())
	}
}

func TestReplicationPlansMissingInputIsError(t *testing.T) {
	g, _, _ := testGraphAndMgr(t)
	fs := vfs.New() // the input file was never created
	_, err := ReplicationPlans(fs, g, map[taskgraph.TaskID]bool{}, map[taskgraph.TaskID]bool{},
		map[taskgraph.TaskID][]string{"second": {"ws1"}})
	if err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestStageInLatency(t *testing.T) {
	g, _, _ := testGraphAndMgr(t)
	c := sim.NewCluster()
	c.Net = netsim.New(netsim.Link{Latency: 0, Bandwidth: 1 << 20})
	fs := vfs.New()
	if err := fs.Create("/data/obs.dat", 1<<20, "origin"); err != nil {
		t.Fatal(err)
	}
	second, _ := g.Task("second")
	cold, err := StageInLatency(c, fs, second, "ws1")
	if err != nil {
		t.Fatal(err)
	}
	if cold != time.Second {
		t.Fatalf("cold stage-in = %v, want 1s", cold)
	}
	if _, err := fs.Replicate("/data/obs.dat", "ws1"); err != nil {
		t.Fatal(err)
	}
	warm, err := StageInLatency(c, fs, second, "ws1")
	if err != nil {
		t.Fatal(err)
	}
	if warm != 0 {
		t.Fatalf("warm stage-in = %v, want 0", warm)
	}
}

func TestPlansAfterPredecessorCompletes(t *testing.T) {
	// Once "first" completes, "second" becomes ready and is no longer an
	// anticipation target.
	g, mgr, _ := testGraphAndMgr(t)
	done := map[taskgraph.TaskID]bool{"first": true}
	plans := CompilationPlans(mgr, g, done, map[taskgraph.TaskID]bool{})
	if len(plans) != 0 {
		t.Fatalf("plans for ready task = %+v", plans)
	}
}
