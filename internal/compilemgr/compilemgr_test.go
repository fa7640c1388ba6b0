package compilemgr

import (
	"sync"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

func testDB(t *testing.T) *arch.DB {
	t.Helper()
	db := arch.NewDB()
	machines := []arch.Machine{
		{Name: "ws1", Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.BigEndian},
		{Name: "ws2", Class: arch.Workstation, Speed: 1.5, OS: "unix", Order: arch.BigEndian},
		{Name: "ws3", Class: arch.Workstation, Speed: 1, OS: "unix", Order: arch.LittleEndian},
		{Name: "cm5", Class: arch.SIMD, Speed: 60, OS: "cmost", Order: arch.BigEndian},
		{Name: "sp1", Class: arch.MIMD, Speed: 25, OS: "unix", Order: arch.BigEndian},
	}
	for _, m := range machines {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func wsTask(id string) taskgraph.Task {
	return taskgraph.Task{
		ID:           taskgraph.TaskID(id),
		Program:      "/apps/" + id + ".vce",
		Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation}},
		ImageBytes:   1 << 20,
		Language:     "C+MPI",
	}
}

func TestTargetKeyDistinguishesSignatures(t *testing.T) {
	a := Target{Class: arch.Workstation, OS: "unix", Order: arch.BigEndian}
	b := Target{Class: arch.Workstation, OS: "unix", Order: arch.LittleEndian}
	if a.Key() == b.Key() {
		t.Fatal("distinct byte orders share a key")
	}
}

func TestTargetsDeduplicateCompatibleMachines(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	targets := m.Targets(wsTask("a"))
	// ws1 and ws2 share a signature; ws3 differs by byte order.
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
}

func TestPrepareAllCompilesPerTarget(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	bins, cost, err := m.PrepareAll(wsTask("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("binaries = %d", len(bins))
	}
	if cost <= 0 {
		t.Fatal("compilation cost was free")
	}
	compiles, hits := m.Stats()
	if compiles != 2 || hits != 0 {
		t.Fatalf("stats = %d compiles, %d hits", compiles, hits)
	}
}

func TestPrepareAllSecondCallIsFree(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	if _, _, err := m.PrepareAll(wsTask("a")); err != nil {
		t.Fatal(err)
	}
	_, cost, err := m.PrepareAll(wsTask("a"))
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("cached preparation cost %v, want 0", cost)
	}
	_, hits := m.Stats()
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestPrepareAllNoCandidates(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	task := wsTask("a")
	task.Requirements = arch.Requirements{Classes: []arch.Class{arch.Vector}}
	if _, _, err := m.PrepareAll(task); err == nil {
		t.Fatal("task with no candidate machines accepted")
	}
}

func TestCompileTimeScalesWithImage(t *testing.T) {
	c := CostModel{Base: 10 * time.Second, PerMiB: 5 * time.Second}
	small := c.CompileTime(1 << 20)
	big := c.CompileTime(10 << 20)
	if small != 15*time.Second {
		t.Fatalf("1 MiB compile = %v", small)
	}
	if big != 60*time.Second {
		t.Fatalf("10 MiB compile = %v", big)
	}
	if c.CompileTime(0) != 10*time.Second {
		t.Fatal("zero image should cost only the base")
	}
}

func TestHasBinaryFor(t *testing.T) {
	db := testDB(t)
	m := New(db, DefaultCostModel())
	task := wsTask("a")
	ws1, _ := db.Get("ws1")
	ws3, _ := db.Get("ws3")
	cm5, _ := db.Get("cm5")
	if m.HasBinaryFor(task.Program, ws1) {
		t.Fatal("binary exists before compilation")
	}
	if _, _, err := m.PrepareAll(task); err != nil {
		t.Fatal(err)
	}
	if !m.HasBinaryFor(task.Program, ws1) || !m.HasBinaryFor(task.Program, ws3) {
		t.Fatal("candidate machine lacks binary after PrepareAll")
	}
	if m.HasBinaryFor(task.Program, cm5) {
		t.Fatal("binary claims to run on a non-candidate class")
	}
}

func TestPrepareGraph(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	g := taskgraph.New("app")
	a := wsTask("a")
	b := wsTask("b")
	b.Requirements = arch.Requirements{Classes: []arch.Class{arch.SIMD}}
	for _, task := range []taskgraph.Task{a, b} {
		if err := g.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	bins, total, err := m.PrepareGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins["a"]) != 2 || len(bins["b"]) != 1 {
		t.Fatalf("bins = %v", bins)
	}
	if total <= 0 {
		t.Fatal("graph preparation was free")
	}
}

func TestPrepareGraphFailsOnImpossibleTask(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	g := taskgraph.New("app")
	task := wsTask("x")
	task.Requirements = arch.Requirements{Classes: []arch.Class{arch.Vector}}
	if err := g.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PrepareGraph(g); err == nil {
		t.Fatal("impossible graph accepted")
	}
}

func TestConcurrentPrepare(t *testing.T) {
	m := New(testDB(t), DefaultCostModel())
	task := wsTask("hot")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := m.PrepareAll(task); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	compiles, _ := m.Stats()
	if compiles != 2 {
		t.Fatalf("compiles = %d, want 2 (one per target, races deduplicated)", compiles)
	}
}
