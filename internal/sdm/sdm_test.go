package sdm

import (
	"testing"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

func weatherSpec() Spec {
	return Spec{
		Name: "snow",
		Tasks: []TaskSpec{
			{Name: "collector", Program: "/apps/snow/collector.vce", Instances: 2, Nature: []string{"montecarlo"}, WorkUnits: 30},
			{Name: "usercollect", Program: "/apps/snow/usercollect.vce", Nature: []string{"interactive"}, WorkUnits: 5},
			{Name: "predictor", Program: "/apps/snow/predictor.vce", Nature: []string{"dataparallel"}, WorkUnits: 120},
			{Name: "display", Program: "/apps/snow/display.vce", Local: true, Nature: []string{"graphic"}, WorkUnits: 3},
		},
		Flows: []Flow{
			{From: "collector", To: "predictor", Channel: "obs"},
			{From: "usercollect", To: "predictor"},
			{From: "predictor", To: "display", Channel: "viz"},
		},
	}
}

func TestSpecGraph(t *testing.T) {
	g, err := weatherSpec().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("tasks = %d", g.Len())
	}
	if len(g.Arcs()) != 3 {
		t.Fatalf("arcs = %d", len(g.Arcs()))
	}
	col, _ := g.Task("collector")
	if col.MinInstances != 2 {
		t.Fatalf("collector instances = %d", col.MinInstances)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := (Spec{}).Graph(); err == nil {
		t.Fatal("unnamed spec accepted")
	}
	bad := Spec{Name: "x", Tasks: []TaskSpec{{Name: "a"}}, Flows: []Flow{{From: "a", To: "ghost"}}}
	if _, err := bad.Graph(); err == nil {
		t.Fatal("flow to unknown task accepted")
	}
	cyc := Spec{Name: "x", Tasks: []TaskSpec{{Name: "a"}, {Name: "b"}},
		Deps: []Dep{{From: "a", To: "b"}, {From: "b", To: "a"}}}
	if _, err := cyc.Graph(); err == nil {
		t.Fatal("dependency cycle accepted")
	}
}

func TestDesignClassification(t *testing.T) {
	g, err := weatherSpec().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := Design(g); err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks() {
		if task.Problem == arch.ProblemUnknown {
			t.Fatalf("task %s left unclassified", task.ID)
		}
	}
	pred, _ := g.Task("predictor")
	if pred.Problem != arch.Synchronous {
		t.Fatalf("predictor classified %v, want Synchronous (dataparallel)", pred.Problem)
	}
	col, _ := g.Task("collector")
	if col.Problem != arch.Asynchronous {
		t.Fatalf("collector classified %v, want Asynchronous (montecarlo)", col.Problem)
	}
	if len(pred.Requirements.Classes) == 0 || pred.Requirements.Classes[0] != arch.SIMD {
		t.Fatalf("predictor machine classes = %v, want SIMD first", pred.Requirements.Classes)
	}
	disp, _ := g.Task("display")
	if len(disp.Requirements.Classes) != 1 || disp.Requirements.Classes[0] != arch.Workstation {
		t.Fatalf("local task classes = %v", disp.Requirements.Classes)
	}
}

func TestDesignRespectsExplicitClass(t *testing.T) {
	g := taskgraph.New("x")
	if err := g.AddTask(taskgraph.Task{ID: "t", Problem: arch.LooselySynchronous}); err != nil {
		t.Fatal(err)
	}
	if err := Design(g); err != nil {
		t.Fatal(err)
	}
	tt, _ := g.Task("t")
	if tt.Problem != arch.LooselySynchronous {
		t.Fatal("explicit class overwritten")
	}
}

func TestDesignBidirectionalStreamsMeanLooselySynchronous(t *testing.T) {
	g := taskgraph.New("x")
	for _, id := range []taskgraph.TaskID{"a", "b"} {
		if err := g.AddTask(taskgraph.Task{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddArc(taskgraph.Arc{From: "a", To: "b", Kind: taskgraph.Stream}); err != nil {
		t.Fatal(err)
	}
	if err := Design(g); err != nil {
		t.Fatal(err)
	}
	a, _ := g.Task("a")
	if a.Problem != arch.LooselySynchronous {
		t.Fatalf("coupled task classified %v", a.Problem)
	}
}

func TestCodeAssignsLanguages(t *testing.T) {
	g, _ := weatherSpec().Graph()
	if err := Design(g); err != nil {
		t.Fatal(err)
	}
	if err := Code(g); err != nil {
		t.Fatal(err)
	}
	pred, _ := g.Task("predictor")
	if pred.Language != "HPF" {
		t.Fatalf("synchronous language = %q, want HPF", pred.Language)
	}
	col, _ := g.Task("collector")
	if col.Language != "C+MPI" {
		t.Fatalf("asynchronous language = %q, want C+MPI", col.Language)
	}
}

func TestCodeFailsOnUnclassified(t *testing.T) {
	g := taskgraph.New("x")
	if err := g.AddTask(taskgraph.Task{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := Code(g); err == nil {
		t.Fatal("unclassified task passed coding level")
	}
}

func TestCodeKeepsExplicitLanguage(t *testing.T) {
	g := taskgraph.New("x")
	if err := g.AddTask(taskgraph.Task{ID: "t", Problem: arch.Synchronous, Language: "CMFortran"}); err != nil {
		t.Fatal(err)
	}
	if err := Code(g); err != nil {
		t.Fatal(err)
	}
	tt, _ := g.Task("t")
	if tt.Language != "CMFortran" {
		t.Fatal("explicit language overwritten")
	}
}

// TestPipeline runs the three layers in the order every front end does —
// specification, design, coding — and checks the graph comes out fully
// annotated for the execution module.
func TestPipeline(t *testing.T) {
	g, err := weatherSpec().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := Design(g); err != nil {
		t.Fatal(err)
	}
	if err := Code(g); err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks() {
		if task.Problem == arch.ProblemUnknown {
			t.Fatalf("task %s left unclassified", task.ID)
		}
		if task.Language == "" {
			t.Fatalf("task %s left without language", task.ID)
		}
		if len(task.Requirements.Classes) == 0 {
			t.Fatalf("task %s left without machine classes", task.ID)
		}
	}
}
