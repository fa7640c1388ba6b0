package taskgraph

import (
	"testing"
	"testing/quick"

	"vce/internal/arch"
)

func chain(t *testing.T, ids ...TaskID) *Graph {
	t.Helper()
	g := New("chain")
	for _, id := range ids {
		if err := g.AddTask(Task{ID: id, WorkUnits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ids); i++ {
		if err := g.AddArc(Arc{From: ids[i-1], To: ids[i], Kind: Precedence}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddTaskValidation(t *testing.T) {
	g := New("t")
	if err := g.AddTask(Task{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := g.AddTask(Task{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTask(Task{ID: "a"}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := g.AddTask(Task{ID: "b", MinInstances: 5, MaxInstances: 2}); err == nil {
		t.Fatal("max < min accepted")
	}
}

func TestAddArcValidation(t *testing.T) {
	g := chain(t, "a", "b")
	if err := g.AddArc(Arc{From: "a", To: "ghost"}); err == nil {
		t.Fatal("arc to unknown task accepted")
	}
	if err := g.AddArc(Arc{From: "ghost", To: "a"}); err == nil {
		t.Fatal("arc from unknown task accepted")
	}
	if err := g.AddArc(Arc{From: "a", To: "a"}); err == nil {
		t.Fatal("self arc accepted")
	}
}

func TestInstancesDefault(t *testing.T) {
	if (Task{}).Instances() != 1 {
		t.Fatal("zero MinInstances should default to 1")
	}
	if (Task{MinInstances: 3}).Instances() != 3 {
		t.Fatal("explicit instances lost")
	}
}

func TestTopoSortChain(t *testing.T) {
	g := chain(t, "a", "b", "c", "d")
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []TaskID{"a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("topo = %v", order)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := chain(t, "a", "b", "c")
	if err := g.AddArc(Arc{From: "c", To: "a", Kind: Precedence}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed the cycle")
	}
}

func TestStreamArcsDoNotConstrainOrder(t *testing.T) {
	g := chain(t, "a", "b")
	// A stream "cycle" is legal: tasks talk both ways while running.
	if err := g.AddArc(Arc{From: "b", To: "a", Kind: Stream}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("stream back-edge flagged as cycle: %v", err)
	}
}

func TestPredecessorsSuccessorsPeers(t *testing.T) {
	g := New("w")
	for _, id := range []TaskID{"col", "pred", "disp"} {
		if err := g.AddTask(Task{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddArc(Arc{From: "col", To: "pred", Kind: Precedence}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(Arc{From: "pred", To: "disp", Kind: Stream, Channel: "viz"}); err != nil {
		t.Fatal(err)
	}
	if p := g.Predecessors("pred"); len(p) != 1 || p[0] != "col" {
		t.Fatalf("preds = %v", p)
	}
	if s := g.Successors("col"); len(s) != 1 || s[0] != "pred" {
		t.Fatalf("succs = %v", s)
	}
	if peers := g.Peers("disp"); len(peers) != 1 || peers[0] != "pred" {
		t.Fatalf("peers = %v", peers)
	}
	if peers := g.Peers("col"); len(peers) != 0 {
		t.Fatalf("col peers = %v", peers)
	}
}

func TestReadyFrontier(t *testing.T) {
	g := New("d")
	for _, id := range []TaskID{"a", "b", "c", "d"} {
		if err := g.AddTask(Task{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// diamond: a -> b, a -> c, {b,c} -> d
	for _, arc := range []Arc{{From: "a", To: "b"}, {From: "a", To: "c"}, {From: "b", To: "d"}, {From: "c", To: "d"}} {
		if err := g.AddArc(arc); err != nil {
			t.Fatal(err)
		}
	}
	done := map[TaskID]bool{}
	started := map[TaskID]bool{}
	if r := g.Ready(done, started); len(r) != 1 || r[0] != "a" {
		t.Fatalf("initial ready = %v", r)
	}
	done["a"] = true
	if r := g.Ready(done, started); len(r) != 2 {
		t.Fatalf("after a: ready = %v", r)
	}
	started["b"] = true
	if r := g.Ready(done, started); len(r) != 1 || r[0] != "c" {
		t.Fatalf("b started: ready = %v", r)
	}
	done["b"] = true
	if r := g.Ready(done, started); len(r) != 1 || r[0] != "c" {
		t.Fatalf("b done, c pending: ready = %v", r)
	}
	done["c"] = true
	if r := g.Ready(done, started); len(r) != 1 || r[0] != "d" {
		t.Fatalf("after b,c: ready = %v", r)
	}
}

func TestUpdateTask(t *testing.T) {
	g := chain(t, "a")
	task, _ := g.Task("a")
	task.Problem = arch.Synchronous
	task.Language = "HPF"
	if err := g.UpdateTask(task); err != nil {
		t.Fatal(err)
	}
	got, _ := g.Task("a")
	if got.Problem != arch.Synchronous || got.Language != "HPF" {
		t.Fatalf("update lost: %+v", got)
	}
	if err := g.UpdateTask(Task{ID: "ghost"}); err == nil {
		t.Fatal("update of unknown task accepted")
	}
}

func TestTasksInsertionOrder(t *testing.T) {
	g := New("ord")
	ids := []TaskID{"z", "a", "m"}
	for _, id := range ids {
		if err := g.AddTask(Task{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Tasks()
	for i := range ids {
		if got[i].ID != ids[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestPropertyTopoRespectsAllArcs(t *testing.T) {
	// Random DAGs (arcs only forward by construction) always topo-sort,
	// and every precedence arc points forward in the order.
	f := func(n uint8, edges []uint16) bool {
		size := int(n%10) + 2
		g := New("p")
		for i := 0; i < size; i++ {
			if g.AddTask(Task{ID: TaskID(string(rune('a' + i)))}) != nil {
				return false
			}
		}
		for _, e := range edges {
			from := int(e>>8) % size
			to := int(e&0xff) % size
			if from >= to {
				continue
			}
			arc := Arc{From: TaskID(string(rune('a' + from))), To: TaskID(string(rune('a' + to))), Kind: Precedence}
			if g.AddArc(arc) != nil {
				return false
			}
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, a := range g.Arcs() {
			if pos[a.From] >= pos[a.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
