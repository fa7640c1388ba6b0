package script

import (
	"strings"
	"testing"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// weatherScript is the exact application description printed in §5.
const weatherScript = `ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
SYNC 1 "/apps/snow/predictor.vce"
LOCAL "/apps/snow/display.vce"`

func TestParseWeatherScript(t *testing.T) {
	s, err := Parse(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	r0, ok := s.Stmts[0].(*Request)
	if !ok || r0.Group != "ASYNC" || r0.Min != 2 || r0.Max != 2 || r0.Path != "/apps/snow/collector.vce" {
		t.Fatalf("stmt0 = %+v", s.Stmts[0])
	}
	if _, ok := s.Stmts[3].(*Local); !ok {
		t.Fatalf("stmt3 = %+v", s.Stmts[3])
	}
}

func TestParseCounts(t *testing.T) {
	cases := []struct {
		tok      string
		min, max int
		ok       bool
	}{
		{"5", 5, 5, true},
		{"5-", 1, 5, true},
		{"5,10", 5, 10, true},
		{"0", 0, 0, false},
		{"10,5", 0, 0, false},
		{"x", 0, 0, false},
		{"0-", 0, 0, false},
	}
	for _, c := range cases {
		min, max, err := parseCount(c.tok)
		if c.ok && (err != nil || min != c.min || max != c.max) {
			t.Errorf("parseCount(%q) = %d,%d,%v", c.tok, min, max, err)
		}
		if !c.ok && err == nil {
			t.Errorf("parseCount(%q) accepted", c.tok)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	src := `# weather forecasting
ASYNC 1 "/a.vce"   # trailing comment

LOCAL "/b.vce"`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
}

func TestParseQuotedPathWithSpaces(t *testing.T) {
	s, err := Parse(`LOCAL "/apps/my app/display.vce"`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stmts[0].(*Local).Path != "/apps/my app/display.vce" {
		t.Fatalf("path = %q", s.Stmts[0].(*Local).Path)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`ASYNC "/a.vce"`,             // missing count
		`ASYNC 2 /a.vce`,             // unquoted path
		`FROBNICATE 1 "/a.vce"`,      // unknown directive
		`LOCAL`,                      // missing path
		`COMM "/a" -> `,              // truncated comm
		`COMM "/a" => "/b"`,          // bad arrow
		`HINT "/a"`,                  // no clauses
		`HINT "/a" RUNTIME fast`,     // bad duration
		`HINT "/a" WEIGHT 3`,         // unknown clause
		`REDUNDANT "/a" 1`,           // copies < 2
		`IF AVAIL(SYNC) THEN`,        // malformed condition
		`IF 1 >= 2 THEN`,             // unterminated if
		`ASYNC 1 "/a.vce" extra arg`, // trailing tokens
		`LOCAL "/unterminated`,       // unterminated string
		`ENDIF`,                      // dangling terminator
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParseHint(t *testing.T) {
	s, err := Parse(`HINT "/a.vce" RUNTIME 90s PRIORITY 3`)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Stmts[0].(*Hint)
	if h.Runtime != 90*time.Second || h.Priority != 3 || !h.HasPriority {
		t.Fatalf("hint = %+v", h)
	}
}

// The live stack never checkpoints, so the parser refuses the clause by name
// rather than recording a hint nothing reads.
func TestParseHintCheckpointRejected(t *testing.T) {
	_, err := Parse(`HINT "/a" CHECKPOINT`)
	if err == nil || !strings.Contains(err.Error(), "HINT CHECKPOINT") {
		t.Fatalf("Parse(HINT CHECKPOINT) err = %v, want an error naming HINT CHECKPOINT", err)
	}
}

func TestParseHintBareSeconds(t *testing.T) {
	s, err := Parse(`HINT "/a.vce" RUNTIME 120`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stmts[0].(*Hint).Runtime != 2*time.Minute {
		t.Fatalf("runtime = %v", s.Stmts[0].(*Hint).Runtime)
	}
}

func TestParseIfElse(t *testing.T) {
	src := `IF AVAIL(SYNC) >= 1 THEN
  SYNC 1 "/p.vce"
ELSE
  ASYNC 4 "/p_mimd.vce"
ENDIF`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ifs := s.Stmts[0].(*If)
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Fatalf("if = %+v", ifs)
	}
	if ifs.Cond.Left.Avail != arch.SIMD || ifs.Cond.Op != ">=" || ifs.Cond.Right.Lit != 1 {
		t.Fatalf("cond = %+v", ifs.Cond)
	}
}

func TestParseNestedIf(t *testing.T) {
	src := `IF AVAIL(SYNC) >= 1 THEN
  IF AVAIL(WORKSTATION) >= 4 THEN
    WORKSTATION 4 "/w.vce"
  ENDIF
  SYNC 1 "/p.vce"
ENDIF`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := s.Stmts[0].(*If)
	if len(outer.Then) != 2 {
		t.Fatalf("outer then = %d stmts", len(outer.Then))
	}
	if _, ok := outer.Then[0].(*If); !ok {
		t.Fatalf("inner stmt = %T", outer.Then[0])
	}
}

func TestEvalConditionals(t *testing.T) {
	src := `IF AVAIL(SYNC) >= 1 THEN
  SYNC 1 "/p.vce"
ELSE
  ASYNC 4 "/p_mimd.vce"
ENDIF`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := s.Eval(StaticEnv{arch.SIMD: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 1 || flat[0].(*Request).Group != "SYNC" {
		t.Fatalf("then branch not taken: %+v", flat)
	}
	flat, err = s.Eval(StaticEnv{arch.SIMD: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 1 || flat[0].(*Request).Group != "ASYNC" {
		t.Fatalf("else branch not taken: %+v", flat)
	}
}

func TestEvalOperators(t *testing.T) {
	ops := map[string][2]bool{
		// value pairs: (3 op 3), (2 op 3)
		"<":  {false, true},
		"<=": {true, true},
		">":  {false, false},
		">=": {true, false},
		"==": {true, false},
		"!=": {false, true},
	}
	for op, want := range ops {
		for i, left := range []int{3, 2} {
			c := Cond{Left: Term{Lit: left}, Op: op, Right: Term{Lit: 3}}
			got, err := evalCond(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%d %s 3 = %v, want %v", left, op, got, want[i])
			}
		}
	}
}

func TestEvalAvailNeedsEnv(t *testing.T) {
	s, err := Parse("IF AVAIL(SYNC) >= 1 THEN\nSYNC 1 \"/p.vce\"\nENDIF")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Eval(nil); err == nil {
		t.Fatal("AVAIL with nil env accepted")
	}
}

func TestMIMDSIMDSynonyms(t *testing.T) {
	s, err := Parse("MIMD 2 \"/a.vce\"\nSIMD 1 \"/b.vce\"")
	if err != nil {
		t.Fatal(err)
	}
	if s.Stmts[0].(*Request).Group != "ASYNC" || s.Stmts[1].(*Request).Group != "SYNC" {
		t.Fatalf("synonyms not canonicalized: %+v %+v", s.Stmts[0], s.Stmts[1])
	}
}

// TestDirectiveGroups pins the §5 mapping of request directives to the
// groups that service them: ASYNC goes to the MIMD group ("machines with
// asynchronous architectures"), SYNC to the SIMD group, and each directive
// carries the problem class the design stage annotates.
func TestDirectiveGroups(t *testing.T) {
	for _, c := range []struct {
		word    string
		class   arch.Class
		problem arch.ProblemClass
	}{
		{"ASYNC", arch.MIMD, arch.Asynchronous},
		{"MIMD", arch.MIMD, arch.Asynchronous},
		{"SYNC", arch.SIMD, arch.Synchronous},
		{"SIMD", arch.SIMD, arch.Synchronous},
		{"VECTOR", arch.Vector, arch.LooselySynchronous},
		{"WORKSTATION", arch.Workstation, arch.Asynchronous},
	} {
		g, err := Compile("app", c.word+` 1 "/p.vce"`+"\nIF AVAIL("+c.word+") >= 1 THEN\nLOCAL \"/l.vce\"\nENDIF", StaticEnv{c.class: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.word, err)
		}
		task, _ := g.Task("p")
		if got := task.Requirements.Classes; len(got) != 1 || got[0] != c.class || task.Problem != c.problem {
			t.Errorf("%s -> classes %v, problem %v; want %v, %v", c.word, got, task.Problem, c.class, c.problem)
		}
		if g.Len() != 2 {
			t.Errorf("AVAIL(%s) did not read the %v group's count", c.word, c.class)
		}
	}
	for _, bad := range []string{"AVAIL()", "AVAIL(LOCAL)", "AVAIL(ws)x"} {
		if _, err := parseTerm(bad); err == nil {
			t.Errorf("parseTerm(%q) accepted", bad)
		}
	}
}

func TestToGraphWeather(t *testing.T) {
	g, err := Compile("snow", weatherScript, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("tasks = %d", g.Len())
	}
	col, ok := g.Task("collector")
	if !ok {
		t.Fatal("collector task missing")
	}
	if col.MinInstances != 2 || col.Problem != arch.Asynchronous {
		t.Fatalf("collector = %+v", col)
	}
	if len(col.Requirements.Classes) != 1 || col.Requirements.Classes[0] != arch.MIMD {
		t.Fatalf("collector classes = %v (ASYNC requests MIMD machines, §5)", col.Requirements.Classes)
	}
	pred, _ := g.Task("predictor")
	if pred.Requirements.Classes[0] != arch.SIMD || pred.Problem != arch.Synchronous {
		t.Fatalf("predictor = %+v", pred)
	}
	disp, _ := g.Task("display")
	if !disp.Local {
		t.Fatal("display not marked local")
	}
}

func TestToGraphCommAfterHint(t *testing.T) {
	src := weatherScript + `
COMM "/apps/snow/collector.vce" -> "/apps/snow/predictor.vce" CHANNEL obs
AFTER "/apps/snow/predictor.vce" "/apps/snow/display.vce"
HINT "/apps/snow/predictor.vce" RUNTIME 120s PRIORITY 2
REDUNDANT "/apps/snow/predictor.vce" 2`
	g, err := Compile("snow", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	arcs := g.Arcs()
	if len(arcs) != 2 {
		t.Fatalf("arcs = %+v", arcs)
	}
	if arcs[0].Kind != taskgraph.Stream || arcs[0].Channel != "obs" {
		t.Fatalf("comm arc = %+v", arcs[0])
	}
	if arcs[1].Kind != taskgraph.Precedence {
		t.Fatalf("after arc = %+v", arcs[1])
	}
	pred, _ := g.Task("predictor")
	if pred.Hint.ExpectedRuntime != 2*time.Minute || pred.Hint.Priority != 2 ||
		pred.Hint.Redundant != 2 {
		t.Fatalf("hints = %+v", pred.Hint)
	}
}

func TestToGraphUnknownPathInComm(t *testing.T) {
	src := `ASYNC 1 "/a.vce"
COMM "/a.vce" -> "/ghost.vce"`
	if _, err := Compile("x", src, nil); err == nil {
		t.Fatal("comm to unrequested program accepted")
	}
}

func TestToGraphDuplicateProgramsGetUniqueIDs(t *testing.T) {
	src := `ASYNC 1 "/apps/a.vce"
WORKSTATION 1 "/other/a.vce"`
	g, err := Compile("x", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Task("a"); !ok {
		t.Fatal("first a missing")
	}
	if _, ok := g.Task("a-2"); !ok {
		t.Fatal("second task not disambiguated")
	}
}

func TestToGraphRangeCounts(t *testing.T) {
	g, err := Compile("x", `ASYNC 5- "/a.vce"
SYNC 5,10 "/b.vce"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Task("a")
	if a.MinInstances != 1 || a.MaxInstances != 5 {
		t.Fatalf("5- => %d..%d", a.MinInstances, a.MaxInstances)
	}
	b, _ := g.Task("b")
	if b.MinInstances != 5 || b.MaxInstances != 10 {
		t.Fatalf("5,10 => %d..%d", b.MinInstances, b.MaxInstances)
	}
}

func TestCompileFullPipelineWithEnv(t *testing.T) {
	src := strings.Join([]string{
		`IF AVAIL(SYNC) == 0 THEN`,
		`  ASYNC 2 "/p.vce"`,
		`ELSE`,
		`  SYNC 1 "/p.vce"`,
		`ENDIF`,
		`LOCAL "/d.vce"`,
		`AFTER "/p.vce" "/d.vce"`,
	}, "\n")
	g, err := Compile("app", src, StaticEnv{arch.SIMD: 0})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := g.Task("p")
	if p.MinInstances != 2 {
		t.Fatalf("else-branch instance count = %d", p.MinInstances)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "p" || order[1] != "d" {
		t.Fatalf("topo = %v", order)
	}
}

func TestParseOnFail(t *testing.T) {
	s, err := Parse(`ONFAIL "/a.vce" RETRY 3`)
	if err != nil {
		t.Fatal(err)
	}
	of := s.Stmts[0].(*OnFail)
	if of.Path != "/a.vce" || of.Retries != 3 {
		t.Fatalf("onfail = %+v", of)
	}
	bad := []string{
		`ONFAIL "/a.vce" RETRY 0`,
		`ONFAIL "/a.vce" 3`,
		`ONFAIL /a.vce RETRY 3`,
		`ONFAIL "/a.vce" RETRY x`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestToGraphOnFail(t *testing.T) {
	g, err := Compile("x", "ASYNC 1 \"/a.vce\"\nONFAIL \"/a.vce\" RETRY 2", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Task("a")
	if a.Hint.Retries != 2 {
		t.Fatalf("retries = %d", a.Hint.Retries)
	}
}

func TestToGraphOnFailUnknownPath(t *testing.T) {
	if _, err := Compile("x", `ONFAIL "/ghost.vce" RETRY 2`, nil); err == nil {
		t.Fatal("ONFAIL for unrequested program accepted")
	}
}
