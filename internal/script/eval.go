package script

import (
	"fmt"
	"path"
	"strings"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// Env supplies the live facts conditionals reference. The execution program
// implements it by querying group leaders; tests use StaticEnv.
type Env interface {
	// Avail returns the number of available machines in the group of a
	// machine class.
	Avail(class arch.Class) int
}

// StaticEnv is a fixed class→count Env.
type StaticEnv map[arch.Class]int

// Avail implements Env.
func (s StaticEnv) Avail(class arch.Class) int { return s[class] }

// Eval resolves conditionals against env and returns the flattened,
// concrete statement list.
func (s *Script) Eval(env Env) ([]Stmt, error) {
	return evalBlock(s.Stmts, env)
}

func evalBlock(stmts []Stmt, env Env) ([]Stmt, error) {
	var out []Stmt
	for _, st := range stmts {
		ifStmt, ok := st.(*If)
		if !ok {
			out = append(out, st)
			continue
		}
		hold, err := evalCond(ifStmt.Cond, env)
		if err != nil {
			return nil, fmt.Errorf("script:%d: %v", ifStmt.Line(), err)
		}
		branch := ifStmt.Then
		if !hold {
			branch = ifStmt.Else
		}
		flat, err := evalBlock(branch, env)
		if err != nil {
			return nil, err
		}
		out = append(out, flat...)
	}
	return out, nil
}

func evalCond(c Cond, env Env) (bool, error) {
	l, err := evalTerm(c.Left, env)
	if err != nil {
		return false, err
	}
	r, err := evalTerm(c.Right, env)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	case "==":
		return l == r, nil
	case "!=":
		return l != r, nil
	default:
		return false, fmt.Errorf("bad operator %q", c.Op)
	}
}

func evalTerm(t Term, env Env) (int, error) {
	if t.Avail == arch.ClassUnknown {
		return t.Lit, nil
	}
	if env == nil {
		return 0, fmt.Errorf("AVAIL(%s) needs an environment", t.Avail)
	}
	return env.Avail(t.Avail), nil
}

// ToGraph compiles a flattened statement list into an annotated task graph:
// the bridge from the §5 script vocabulary to the §3.1 task-graph
// representation.
func ToGraph(name string, stmts []Stmt) (*taskgraph.Graph, error) {
	g := taskgraph.New(name)
	byPath := make(map[string]taskgraph.TaskID)
	usedIDs := make(map[taskgraph.TaskID]bool)

	newID := func(p string) taskgraph.TaskID {
		baseName := strings.TrimSuffix(path.Base(p), path.Ext(p))
		id := taskgraph.TaskID(baseName)
		for n := 2; usedIDs[id]; n++ {
			id = taskgraph.TaskID(fmt.Sprintf("%s-%d", baseName, n))
		}
		usedIDs[id] = true
		return id
	}

	addTask := func(t taskgraph.Task, p string) error {
		if err := g.AddTask(t); err != nil {
			return err
		}
		if _, dup := byPath[p]; !dup {
			byPath[p] = t.ID
		}
		return nil
	}

	// Pass 1: tasks.
	for _, st := range stmts {
		switch s := st.(type) {
		case *Request:
			d, ok := lookupDirective(s.Group)
			if !ok {
				return nil, fmt.Errorf("script:%d: unknown directive %q", s.Line(), s.Group)
			}
			t := taskgraph.Task{
				ID:           newID(s.Path),
				Program:      s.Path,
				Problem:      d.problem,
				MinInstances: s.Min,
				MaxInstances: s.Max,
				Requirements: arch.Requirements{Classes: []arch.Class{d.class}},
			}
			if err := addTask(t, s.Path); err != nil {
				return nil, fmt.Errorf("script:%d: %v", s.Line(), err)
			}
		case *Local:
			t := taskgraph.Task{
				ID:           newID(s.Path),
				Program:      s.Path,
				Problem:      arch.Asynchronous,
				Local:        true,
				MinInstances: 1,
				MaxInstances: 1,
				Requirements: arch.Requirements{Classes: []arch.Class{arch.Workstation}},
			}
			if err := addTask(t, s.Path); err != nil {
				return nil, fmt.Errorf("script:%d: %v", s.Line(), err)
			}
		}
	}

	lookup := func(p string, line int) (taskgraph.TaskID, error) {
		id, ok := byPath[p]
		if !ok {
			return "", fmt.Errorf("script:%d: no request for program %q", line, p)
		}
		return id, nil
	}

	// Pass 2: arcs and annotations.
	for _, st := range stmts {
		switch s := st.(type) {
		case *Comm:
			from, err := lookup(s.From, s.Line())
			if err != nil {
				return nil, err
			}
			to, err := lookup(s.To, s.Line())
			if err != nil {
				return nil, err
			}
			if err := g.AddArc(taskgraph.Arc{From: from, To: to, Kind: taskgraph.Stream, Channel: s.Channel}); err != nil {
				return nil, fmt.Errorf("script:%d: %v", s.Line(), err)
			}
		case *After:
			from, err := lookup(s.From, s.Line())
			if err != nil {
				return nil, err
			}
			to, err := lookup(s.To, s.Line())
			if err != nil {
				return nil, err
			}
			if err := g.AddArc(taskgraph.Arc{From: from, To: to, Kind: taskgraph.Precedence}); err != nil {
				return nil, fmt.Errorf("script:%d: %v", s.Line(), err)
			}
		case *Hint:
			id, err := lookup(s.Path, s.Line())
			if err != nil {
				return nil, err
			}
			t, _ := g.Task(id)
			if s.Runtime > 0 {
				t.Hint.ExpectedRuntime = s.Runtime
			}
			if s.HasPriority {
				t.Hint.Priority = s.Priority
			}
			if err := g.UpdateTask(t); err != nil {
				return nil, err
			}
		case *Redundant:
			id, err := lookup(s.Path, s.Line())
			if err != nil {
				return nil, err
			}
			t, _ := g.Task(id)
			t.Hint.Redundant = s.Copies
			if err := g.UpdateTask(t); err != nil {
				return nil, err
			}
		case *OnFail:
			id, err := lookup(s.Path, s.Line())
			if err != nil {
				return nil, err
			}
			t, _ := g.Task(id)
			t.Hint.Retries = s.Retries
			if err := g.UpdateTask(t); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Compile parses src, evaluates conditionals against env, and builds the
// task graph in one call — what the execution program does with a .vce
// application description.
func Compile(name, src string, env Env) (*taskgraph.Graph, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	flat, err := s.Eval(env)
	if err != nil {
		return nil, err
	}
	return ToGraph(name, flat)
}
