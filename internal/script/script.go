// Package script implements the VCE application-description language of §5.
// The prototype's core vocabulary:
//
//	ASYNC 2 "/apps/snow/collector.vce"
//	WORKSTATION 1 "/apps/snow/usercollect.vce"
//	SYNC 1 "/apps/snow/predictor.vce"
//	LOCAL "/apps/snow/display.vce"
//
// plus the extensions the paper names as the language's growth path: range
// counts ("ASYNC 5-" for five or fewer, "SYNC 5,10" for between five and
// ten), conditional statements, and statements describing the communication
// requirements of the application:
//
//	IF AVAIL(SYNC) >= 1 THEN
//	    SYNC 1 "/apps/snow/predictor.vce"
//	ELSE
//	    ASYNC 4 "/apps/snow/predictor_mimd.vce"
//	ENDIF
//	COMM "/apps/snow/collector.vce" -> "/apps/snow/predictor.vce" CHANNEL obs
//	AFTER "/apps/snow/predictor.vce" "/apps/snow/display.vce"
//	HINT "/apps/snow/predictor.vce" RUNTIME 120s PRIORITY 2
//	REDUNDANT "/apps/snow/predictor.vce" 2
package script

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vce/internal/arch"
)

// Stmt is one script statement.
type Stmt interface {
	stmt()
	// Line is the 1-based source line, for error reporting.
	Line() int
}

type base struct{ line int }

func (b base) stmt()     {}
func (b base) Line() int { return b.line }

// Request asks for instances of a program on a machine group.
type Request struct {
	base
	// Group is the directive keyword (ASYNC, SYNC, WORKSTATION, VECTOR);
	// a synonym is stored as its keyword.
	Group string
	// Min and Max bound the instance count. Max == Min for exact
	// requests; "5-" yields Min 1 / Max 5; "5,10" yields Min 5 / Max 10.
	Min, Max int
	// Path is the program path.
	Path string
}

// Local runs a program on the user's workstation after remote dispatch.
type Local struct {
	base
	// Path is the program path.
	Path string
}

// Comm declares a communication requirement between two programs.
type Comm struct {
	base
	// From and To are program paths.
	From, To string
	// Channel optionally names the VCE channel.
	Channel string
}

// After declares a precedence: To starts only after From completes.
type After struct {
	base
	// From completes before To starts.
	From, To string
}

// Hint attaches user-supplied information to a program.
type Hint struct {
	base
	// Path is the program the hint applies to.
	Path string
	// Runtime is the expected runtime (zero if absent).
	Runtime time.Duration
	// Priority is the explicit priority (zero if absent).
	Priority int
	// HasPriority distinguishes "PRIORITY 0" from no priority clause.
	HasPriority bool
}

// Redundant requests N-way redundant dispatch of a program.
type Redundant struct {
	base
	// Path is the program path.
	Path string
	// Copies is the replication factor (>= 2).
	Copies int
}

// OnFail requests retry-based fault tolerance for a program.
type OnFail struct {
	base
	// Path is the program path.
	Path string
	// Retries is how many re-dispatches a failed instance gets.
	Retries int
}

// If is a conditional block evaluated against the live environment.
type If struct {
	base
	// Cond gates the Then branch.
	Cond Cond
	// Then and Else are the branch bodies.
	Then, Else []Stmt
}

// Term is one side of a condition: a literal or AVAIL(GROUP).
type Term struct {
	// Lit is the literal value when Avail is ClassUnknown.
	Lit int
	// Avail, when set, means "number of available machines in the group
	// of this class at evaluation time".
	Avail arch.Class
}

// Cond is a binary comparison.
type Cond struct {
	// Left and Right are the compared terms.
	Left, Right Term
	// Op is one of < <= > >= == !=.
	Op string
}

// Script is a parsed application description.
type Script struct {
	// Stmts is the top-level statement list.
	Stmts []Stmt
}

// directive is one request keyword: the machine class whose group services
// it and the problem class it implies (§5: the ASYNC line "requests two
// instantiations ... on machines with asynchronous architectures").
type directive struct {
	keyword string
	synonym string // read as keyword; "" for none
	class   arch.Class
	problem arch.ProblemClass
}

// directives is the request vocabulary. MIMD and SIMD are accepted as
// synonyms for the problem-architecture keywords that map to them.
var directives = []directive{
	{"ASYNC", "MIMD", arch.MIMD, arch.Asynchronous},
	{"SYNC", "SIMD", arch.SIMD, arch.Synchronous},
	{"VECTOR", "", arch.Vector, arch.LooselySynchronous},
	{"WORKSTATION", "", arch.Workstation, arch.Asynchronous},
}

// lookupDirective finds the row whose keyword or synonym is word.
func lookupDirective(word string) (directive, bool) {
	for _, d := range directives {
		if word == d.keyword || (d.synonym != "" && word == d.synonym) {
			return d, true
		}
	}
	return directive{}, false
}

// Parse parses a script source.
func Parse(src string) (*Script, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	stmts, err := p.block(nil)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("script:%d: unexpected %q", p.pos+1, strings.TrimSpace(p.lines[p.pos]))
	}
	return &Script{Stmts: stmts}, nil
}

type parser struct {
	lines []string
	pos   int
}

// block parses statements until EOF or one of the terminator keywords,
// which is left unconsumed.
func (p *parser) block(terminators []string) ([]Stmt, error) {
	var out []Stmt
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			p.pos++
			continue
		}
		toks, err := tokenize(line)
		if err != nil {
			return nil, fmt.Errorf("script:%d: %v", p.pos+1, err)
		}
		head := strings.ToUpper(toks[0])
		for _, term := range terminators {
			if head == term {
				return out, nil
			}
		}
		stmt, err := p.statement(head, toks)
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
	}
	if len(terminators) > 0 {
		return nil, fmt.Errorf("script: unexpected end of input, expected %s", strings.Join(terminators, " or "))
	}
	return out, nil
}

func (p *parser) statement(head string, toks []string) (Stmt, error) {
	line := p.pos + 1
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("script:%d: %s", line, fmt.Sprintf(format, args...))
	}
	d, isRequest := lookupDirective(head)
	switch {
	case isRequest:
		if len(toks) != 3 {
			return nil, fail("%s needs a count and a path", head)
		}
		min, max, err := parseCount(toks[1])
		if err != nil {
			return nil, fail("%v", err)
		}
		path, ok := unquote(toks[2])
		if !ok {
			return nil, fail("path must be quoted: %s", toks[2])
		}
		p.pos++
		return &Request{base: base{line}, Group: d.keyword, Min: min, Max: max, Path: path}, nil

	case head == "LOCAL":
		if len(toks) != 2 {
			return nil, fail("LOCAL needs a path")
		}
		path, ok := unquote(toks[1])
		if !ok {
			return nil, fail("path must be quoted: %s", toks[1])
		}
		p.pos++
		return &Local{base: base{line}, Path: path}, nil

	case head == "COMM":
		// COMM "a" -> "b" [CHANNEL name]
		if len(toks) != 4 && len(toks) != 6 {
			return nil, fail("COMM needs: COMM \"a\" -> \"b\" [CHANNEL name]")
		}
		from, ok1 := unquote(toks[1])
		to, ok2 := unquote(toks[3])
		if !ok1 || !ok2 || toks[2] != "->" {
			return nil, fail("COMM needs: COMM \"a\" -> \"b\" [CHANNEL name]")
		}
		channel := ""
		if len(toks) == 6 {
			if strings.ToUpper(toks[4]) != "CHANNEL" {
				return nil, fail("expected CHANNEL, got %s", toks[4])
			}
			channel = toks[5]
		}
		p.pos++
		return &Comm{base: base{line}, From: from, To: to, Channel: channel}, nil

	case head == "AFTER":
		if len(toks) != 3 {
			return nil, fail("AFTER needs two paths")
		}
		from, ok1 := unquote(toks[1])
		to, ok2 := unquote(toks[2])
		if !ok1 || !ok2 {
			return nil, fail("AFTER paths must be quoted")
		}
		p.pos++
		return &After{base: base{line}, From: from, To: to}, nil

	case head == "HINT":
		if len(toks) < 3 {
			return nil, fail("HINT needs a path and at least one clause")
		}
		path, ok := unquote(toks[1])
		if !ok {
			return nil, fail("HINT path must be quoted")
		}
		h := &Hint{base: base{line}, Path: path}
		i := 2
		for i < len(toks) {
			switch strings.ToUpper(toks[i]) {
			case "RUNTIME":
				if i+1 >= len(toks) {
					return nil, fail("RUNTIME needs a duration")
				}
				d, err := parseDuration(toks[i+1])
				if err != nil {
					return nil, fail("%v", err)
				}
				h.Runtime = d
				i += 2
			case "PRIORITY":
				if i+1 >= len(toks) {
					return nil, fail("PRIORITY needs an integer")
				}
				v, err := strconv.Atoi(toks[i+1])
				if err != nil {
					return nil, fail("bad priority %q", toks[i+1])
				}
				h.Priority = v
				h.HasPriority = true
				i += 2
			case "CHECKPOINT":
				return nil, fail("HINT CHECKPOINT is not supported: the live stack does not checkpoint")
			default:
				return nil, fail("unknown hint clause %q", toks[i])
			}
		}
		p.pos++
		return h, nil

	case head == "REDUNDANT":
		if len(toks) != 3 {
			return nil, fail("REDUNDANT needs a path and a copy count")
		}
		path, ok := unquote(toks[1])
		if !ok {
			return nil, fail("REDUNDANT path must be quoted")
		}
		n, err := strconv.Atoi(toks[2])
		if err != nil || n < 2 {
			return nil, fail("REDUNDANT copies must be an integer >= 2")
		}
		p.pos++
		return &Redundant{base: base{line}, Path: path, Copies: n}, nil

	case head == "ONFAIL":
		// ONFAIL "path" RETRY n
		if len(toks) != 4 || strings.ToUpper(toks[2]) != "RETRY" {
			return nil, fail(`ONFAIL needs: ONFAIL "path" RETRY n`)
		}
		path, ok := unquote(toks[1])
		if !ok {
			return nil, fail("ONFAIL path must be quoted")
		}
		n, err := strconv.Atoi(toks[3])
		if err != nil || n < 1 {
			return nil, fail("ONFAIL retries must be an integer >= 1")
		}
		p.pos++
		return &OnFail{base: base{line}, Path: path, Retries: n}, nil

	case head == "IF":
		if len(toks) < 5 || strings.ToUpper(toks[len(toks)-1]) != "THEN" {
			return nil, fail("IF needs: IF <term> <op> <term> THEN")
		}
		cond, err := parseCond(toks[1 : len(toks)-1])
		if err != nil {
			return nil, fail("%v", err)
		}
		p.pos++
		thenBody, err := p.block([]string{"ELSE", "ENDIF"})
		if err != nil {
			return nil, err
		}
		var elseBody []Stmt
		next := strings.ToUpper(strings.Fields(strings.TrimSpace(p.lines[p.pos]))[0])
		if next == "ELSE" {
			p.pos++
			elseBody, err = p.block([]string{"ENDIF"})
			if err != nil {
				return nil, err
			}
		}
		p.pos++ // consume ENDIF
		return &If{base: base{line}, Cond: cond, Then: thenBody, Else: elseBody}, nil

	default:
		return nil, fail("unknown directive %q", head)
	}
}

// parseCount handles "5", "5-" and "5,10".
func parseCount(tok string) (min, max int, err error) {
	switch {
	case strings.HasSuffix(tok, "-"):
		n, e := strconv.Atoi(strings.TrimSuffix(tok, "-"))
		if e != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad count %q", tok)
		}
		return 1, n, nil
	case strings.Contains(tok, ","):
		parts := strings.SplitN(tok, ",", 2)
		lo, e1 := strconv.Atoi(parts[0])
		hi, e2 := strconv.Atoi(parts[1])
		if e1 != nil || e2 != nil || lo < 1 || hi < lo {
			return 0, 0, fmt.Errorf("bad count range %q", tok)
		}
		return lo, hi, nil
	default:
		n, e := strconv.Atoi(tok)
		if e != nil || n < 1 {
			return 0, 0, fmt.Errorf("bad count %q", tok)
		}
		return n, n, nil
	}
}

// parseDuration accepts Go durations ("90s", "2m") or bare seconds ("120").
func parseDuration(tok string) (time.Duration, error) {
	if n, err := strconv.Atoi(tok); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative duration %q", tok)
		}
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(tok)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", tok)
	}
	return d, nil
}

func parseCond(toks []string) (Cond, error) {
	if len(toks) != 3 {
		return Cond{}, fmt.Errorf("condition needs <term> <op> <term>")
	}
	left, err := parseTerm(toks[0])
	if err != nil {
		return Cond{}, err
	}
	right, err := parseTerm(toks[2])
	if err != nil {
		return Cond{}, err
	}
	switch toks[1] {
	case "<", "<=", ">", ">=", "==", "!=":
	default:
		return Cond{}, fmt.Errorf("bad operator %q", toks[1])
	}
	return Cond{Left: left, Op: toks[1], Right: right}, nil
}

func parseTerm(tok string) (Term, error) {
	up := strings.ToUpper(tok)
	if strings.HasPrefix(up, "AVAIL(") && strings.HasSuffix(up, ")") {
		group := up[len("AVAIL(") : len(up)-1]
		d, ok := lookupDirective(group)
		if !ok {
			return Term{}, fmt.Errorf("AVAIL of unknown group %q", group)
		}
		return Term{Avail: d.class}, nil
	}
	n, err := strconv.Atoi(tok)
	if err != nil {
		return Term{}, fmt.Errorf("bad term %q", tok)
	}
	return Term{Lit: n}, nil
}

// unquote strips surrounding double quotes.
func unquote(tok string) (string, bool) {
	if len(tok) >= 2 && tok[0] == '"' && tok[len(tok)-1] == '"' {
		return tok[1 : len(tok)-1], true
	}
	return "", false
}

// tokenize splits a line into tokens, keeping quoted strings (which may
// contain spaces) as single tokens including their quotes.
func tokenize(line string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '"':
			j := i + 1
			for j < len(line) && line[j] != '"' {
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, line[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks, nil
}
