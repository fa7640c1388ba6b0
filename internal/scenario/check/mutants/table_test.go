// Package mutants scores `vcebench check` against deliberately broken
// engines: each row of the table below is one exact-once text replacement in
// one engine file, built with `go build -overlay` (the tree is never touched)
// and swept with `vcebench check -seeds 25`. A row names the
// execution-identity mode that must report it — one failure per failing seed,
// nothing else — or is a known survivor, a defect no current property sees.
// DESIGN.md §6 prints the table; it is the no-kill-lost ledger for changes to
// the property set and the to-do list for the independent oracle (ROADMAP
// item 1).
//
// The table and its exactly-once text check (TestRowsMatchOnce) build
// without tags, so an engine edit that rots a row fails plain `go test`. The
// build-and-sweep (TestMutants) needs the mutants tag and runs nightly:
//
//	go test -tags mutants ./internal/scenario/check/mutants
package mutants

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one seeded defect. An empty wantMode marks an expected survivor.
type mutant struct {
	name     string
	file     string // relative to the repo root
	old, new string
	wantMode string
}

var table = []mutant{
	{
		name: "nondeterministic-index", wantMode: "again",
		file: "internal/scenario/cell.go",
		old:  "\tidx := Indexes{Failed: c.failed}\n",
		new: "\tidx := Indexes{Failed: c.failed}\n" +
			"\torder := make(map[int]bool)\n\tfor i := 0; i < 4096; i++ {\n\t\torder[i] = true\n\t}\n" +
			"\tfor i := range order {\n\t\tidx.Failed += int64(i)\n\t\tbreak\n\t}\n",
	},
	{
		name: "reset-keeps-completion-sum", wantMode: "fresh-arena",
		file: "internal/scenario/stream.go",
		old:  "{ *a = StreamingIndexes{} }",
		new:  "{ *a = StreamingIndexes{completionSum: a.completionSum} }",
	},
	{
		name: "worker-lane-leak", wantMode: "workers",
		file: "internal/scenario/exec.go",
		old:  "\treturn outcome{cell: j.cell, run: j.run, idx: idx, err: err}\n",
		new:  "\tidx.Migrations += int64(lane - 1)\n\treturn outcome{cell: j.cell, run: j.run, idx: idx, err: err}\n",
	},
	{
		name: "shard-off-by-one", wantMode: "shards",
		file: "internal/scenario/exec.go",
		old:  "pos%s.Count == s.Index",
		new:  "pos%(s.Count+1) == s.Index",
	},
	{
		name: "salted-cell-key", wantMode: "cache",
		file: "internal/scenario/exec.go",
		old:  "key = cellKey(e.world, inst.Sched, inst.Migration, j.run)\n",
		new:  "key = cellKey(e.world, inst.Sched, inst.Migration, j.run) + fmt.Sprint(time.Now().UnixNano())\n",
	},
	{
		name: "audit-dependent-index", wantMode: "audited",
		file: "internal/scenario/cell.go",
		old:  "\tidx := c.measure(end)\n",
		new:  "\tidx := c.measure(end)\n\tif audit {\n\t\tidx.Suspensions++\n\t}\n",
	},
	{
		name: "matrix-dependent-world", wantMode: "permuted-matrix",
		file: "internal/scenario/world.go",
		old:  "rng.New(sp.Seed).Derive(sp.Name).",
		new:  "rng.New(sp.Seed).Derive(sp.Name + sp.Policies.Scheduling[0]).",
	},
	// The two defects PR 15 fixed by reading code: deterministic and
	// path-independent, so every way of running the sweep agrees on the
	// wrong numbers.
	{
		name: "checkpoint-never-forgotten",
		file: "internal/scenario/cell.go",
		old:  "\tif c.ck != nil {\n\t\tc.ck.Forget(c.cl, t)\n\t}\n",
		new:  "",
	},
	{
		name: "fault-requeue-loses-home-site",
		file: "internal/scenario/cell.go",
		old:  "\t\tc.pol.Enqueue(c.newItem(killed.Ref, killed.Remaining()))\n",
		new: "\t\tit := c.newItem(killed.Ref, killed.Remaining())\n\t\tit.HomeSite = 0\n" +
			"\t\tc.pol.Enqueue(it)\n",
	},
	// The fleet snapshot forgets a completion host: the completion's own
	// passes miss the slot it freed, and the host's change notification
	// places the waiter a few events later at the same instant. In the
	// 25-seed sweep only the audited snapshot check sees it.
	{
		name: "snapshot-misses-completion-host", wantMode: "audited",
		file: "internal/scenario/cell.go",
		old:  "\tc.markStale(host.Index())\n",
		new:  "",
	},
}

// repoRoot is the repository root, four levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// rowSource reads m's engine file and fails the test when the row is rotten:
// its old text must occur in the file exactly once.
func rowSource(t *testing.T, root string, m mutant) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Fatalf("rotten row: old text occurs %d times in %s, want exactly once", n, m.file)
	}
	return string(src)
}

// TestRowsMatchOnce fails when an engine edit rots a row of the table, so
// the nightly sweep never finds out first.
func TestRowsMatchOnce(t *testing.T) {
	root := repoRoot(t)
	for _, m := range table {
		t.Run(m.name, func(t *testing.T) { rowSource(t, root, m) })
	}
}
