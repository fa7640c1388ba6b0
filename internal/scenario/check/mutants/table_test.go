// Package mutants scores `vcebench check` against deliberately broken
// engines: each row of the table below is one exact-once text replacement in
// one engine file, built with `go build -overlay` (the tree is never touched)
// and swept with `vcebench check -seeds 25`. A row names the
// execution-identity mode, or else the other property, that must report it
// — one failure per failing seed, nothing else — or is a known survivor, a
// defect no current property sees.
// DESIGN.md §6 prints the table; it is the no-kill-lost ledger for changes to
// the property set and the to-do list for the independent oracle (ROADMAP
// item 1).
//
// The table and its exactly-once text check (TestRowsMatchOnce) build
// without tags, so an engine edit that rots a row fails plain `go test`. The
// build-and-sweep (TestMutants) needs the mutants tag and runs in CI on
// every change:
//
//	go test -tags mutants ./internal/scenario/check/mutants
package mutants

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one seeded defect. wantMode is the execution-identity mode that
// must report it; wantProperty, set instead, names another property that
// must. Both empty mark an expected survivor.
type mutant struct {
	name                   string
	file                   string // relative to the repo root
	old, new               string
	wantMode, wantProperty string
}

var table = []mutant{
	// failed counts the cells the process measured before: no two
	// executions of a cell agree, so running the sweep again reports it.
	{
		name: "nondeterministic-index", wantMode: "again",
		file: "internal/scenario/cell.go",
		old:  "\treturn idx\n}\n",
		new:  "\tcellsMeasured++\n\tidx.Failed += cellsMeasured\n\treturn idx\n}\n\nvar cellsMeasured int64\n",
	},
	{
		name: "reset-keeps-completion-sum", wantMode: "fresh-arena",
		file: "internal/scenario/cell.go",
		old:  "\tar.cell = cell{key: schedName + \"/\" + migration}\n",
		new:  "\tar.cell = cell{key: schedName + \"/\" + migration, completionSum: ar.completionSum}\n",
	},
	{
		name: "worker-lane-leak", wantMode: "workers",
		file: "internal/scenario/exec.go",
		old:  "\treturn idx, false, err\n",
		new:  "\tidx.Migrations += int64(lane - 1)\n\treturn idx, false, err\n",
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
		old:  "key = e.prefix.cellKey(inst.Sched, inst.Migration, j.run)\n",
		new:  "key = e.prefix.cellKey(inst.Sched, inst.Migration, j.run) + fmt.Sprint(time.Now().UnixNano())\n",
	},
	{
		name: "audit-dependent-index", wantMode: "audited",
		file: "internal/scenario/cell.go",
		old:  "\tidx := ar.measure(end)\n",
		new:  "\tidx := ar.measure(end)\n\tif audit {\n\t\tidx.Suspensions++\n\t}\n",
	},
	{
		name: "matrix-dependent-world", wantMode: "permuted-matrix",
		file: "internal/scenario/world.go",
		old:  "rng.New(sp.Seed).Derive(sp.Name).",
		new:  "rng.New(sp.Seed).Derive(sp.Name + sp.Policies.Scheduling[0]).",
	},
	// The two defects PR 15 fixed by reading code: deterministic and
	// path-independent, so every way of running the sweep agrees on the
	// wrong numbers. A checkpoint record is part of its task, so the first
	// now lives in Task.Reset: the record survives into the slot's next
	// tenant.
	{
		name: "checkpoint-never-forgotten",
		file: "internal/sim/machine.go",
		old:  "\tt.holders = t.holders[:0]\n",
		new:  "",
	},
	{
		name: "fault-requeue-loses-home-site",
		file: "internal/scenario/cell.go",
		old:  "\t\tar.pol.Enqueue(ar.newItem(victim.Ref, victim.Remaining()))\n",
		new: "\t\tit := ar.newItem(victim.Ref, victim.Remaining())\n\t\tit.HomeSite = 0\n" +
			"\t\tar.pol.Enqueue(it)\n",
	},
	// The fleet snapshot forgets a completion host: the completion's own
	// passes miss the slot it freed, and the host's change notification
	// places the waiter a few events later at the same instant. In the
	// 25-seed sweep only the audited snapshot check sees it.
	{
		name: "snapshot-misses-completion-host", wantMode: "audited",
		file: "internal/scenario/cell.go",
		old:  "\tar.markStale(host)\n",
		new:  "",
	},
	// The placement policy's score column ignores the entries the engine
	// re-derived: a pick compares a machine's score as the policy itself
	// last left it, so a machine that filled up never reads free again.
	// Every mode runs the same placement code and the audit checks the
	// snapshot, not the column, so no execution-identity mode sees it;
	// makespan-dominance does, as cells that stop placing work. sched's
	// TestPlaceWaitingIncrementalMatchesReference kills it in plain go test.
	{
		name: "placement-column-misses-changed", wantProperty: "makespan-dominance",
		file: "internal/sched/sched.go",
		old:  "\t\tfor _, i := range changed {\n\t\t\tq.keys[i] = score(&machines[i])\n\t\t}\n",
		new:  "",
	},
	// rejected loses its placed-drop term: a Locality drop of a task that
	// ran before (a fault requeue or a staging bounce) no longer counts.
	// Deterministic and path-independent, and no generated spec drops a
	// placed task, so it survives the sweep; TestRejectedCountsPlacedDrops
	// (internal/scenario, on testdata/placed-drops.json) kills it in plain
	// go test.
	{
		name: "rejected-forgets-placed-drops",
		file: "internal/scenario/cell.go",
		old:  "\tidx.Rejected = tasks - ar.placedOnce + ar.placedDrops\n",
		new:  "\tidx.Rejected = tasks - ar.placedOnce\n",
	},
	// The streaming pump admits one arrival past the workload's task count:
	// a cap-bound cell completes tasks + 1 and reports rejected −1. Every
	// execution agrees, and only the counts property's ranges see it.
	{
		name: "pump-admits-past-its-cap", wantProperty: "counts",
		file: "internal/scenario/cell.go",
		old:  "\tif ar.offered >= ar.sp.Workload.Tasks {\n",
		new:  "\tif ar.offered > ar.sp.Workload.Tasks {\n",
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
// the mutant sweep never finds out first.
func TestRowsMatchOnce(t *testing.T) {
	root := repoRoot(t)
	for _, m := range table {
		t.Run(m.name, func(t *testing.T) { rowSource(t, root, m) })
	}
}
