//go:build mutants

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
// Run with: go test -tags mutants ./internal/scenario/check/mutants
package mutants

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
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
		old:  "\t\tc.waiting = append(c.waiting, c.newItem(killed.Ref, killed.Remaining()))\n",
		new: "\t\tit := c.newItem(killed.Ref, killed.Remaining())\n\t\tit.HomeSite = 0\n" +
			"\t\tc.waiting = append(c.waiting, it)\n",
	},
}

var failureLine = regexp.MustCompile(`(?m)^vcebench check: seed (\d+): property (\S+) FAILED: (?:mode=([a-z-]+):)?`)

func TestMutants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range table {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("rotten row: old text occurs %d times in %s, want exactly once", n, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			bin := filepath.Join(dir, "vcebench")
			build := exec.Command("go", "build", "-overlay", overlayPath, "-o", bin, "./cmd/vcebench")
			build.Dir = root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("mutant does not build: %v\n%s", err, out)
			}
			repros := filepath.Join(dir, "repros")
			check := exec.Command(bin, "check", "-seeds", "25", "-q", "-out", repros)
			var stderr strings.Builder
			check.Stderr = &stderr
			err = check.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}

			// What died where: "property mode" → seeds.
			deaths := map[string]int{}
			perSeed := map[string]int{}
			for _, f := range failureLine.FindAllStringSubmatch(stderr.String(), -1) {
				deaths[strings.TrimSpace(f[2]+" "+f[3])]++
				perSeed[f[1]]++
			}
			var summary []string
			for where, n := range deaths {
				summary = append(summary, fmt.Sprintf("%s ×%d", where, n))
			}
			sort.Strings(summary)
			files, _ := os.ReadDir(repros)
			t.Logf("killed on %d of 25 seeds, %d repro files: %s", len(perSeed), len(files), strings.Join(summary, ", "))

			if m.wantMode == "" {
				if err != nil {
					t.Fatalf("expected survivor now dies — move the row and update the table in DESIGN.md §6:\n%s", stderr.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("lost kill: no property reports this mutant any more")
			}
			want := "execution-identity " + m.wantMode
			if len(deaths) != 1 || deaths[want] == 0 {
				t.Errorf("want every failure to be %q, got %s", want, strings.Join(summary, ", "))
			}
			for seed, n := range perSeed {
				if n != 1 {
					t.Errorf("seed %s reported %d failures for one defect", seed, n)
				}
			}
			if len(files) != len(perSeed) {
				t.Errorf("%d repro files for %d failing seeds", len(files), len(perSeed))
			}
		})
	}
}
