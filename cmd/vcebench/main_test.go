package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySpec is a minimal fast scenario for CLI integration tests.
const tinySpec = `{
  "name": "cli-tiny",
  "horizon_s": 300,
  "machines": {"classes": [{"class": "workstation", "count": 2, "speed": {"dist": "fixed", "value": 1}}]},
  "workload": {"tasks": 4, "work": {"dist": "uniform", "min": 20, "max": 40}},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none", "suspend"]},
  "runs": 2,
  "seed": 9
}
`

// writeTinySpec writes the fixture spec and returns its path.
func writeTinySpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI dispatches an in-process vcebench invocation.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = dispatch(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// cacheStats extracts the "hits: H, misses: M, corrupt: C" stats line.
var cacheStats = regexp.MustCompile(`cache .*: hits: (\d+), misses: (\d+), corrupt: (\d+)`)

// TestCacheDirExitSummary pins the -cache-dir observability contract: the
// exit stats line reports all simulations as misses on a cold sweep, zero
// misses on the warm repeat, and surfaces the corrupt-entry count after an
// entry is mangled on disk.
func TestCacheDirExitSummary(t *testing.T) {
	spec := writeTinySpec(t)
	cacheDir := t.TempDir()

	code, _, errOut := runCLI(t, "-spec", spec, "-cache-dir", cacheDir, "-q")
	if code != 0 {
		t.Fatalf("cold sweep exit %d:\n%s", code, errOut)
	}
	m := cacheStats.FindStringSubmatch(errOut)
	if m == nil {
		t.Fatalf("no cache stats line in stderr:\n%s", errOut)
	}
	// 1 sched × 2 migrations × 2 runs = 4 grid cells, all cold misses.
	if m[1] != "0" || m[2] != "4" || m[3] != "0" {
		t.Fatalf("cold stats = hits %s, misses %s, corrupt %s; want 0/4/0", m[1], m[2], m[3])
	}

	code, _, errOut = runCLI(t, "-spec", spec, "-cache-dir", cacheDir, "-q")
	if code != 0 {
		t.Fatalf("warm sweep exit %d:\n%s", code, errOut)
	}
	m = cacheStats.FindStringSubmatch(errOut)
	if m == nil || m[1] != "4" || m[2] != "0" || m[3] != "0" {
		t.Fatalf("warm stats line = %v; want hits 4, misses 0, corrupt 0\n%s", m, errOut)
	}

	// Mangle one cache entry: the next sweep must report it as corrupt (and
	// recompute), not silently fold it into the miss count.
	var victim string
	filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" && victim == "" {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("no cache entry files written")
	}
	if err := os.WriteFile(victim, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, "-spec", spec, "-cache-dir", cacheDir, "-q")
	if code != 0 {
		t.Fatalf("post-corruption sweep exit %d:\n%s", code, errOut)
	}
	m = cacheStats.FindStringSubmatch(errOut)
	if m == nil || m[1] != "3" || m[2] != "1" || m[3] != "1" {
		t.Fatalf("post-corruption stats = %v; want hits 3, misses 1, corrupt 1\n%s", m, errOut)
	}
}

// TestShardedSweepAndMerge: two shard processes plus `vcebench merge` must
// reproduce the single-process artifacts byte-identically.
func TestShardedSweepAndMerge(t *testing.T) {
	spec := writeTinySpec(t)
	base := t.TempDir()
	full := filepath.Join(base, "full")
	s0 := filepath.Join(base, "s0")
	s1 := filepath.Join(base, "s1")
	merged := filepath.Join(base, "merged")

	for _, args := range [][]string{
		{"-spec", spec, "-q", "-out", full},
		{"-spec", spec, "-q", "-shard", "0/2", "-out", s0},
		{"-spec", spec, "-q", "-shard", "1/2", "-out", s1},
		{"merge", "-out", merged, s0, s1},
	} {
		if code, _, errOut := runCLI(t, args...); code != 0 {
			t.Fatalf("vcebench %v exit %d:\n%s", args, code, errOut)
		}
	}
	for _, name := range []string{"report.json", "indexes.csv", "runs.csv", "report.txt"} {
		want, err := os.ReadFile(filepath.Join(full, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(merged, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between merged shards and the single-process run", name)
		}
	}
}

// TestMergeEmptyShardDir: a shard directory without a report.json must fail
// loudly, naming the missing artifact.
func TestMergeEmptyShardDir(t *testing.T) {
	empty := t.TempDir()
	code, _, errOut := runCLI(t, "merge", empty)
	if code == 0 {
		t.Fatal("merge of an empty shard dir succeeded")
	}
	if !strings.Contains(errOut, "report.json") {
		t.Errorf("error does not name the missing artifact:\n%s", errOut)
	}
}

// TestMergeNoArgsUsage: bare `vcebench merge` prints usage and exits 2.
func TestMergeNoArgsUsage(t *testing.T) {
	code, _, errOut := runCLI(t, "merge")
	if code != 2 || !strings.Contains(errOut, "usage") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
}

// TestCheckSubcommand: a tiny clean `vcebench check` run exits 0 and prints
// the per-property summary with all six properties and no failure.
func TestCheckSubcommand(t *testing.T) {
	out := t.TempDir()
	code, stdout, errOut := runCLI(t, "check", "-seeds", "2", "-q", "-out", out)
	if code != 0 {
		t.Fatalf("check exit %d:\n%s", code, errOut)
	}
	for _, prop := range []string{"execution-identity", "counts", "steady-state-bounds", "topology-conservation", "machine-permutation", "makespan-dominance", "skipped"} {
		if !strings.Contains(stdout, prop) {
			t.Errorf("summary table missing %s:\n%s", prop, stdout)
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != 0 {
		t.Errorf("clean check wrote %d repro files", len(entries))
	}
}

// TestCheckUnknownProperty: the -properties filter rejects unknown names.
func TestCheckUnknownProperty(t *testing.T) {
	if code, _, _ := runCLI(t, "check", "-seeds", "1", "-properties", "bogus"); code == 0 {
		t.Fatal("unknown property accepted")
	}
}

// TestOutOfRangeCountsRejected: a count flag outside its range is a named
// error, not a silent swap for the default.
func TestOutOfRangeCountsRejected(t *testing.T) {
	spec := writeTinySpec(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-spec", spec, "-q", "-runs", "-1"}, "-runs"},
		{[]string{"-spec", spec, "-q", "-workers", "-3"}, "-workers"},
		{[]string{"check", "-q", "-seeds", "0"}, "-seeds"},
		{[]string{"check", "-q", "-seeds", "-5"}, "-seeds"},
		{[]string{"check", "-q", "-seeds", "1", "-workers", "0"}, "-workers"},
	} {
		code, stdout, errOut := runCLI(t, tc.args...)
		if code != 1 || !strings.Contains(errOut, tc.flag) || stdout != "" {
			t.Errorf("vcebench %v: exit %d, stdout %q, stderr %q; want exit 1 naming %s", tc.args, code, stdout, errOut, tc.flag)
		}
	}
}

// TestHelpExitsZero: -h is a successful invocation on every subcommand, not
// a usage error.
func TestHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"merge", "-h"}, {"check", "-h"}} {
		if code, _, errOut := runCLI(t, args...); code != 0 || !strings.Contains(errOut, "-out") {
			t.Errorf("vcebench %v: exit %d, stderr:\n%s", args, code, errOut)
		}
	}
}

// TestParseShard covers the -shard flag grammar.
func TestParseShard(t *testing.T) {
	if s, err := parseShard("1/3"); err != nil || s.Index != 1 || s.Count != 3 {
		t.Fatalf("parseShard(1/3) = %+v, %v", s, err)
	}
	for _, bad := range []string{"x", "1", "/", "2/2", "-1/2", "a/b"} {
		if _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

// TestRepeatedClassBlocksRun: a spec may list one machine class in several
// blocks — a fast and a slow workstation group at two sites, or the
// "workstation" and "ws" spellings of one class. Machines number per class
// across blocks, so both sweeps run every cell and exit 0.
func TestRepeatedClassBlocksRun(t *testing.T) {
	for name, classes := range map[string]string{
		"two-speeds": `{"class": "workstation", "count": 2, "site": "a", "speed": {"dist": "fixed", "value": 2}},
			{"class": "workstation", "count": 2, "site": "b", "speed": {"dist": "fixed", "value": 1}}`,
		"alias": `{"class": "workstation", "count": 1, "speed": {"dist": "fixed", "value": 1}},
			{"class": "ws", "count": 1, "speed": {"dist": "fixed", "value": 1}}`,
	} {
		spec := `{"name": "` + name + `", "horizon_s": 300,
			"machines": {"classes": [` + classes + `]},
			"workload": {"tasks": 4, "work": {"dist": "fixed", "value": 10}},
			"policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]},
			"runs": 3, "seed": 1}`
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, errOut := runCLI(t, "-spec", path, "-q")
		if code != 0 || strings.Contains(stdout, "partial") {
			t.Errorf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", name, code, stdout, errOut)
		}
	}
}
