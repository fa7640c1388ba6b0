package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMergeRejectsDuplicateCells: a report whose cell list names the same
// (sched, migration) coordinate twice is structurally corrupt; merging it
// could silently conflate unrelated run sets.
func TestMergeRejectsDuplicateCells(t *testing.T) {
	rep, err := RunContext(context.Background(), testSpec(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dup := *rep
	dup.Cells = append(append([]Cell(nil), rep.Cells...), rep.Cells[0])
	if _, err := MergeReports(&dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate cell accepted: %v", err)
	}
}

// TestMergeRejectsEngineMismatch: reports stamped by different engine
// versions are different experiments, spec equality notwithstanding.
func TestMergeRejectsEngineMismatch(t *testing.T) {
	sp := testSpec()
	a, err := RunContext(context.Background(), sp, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), sp, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineVersion {
		t.Fatalf("executor stamped %q, want %q", a.Engine, EngineVersion)
	}
	stale := *b
	stale.Engine = "vce-scenario/0-ancient"
	if _, err := MergeReports(a, &stale); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("engine mismatch accepted: %v", err)
	}

	// A pre-stamp (empty-engine) report predates the stamp itself, so its
	// numbers cannot be one sweep with a stamped report's.
	legacy := *b
	legacy.Engine = ""
	if _, err := MergeReports(a, &legacy); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("legacy unstamped report accepted: %v", err)
	}
	merged, err := MergeReports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Engine != EngineVersion {
		t.Fatalf("merged engine = %q, want %q", merged.Engine, EngineVersion)
	}
}

// TestMergeRejectsRunOutsideSpec: a run number outside [0, Runs) names no
// seed of the spec, so the report carrying it is corrupt.
func TestMergeRejectsRunOutsideSpec(t *testing.T) {
	sp := testSpec()
	sp.Runs = 2
	for _, run := range []int{-1, 2} {
		rep := &Report{Engine: EngineVersion, Spec: sp, Cells: []Cell{{
			Sched: "greedy-best-fit", Migration: "none",
			Runs: []Indexes{{Completed: 1}}, RunNumbers: []int{run},
		}}}
		if _, err := MergeReports(rep); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("run %d of a 2-run spec accepted: %v", run, err)
		}
	}
}

// TestMergeEngineMismatchEitherOrder: the mismatch must be caught whichever
// report comes first, including when the reference itself is unstamped.
func TestMergeEngineMismatchEitherOrder(t *testing.T) {
	sp := testSpec()
	a, err := RunContext(context.Background(), sp, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), sp, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	stale := *a
	stale.Engine = "vce-scenario/0-ancient"
	if _, err := MergeReports(&stale, b); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("engine mismatch with stale reference accepted: %v", err)
	}
	// An unstamped report is refused whether it is the reference or not.
	unstamped := *a
	unstamped.Engine = ""
	if _, err := MergeReports(&unstamped, b); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("unstamped reference accepted: %v", err)
	}
	if _, err := MergeReports(b, &unstamped); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Fatalf("unstamped later report accepted: %v", err)
	}
}

// TestLoadReportMissingAndCorrupt covers the remaining artifact-loading
// error paths `vcebench merge` depends on: an absent file (the empty shard
// directory case) and a torn report.json.
func TestLoadReportMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadReport(filepath.Join(dir, ReportFile)); err == nil {
		t.Fatal("missing report.json loaded")
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"spec": {"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(torn); err == nil {
		t.Fatal("torn report.json loaded")
	}
	noSpec := filepath.Join(dir, "nospec.json")
	if err := os.WriteFile(noSpec, []byte(`{"cells": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(noSpec); err == nil || !strings.Contains(err.Error(), "no spec") {
		t.Fatalf("spec-less report accepted: %v", err)
	}
}
