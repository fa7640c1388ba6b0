package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runShards executes sp as count shards and returns the shard reports.
func runShards(t *testing.T, sp *Spec, count int, opts Options) []*Report {
	t.Helper()
	reports := make([]*Report, count)
	for i := 0; i < count; i++ {
		o := opts
		o.Shard = Shard{Index: i, Count: count}
		rep, err := RunContext(context.Background(), sp, o)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		reports[i] = rep
	}
	return reports
}

// TestShardPartitionCoversGrid is the shard-boundary contract: for several
// shard counts — including more shards than grid positions — every (cell,
// run) position lands in exactly one shard, and no shard invents positions.
func TestShardPartitionCoversGrid(t *testing.T) {
	sp := testSpec()
	jobs := len(sp.Instances()) * sp.Runs // 4 cells × 2 runs
	for _, count := range []int{1, 2, 3, 5, jobs, jobs + 3} {
		seen := make(map[string]int)
		for _, rep := range runShards(t, sp, count, Options{Workers: 2}) {
			for _, cell := range rep.Cells {
				for i := range cell.Runs {
					seen[fmt.Sprintf("%s/%s#%d", cell.Sched, cell.Migration, cell.runNumber(i))]++
				}
			}
		}
		if len(seen) != jobs {
			t.Fatalf("count=%d: %d distinct grid positions across shards, want %d", count, len(seen), jobs)
		}
		for pos, n := range seen {
			if n != 1 {
				t.Fatalf("count=%d: position %s executed by %d shards", count, pos, n)
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	sp := testSpec()
	for _, sh := range []Shard{{Index: 2, Count: 2}, {Index: -1, Count: 2}, {Index: 0, Count: -1}, {Index: 1, Count: 0}} {
		if _, err := RunContext(context.Background(), sp, Options{Shard: sh}); err == nil {
			t.Errorf("shard %+v accepted, want validation error", sh)
		}
	}
}

// reportJSON serializes a report the way the report.json artifact does, so
// byte comparisons in these tests match the artifact contract exactly.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMergedShardsByteIdenticalToSingleRun is the tentpole guarantee: a
// sweep split across N shards and merged produces the byte-identical
// report — and therefore byte-identical artifacts — of a single-process
// run, for several N, with the shard reports fed to the merge in any
// order.
func TestMergedShardsByteIdenticalToSingleRun(t *testing.T) {
	sp := goldenSpec()
	single, err := RunContext(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, single)
	for _, count := range []int{2, 3} {
		shards := runShards(t, sp, count, Options{Workers: 2})
		// Merge in reversed order: shard order must not leak into bytes.
		rev := make([]*Report, count)
		for i, rep := range shards {
			rev[count-1-i] = rep
		}
		merged, err := MergeReports(rev...)
		if err != nil {
			t.Fatalf("merge %d shards: %v", count, err)
		}
		if got := reportJSON(t, merged); got != want {
			t.Fatalf("count=%d: merged report differs from single-process run:\n--- merged ---\n%s\n--- single ---\n%s", count, got, want)
		}
	}
}

// TestMergedShardArtifactsMatchGolden pins the sharded path to the same
// committed artifact bytes the single-process golden test pins: shard the
// golden fixture, merge, write artifacts, compare to testdata/golden.
func TestMergedShardArtifactsMatchGolden(t *testing.T) {
	if *update {
		t.Skip("goldens are being rewritten by TestGoldenArtifacts")
	}
	shards := runShards(t, goldenSpec(), 2, Options{Workers: 2})
	merged, err := MergeReports(shards...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, err := merged.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range written {
		name := filepath.Base(path)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("merged-shard artifact %s differs from golden copy:\n--- got ---\n%s\n--- want ---\n%s", name, clip(got), clip(want))
		}
	}
}

// TestMergePartialShardsKeepsRunIdentity merges an incomplete shard set:
// the result must be a partial report whose runs keep their true run
// numbers.
func TestMergePartialShardsKeepsRunIdentity(t *testing.T) {
	sp := testSpec()
	shards := runShards(t, sp, 3, Options{Workers: 2})
	merged, err := MergeReports(shards[0], shards[2]) // shard 1 lost
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cell := range merged.Cells {
		total += len(cell.Runs)
		if len(cell.Runs) != sp.Runs && len(cell.RunNumbers) != len(cell.Runs) {
			t.Fatalf("partial cell %s/%s: %d run numbers for %d runs", cell.Sched, cell.Migration, len(cell.RunNumbers), len(cell.Runs))
		}
		for i := 1; i < len(cell.RunNumbers); i++ {
			if cell.RunNumbers[i] <= cell.RunNumbers[i-1] {
				t.Fatalf("cell %s/%s: run numbers not increasing: %v", cell.Sched, cell.Migration, cell.RunNumbers)
			}
		}
	}
	want := 0
	for _, rep := range []*Report{shards[0], shards[2]} {
		for _, cell := range rep.Cells {
			want += len(cell.Runs)
		}
	}
	if total != want {
		t.Fatalf("merged %d runs, the two surviving shards hold %d", total, want)
	}
	// Completing the set later (the resumable-sweep path) restores the
	// full report byte-identically.
	full, err := MergeReports(merged, shards[1])
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunContext(context.Background(), sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, full) != reportJSON(t, single) {
		t.Fatal("merging the missing shard into a partial merge did not restore the single-run report")
	}
}

func TestMergeRejectsOverlappingShards(t *testing.T) {
	shards := runShards(t, testSpec(), 2, Options{Workers: 2})
	if _, err := MergeReports(shards[0], shards[0]); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("duplicate shard merged silently; err = %v", err)
	}
}

func TestMergeRejectsMismatchedSpecs(t *testing.T) {
	a, err := RunContext(context.Background(), testSpec(), Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Seed = 777
	b, err := RunContext(context.Background(), other, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports(a, b); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Fatalf("mismatched specs merged silently; err = %v", err)
	}
	if _, err := MergeReports(); err == nil {
		t.Fatal("empty merge succeeded")
	}
}
