package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vce/internal/metrics"
)

// TestIndexRegistryMatchesIndexes pins the registry to the Indexes struct:
// every registered column name is the JSON tag of exactly one Indexes field
// and every field is registered, so a new index cannot silently exist in
// report.json without flowing through the tables and CSV/JSON writers.
func TestIndexRegistryMatchesIndexes(t *testing.T) {
	tags := map[string]bool{}
	rt := reflect.TypeOf(Indexes{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			t.Fatalf("Indexes field %s has no usable json tag", rt.Field(i).Name)
		}
		tags[tag] = true
	}
	seen := map[string]bool{}
	for _, c := range indexRegistry {
		if seen[c.name] {
			t.Errorf("column %q registered twice", c.name)
		}
		seen[c.name] = true
		if !tags[c.name] {
			t.Errorf("column %q has no matching Indexes field", c.name)
		}
		if c.unit == "" {
			t.Errorf("column %q has no unit", c.name)
		}
		if c.get == nil {
			t.Errorf("column %q has no getter", c.name)
		}
	}
	for tag := range tags {
		if !seen[tag] {
			t.Errorf("Indexes field %q is not in the index registry", tag)
		}
	}
}

// TestFmtMSSingleRun pins the byte-level rendering of a single-run cell:
// one sample has no spread, so the cell is mean-only — the degenerate
// "239.5 ± 0" form must not come back.
func TestFmtMSSingleRun(t *testing.T) {
	var d metrics.Dist
	d.Observe(239.469405225)
	if got := fmtMS(&d); got != "239.5" {
		t.Errorf("single-run fmtMS = %q, want %q", got, "239.5")
	}
	d.Observe(281.382819043)
	if got := fmtMS(&d); got != "260.4 ± 21" {
		t.Errorf("two-run fmtMS = %q, want %q", got, "260.4 ± 21")
	}
	var empty metrics.Dist
	if got := fmtMS(&empty); got != "0" {
		t.Errorf("empty fmtMS = %q, want %q", got, "0")
	}
}

// TestFmtAggPeak: a peak-aggregated column reports the max across runs, not
// a mean that would understate the worst backlog.
func TestFmtAggPeak(t *testing.T) {
	var d metrics.Dist
	d.Observe(3)
	d.Observe(17)
	d.Observe(5)
	if got := fmtAgg(&d, aggPeak); got != "17" {
		t.Errorf("fmtAgg peak = %q, want %q", got, "17")
	}
	if got := fmtAgg(&d, aggMeanStd); got != fmtMS(&d) {
		t.Errorf("fmtAgg mean-std = %q, want fmtMS %q", got, fmtMS(&d))
	}
}

// TestComparisonTableSingleRunCells: a runs:1 report renders every
// mean±stddev cell mean-only end to end, not just at the fmtMS level.
func TestComparisonTableSingleRunCells(t *testing.T) {
	sp := testSpec()
	sp.Runs = 1
	rep := &Report{
		Spec: sp,
		Cells: []Cell{{
			Sched: "greedy-best-fit", Migration: "none",
			Runs: []Indexes{{MakespanS: 239.469405225, Completed: 8}},
		}},
	}
	tab := rep.ComparisonTable()
	for col := 2; col < len(tab.Columns); col++ {
		if cell := tab.Cell(0, col); strings.Contains(cell, "±") {
			t.Errorf("single-run column %s renders %q; want mean-only", tab.Columns[col], cell)
		}
	}
	if got := tab.Cell(0, 2); got != "239.5" {
		t.Errorf("makespan cell = %q, want %q", got, "239.5")
	}
}

// TestCellRunNumbersJSONRoundTrip: the RunNumbers overlay — the only record
// of which seeds survived a partial sweep — must survive the report.json
// round trip bit-for-bit, and must stay absent for complete cells.
func TestCellRunNumbersJSONRoundTrip(t *testing.T) {
	sp := testSpec()
	sp.Runs = 3
	in := &Report{
		Engine: EngineVersion,
		Spec:   sp,
		Cells: []Cell{
			{Sched: "a", Migration: "none", Runs: []Indexes{{Completed: 1}, {Completed: 3}}, RunNumbers: []int{0, 2}},
			{Sched: "b", Migration: "none", Runs: []Indexes{{Completed: 1}, {Completed: 2}, {Completed: 3}}},
		},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Cells[0].RunNumbers, []int{0, 2}) {
		t.Errorf("partial cell RunNumbers = %v, want [0 2]", out.Cells[0].RunNumbers)
	}
	if out.Cells[1].RunNumbers != nil {
		t.Errorf("complete cell grew a RunNumbers overlay: %v", out.Cells[1].RunNumbers)
	}
	// runNumber falls back to position exactly where the overlay is absent.
	if got := out.Cells[0].runNumber(1); got != 2 {
		t.Errorf("partial cell runNumber(1) = %d, want 2", got)
	}
	if got := out.Cells[1].runNumber(1); got != 1 {
		t.Errorf("complete cell runNumber(1) = %d, want 1", got)
	}
}

// TestMergePartialReports: merging two partial shards interleaves runs by
// their true run numbers; a cell that becomes complete drops the overlay,
// one that stays gapped keeps it.
func TestMergePartialReports(t *testing.T) {
	sp := testSpec()
	sp.Runs = 3
	cellA := func(runs []Indexes, nums []int) []Cell {
		return []Cell{{Sched: "greedy-best-fit", Migration: "none", Runs: runs, RunNumbers: nums}}
	}
	left := &Report{Engine: EngineVersion, Spec: sp,
		Cells: cellA([]Indexes{{Completed: 10}, {Completed: 30}}, []int{0, 2})}
	right := &Report{Engine: EngineVersion, Spec: sp,
		Cells: cellA([]Indexes{{Completed: 20}}, []int{1})}

	merged, err := MergeReports(left, right)
	if err != nil {
		t.Fatal(err)
	}
	got := merged.Cells[0]
	if len(got.Runs) != 3 || got.Runs[0].Completed != 10 || got.Runs[1].Completed != 20 || got.Runs[2].Completed != 30 {
		t.Fatalf("merged runs out of order: %+v", got.Runs)
	}
	if got.RunNumbers != nil {
		t.Errorf("complete merged cell kept overlay %v", got.RunNumbers)
	}

	// Without the middle shard the gap must survive the merge.
	partial, err := MergeReports(left)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partial.Cells[0].RunNumbers, []int{0, 2}) {
		t.Errorf("gapped merged cell RunNumbers = %v, want [0 2]", partial.Cells[0].RunNumbers)
	}

	// Overlapping shards are corrupt, not silently deduplicated.
	if _, err := MergeReports(left, left); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping shards accepted: %v", err)
	}
}
