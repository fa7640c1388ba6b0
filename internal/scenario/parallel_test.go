package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelByteIdenticalAcrossWorkers is the core guarantee of the
// parallel executor: for a fixed seed the serialized report is
// byte-identical at any worker count. It runs the hetero-baseline built-in
// (the full 2×3 policy matrix with owner churn and constrained tasks) twice
// at workers=1 and workers=8 and compares the JSON bytes.
func TestParallelByteIdenticalAcrossWorkers(t *testing.T) {
	serialize := func(workers int) []byte {
		t.Helper()
		sp, err := Load(filepath.Join("../../examples/scenarios", "hetero-baseline.json"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunContext(context.Background(), sp, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := serialize(1)
	wide := serialize(8)
	if string(serial) != string(wide) {
		t.Fatalf("workers=1 and workers=8 reports differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, wide)
	}
	if again := serialize(8); string(wide) != string(again) {
		t.Fatal("two workers=8 sweeps of the same spec differ — merge order leaked into the report")
	}
}

// TestCancellationMidSweep cancels the context after the first completed
// run: RunContext must return promptly with the context error and the
// worker pool must fully unwind (no leaked goroutines).
func TestCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	sp := testSpec()
	sp.Runs = 200 // enough jobs that cancellation lands mid-sweep
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	opts := Options{
		Workers: 4,
		Progress: func(ProgressEvent) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	}
	start := time.Now()
	rep, err := RunContext(ctx, sp, opts)
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("fail-fast cancelled sweep returned a report: %+v", rep)
	}
	// The whole 800-job sweep takes seconds; a prompt abort takes a few
	// runs' worth of simulation at most.
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep took %v to return", elapsed)
	}

	// RunContext waits for its workers, but goroutines they handed work to
	// (a cell's context.AfterFunc) may still be exiting; poll briefly
	// rather than racing the scheduler.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineStopsRunningCell: an expired context stops a cell mid-run
// even when every event of the cell falls early in a long horizon. The
// overloaded 300k-task cell below takes most of a second to simulate
// uncancelled (0.8 s on a 2-vCPU x86-64 host); with a 100 ms deadline the
// sweep must return the deadline error well before that. Its arrivals are
// open-loop (a diurnal source with amplitude 0 is a homogeneous Poisson
// stream), drawn as the cell runs rather than generated up front, so setup
// stays short even under the race detector.
func TestDeadlineStopsRunningCell(t *testing.T) {
	sp, err := Parse([]byte(`{
		"name": "deadline",
		"horizon_s": 1000000,
		"machines": {"classes": [{"class": "workstation", "count": 200, "speed": {"dist": "fixed", "value": 1}, "slots": 2}]},
		"workload": {"tasks": 300000, "work": {"dist": "uniform", "min": 1, "max": 3}, "arrivals": {"kind": "diurnal", "rate_per_s": 150, "amplitude": 0}},
		"policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]},
		"runs": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := RunContext(ctx, sp, Options{Workers: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || rep != nil {
		t.Fatalf("RunContext = (%v, %v), want (nil, context.DeadlineExceeded)", rep, err)
	}
	if elapsed > 600*time.Millisecond {
		t.Fatalf("deadline of 100ms stopped the sweep after %v", elapsed)
	}
}

// TestPartialReportKeepsRunIdentity pins the artifact contract for partial
// reports: runs.csv rows carry the original run index (the seed identity),
// not the slice position, and the comparison table flags the gap.
func TestPartialReportKeepsRunIdentity(t *testing.T) {
	sp := testSpec()
	sp.Runs = 3
	rep := &Report{
		Spec: sp,
		Cells: []Cell{{
			Sched: "greedy-best-fit", Migration: "none",
			Runs:       []Indexes{{Completed: 1}, {Completed: 2}},
			RunNumbers: []int{0, 2}, // run 1 is another shard's
		}},
	}
	tab := rep.RunsTable()
	runCol := -1
	for i, c := range tab.Columns {
		if c == "run" {
			runCol = i
		}
	}
	if runCol < 0 {
		t.Fatal("no run column in RunsTable")
	}
	if got := tab.Cell(1, runCol); got != "2" {
		t.Errorf("surviving run labeled %q, want its original index 2", got)
	}
	if title := rep.ComparisonTable().Title; !strings.Contains(title, "partial") {
		t.Errorf("comparison table title %q does not flag the partial sweep", title)
	}
}

// TestProgressSerialized drives sweeps with a deliberately unsynchronized
// callback: the engine's contract is that progress never runs concurrently
// with itself, asserted with a compare-and-swap guard (and by the race
// detector in CI). Every grid position reports exactly once, and one worker
// claims positions in Shard.jobs order, so its progress arrives in that
// order.
func TestProgressSerialized(t *testing.T) {
	sp := testSpec()
	insts := sp.Instances()
	for _, tc := range []struct {
		workers int
		shard   Shard
	}{
		{workers: 1},
		{workers: 1, shard: Shard{Index: 1, Count: 3}},
		{workers: 4},
		{workers: 8},
	} {
		var active atomic.Int32
		var order []job // unsynchronized on purpose: serialization makes this safe
		rep, err := RunContext(context.Background(), sp, Options{
			Workers: tc.workers, Shard: tc.shard,
			Progress: func(ev ProgressEvent) {
				if !active.CompareAndSwap(0, 1) {
					t.Error("progress callback ran concurrently with itself")
				}
				for cell, inst := range insts {
					if inst.Key() == ev.Instance.Key() {
						order = append(order, job{cell: cell, run: ev.Run})
					}
				}
				active.Store(0)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := tc.shard.jobs(len(insts), sp.Runs)
		if tc.workers == 1 && !reflect.DeepEqual(order, want) {
			t.Errorf("workers=1 shard %v: progress order %v, want Shard.jobs order %v", tc.shard, order, want)
		}
		seen := map[job]int{}
		for _, j := range order {
			seen[j]++
		}
		for _, j := range want {
			if seen[j] != 1 {
				t.Errorf("workers=%d shard %v: cell %d run %d reported %d times, want once", tc.workers, tc.shard, j.cell, j.run, seen[j])
			}
		}
		if len(order) != len(want) {
			t.Errorf("workers=%d shard %v: progress fired %d times, want %d", tc.workers, tc.shard, len(order), len(want))
		}
		filled := 0
		for _, c := range rep.Cells {
			filled += len(c.Runs)
		}
		if filled != len(want) {
			t.Errorf("workers=%d shard %v: report holds %d runs, want %d", tc.workers, tc.shard, filled, len(want))
		}
	}
}

// TestWorkersEquivalentToSerialRun: the zero Options (one worker per
// available CPU) and an explicit workers=N RunContext agree exactly.
func TestWorkersEquivalentToSerialRun(t *testing.T) {
	a, err := RunContext(context.Background(), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), testSpec(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("RunContext default and workers=8 reports differ:\n%s\nvs\n%s", aj, bj)
	}
}
