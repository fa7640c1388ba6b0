package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
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

	// The pool unwinds asynchronously after RunContext returns (workers
	// parked on the job channel exit when the feeder closes it); poll
	// briefly rather than racing the scheduler.
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

// TestCancelledContinueOnErrorReturnsPartialReport checks the
// collect-errors contract under cancellation: the completed runs survive in
// the report, and the context error is still surfaced.
func TestCancelledContinueOnErrorReturnsPartialReport(t *testing.T) {
	sp := testSpec()
	sp.Runs = 200
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	rep, err := RunContext(ctx, sp, Options{
		Workers:         4,
		ContinueOnError: true,
		Progress: func(ProgressEvent) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("ContinueOnError cancelled sweep returned nil report")
	}
	total := 0
	for _, cell := range rep.Cells {
		total += len(cell.Runs)
		if len(cell.Runs) == sp.Runs {
			continue // complete cell: position is the run number, no overlay
		}
		// Survivors keep their true seed identities: RunNumbers tracks Runs
		// one-to-one and stays strictly increasing (run order).
		if len(cell.RunNumbers) != len(cell.Runs) {
			t.Fatalf("cell %s/%s: %d run numbers for %d runs", cell.Sched, cell.Migration, len(cell.RunNumbers), len(cell.Runs))
		}
		for i := 1; i < len(cell.RunNumbers); i++ {
			if cell.RunNumbers[i] <= cell.RunNumbers[i-1] {
				t.Fatalf("cell %s/%s: run numbers not increasing: %v", cell.Sched, cell.Migration, cell.RunNumbers)
			}
		}
	}
	if total == 0 || total >= len(rep.Cells)*sp.Runs {
		t.Fatalf("partial report has %d runs, want some but not all of %d", total, len(rep.Cells)*sp.Runs)
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
			RunNumbers: []int{0, 2}, // run 1 failed and was dropped
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

// dupMachineSpec passes Validate but fails in RunInstance: "workstation"
// and "ws" are aliases for the same name prefix, so the second class
// generates a duplicate machine name. This is the only way a structurally
// valid spec errors at run time — exactly what the fail-fast/collect-errors
// split is for.
func dupMachineSpec() *Spec {
	return &Spec{
		Name:     "dup-machines",
		HorizonS: 300,
		Machines: MachineSetSpec{Classes: []MachineClassSpec{
			{Class: "workstation", Count: 1, Speed: Dist{Kind: "fixed", Value: 1}},
			{Class: "ws", Count: 1, Speed: Dist{Kind: "fixed", Value: 1}},
		}},
		Workload: WorkloadSpec{Tasks: 2, Work: Dist{Kind: "fixed", Value: 10}},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     3,
		Seed:     1,
	}
}

func TestFailFastReturnsFirstGridError(t *testing.T) {
	// workers=1 pins the full contract: the first grid position's error
	// surfaces. Wider pools may cancel jobs before they start, so there the
	// guarantee is the lowest position among jobs that actually ran.
	rep, err := RunContext(context.Background(), dupMachineSpec(), Options{Workers: 1})
	if err == nil {
		t.Fatal("want error from duplicate machine names")
	}
	if rep != nil {
		t.Fatalf("fail-fast returned a report alongside the error: %+v", rep)
	}
	if !strings.Contains(err.Error(), "duplicate machine") {
		t.Errorf("error = %v, want the duplicate-machine cause", err)
	}
	if !strings.Contains(err.Error(), "run 0") {
		t.Errorf("error = %v, want the lowest grid position (run 0)", err)
	}

	// Wide pool: same cause, no report, whichever run surfaces.
	rep, err = RunContext(context.Background(), dupMachineSpec(), Options{Workers: 4})
	if err == nil || rep != nil {
		t.Fatalf("workers=4 fail-fast: rep=%v err=%v", rep, err)
	}
	if !strings.Contains(err.Error(), "duplicate machine") {
		t.Errorf("workers=4 error = %v, want the duplicate-machine cause", err)
	}
}

func TestContinueOnErrorCollectsAllRuns(t *testing.T) {
	rep, err := RunContext(context.Background(), dupMachineSpec(), Options{Workers: 4, ContinueOnError: true})
	if err == nil {
		t.Fatal("want joined errors from duplicate machine names")
	}
	if rep == nil {
		t.Fatal("ContinueOnError must return the (empty) report alongside the errors")
	}
	if len(rep.Cells) != 1 || len(rep.Cells[0].Runs) != 0 {
		t.Fatalf("report cells = %+v, want one cell with zero surviving runs", rep.Cells)
	}
	for _, want := range []string{"run 0", "run 1", "run 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %v missing %s", err, want)
		}
	}
}

// TestProgressSerialized drives a wide sweep with a deliberately
// unsynchronized callback: the engine's contract is that progress never
// runs concurrently with itself, asserted with a compare-and-swap guard
// (and by the race detector in CI).
func TestProgressSerialized(t *testing.T) {
	sp := testSpec()
	var active atomic.Int32
	calls := 0 // unsynchronized on purpose: serialization makes this safe
	rep, err := RunContext(context.Background(), sp, Options{
		Workers: 8,
		Progress: func(ProgressEvent) {
			if !active.CompareAndSwap(0, 1) {
				t.Error("progress callback ran concurrently with itself")
			}
			calls++
			active.Store(0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(rep.Cells) * sp.Runs
	if calls != want {
		t.Errorf("progress fired %d times, want %d", calls, want)
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
