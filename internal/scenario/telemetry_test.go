package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"vce/internal/obs"
)

// cellStructure strips the wall-clock fields from a telemetry snapshot,
// leaving only what the determinism contract covers: cell identity, cache
// provenance and kernel counters. Lane and every *_ms field legitimately
// vary with scheduling; nothing else may.
type cellStructure struct {
	Sched, Migration string
	Run              int
	Cached           bool
	Kernel           obs.KernelCounters
}

func structureOf(s obs.Summary) []cellStructure {
	out := make([]cellStructure, len(s.Cells))
	for i, c := range s.Cells {
		out[i] = cellStructure{Sched: c.Sched, Migration: c.Migration, Run: c.Run, Cached: c.Cached, Kernel: c.Kernel}
	}
	return out
}

// TestTelemetryStructureDeterminism: the snapshot's structure — cell set,
// ordering, cached flags and kernel counters — is identical at workers=1
// and workers=4; only timestamps (and lane assignment) may differ. The
// kernel counters being equal is the strong half: it proves the simulation
// performed exactly the same event traffic whatever the concurrency.
func TestTelemetryStructureDeterminism(t *testing.T) {
	sp := testSpec()
	var snaps []obs.Summary
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		if _, err := RunContext(context.Background(), sp, Options{Workers: workers, Telemetry: rec}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snaps = append(snaps, rec.Snapshot())
	}
	if snaps[0].Workers != 1 || snaps[1].Workers != 4 {
		t.Fatalf("recorded workers = %d/%d", snaps[0].Workers, snaps[1].Workers)
	}
	a, b := structureOf(snaps[0]), structureOf(snaps[1])
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry structure differs across worker counts:\nworkers=1: %+v\nworkers=4: %+v", a, b)
	}
	if a[0].Kernel.Fired == 0 || a[0].Kernel.Scheduled == 0 {
		t.Fatalf("kernel counters not recorded: %+v", a[0].Kernel)
	}
	// A cell is enqueued when the execute phase starts, so its queue wait is
	// the time until a worker claimed it: one worker claims in Shard.jobs
	// order, and its queue waits grow along that order.
	insts := sp.Instances()
	wait := map[job]float64{}
	for _, c := range snaps[0].Cells {
		for cell, inst := range insts {
			if inst.Sched == c.Sched && inst.Migration == c.Migration {
				wait[job{cell: cell, run: c.Run}] = c.QueueWaitMS
			}
		}
	}
	prev := 0.0
	for _, j := range (Shard{}).jobs(len(insts), sp.Runs) {
		if wait[j] < prev {
			t.Fatalf("workers=1: cell %d run %d waited %v ms, less than the cell claimed before it (%v ms)", j.cell, j.run, wait[j], prev)
		}
		prev = wait[j]
	}
	if prev == 0 {
		t.Fatal("workers=1: the last cell claimed recorded no queue wait")
	}
	// Every sweep records the three top-level spans in order.
	for _, s := range snaps {
		if len(s.Spans) != 3 || s.Spans[0].Name != "setup" || s.Spans[1].Name != "execute" || s.Spans[2].Name != "merge" {
			t.Fatalf("sweep spans = %+v", s.Spans)
		}
	}
}

// TestTelemetryDoesNotPerturbReport: the report marshals byte-identically
// with and without a recorder attached — telemetry observes the sweep, it
// never participates in it.
func TestTelemetryDoesNotPerturbReport(t *testing.T) {
	sp := testSpec()
	plain, err := RunContext(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunContext(context.Background(), sp, Options{Workers: 4, Telemetry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(observed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report bytes differ with telemetry attached")
	}
}

// TestTelemetryWarmCacheProvenance: on a warm cache every cell records
// Cached=true with zero kernel counters (nothing simulated), and
// Progress reports the same provenance.
func TestTelemetryWarmCacheProvenance(t *testing.T) {
	sp := testSpec()
	cache := newMapStore()
	if _, err := RunContext(context.Background(), sp, Options{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	var events []ProgressEvent
	if _, err := RunContext(context.Background(), sp, Options{
		Workers: 4, Cache: cache, Telemetry: rec,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	}); err != nil {
		t.Fatal(err)
	}

	jobs := len(sp.Instances()) * sp.Runs
	snap := rec.Snapshot()
	if snap.Totals.Cells != jobs || snap.Totals.CachedCells != jobs {
		t.Fatalf("warm sweep cells/cached = %d/%d, want %d/%d", snap.Totals.Cells, snap.Totals.CachedCells, jobs, jobs)
	}
	for _, c := range snap.Cells {
		if !c.Cached || c.Kernel != (obs.KernelCounters{}) {
			t.Fatalf("warm cell %s/%s#%d: cached=%v kernel=%+v", c.Sched, c.Migration, c.Run, c.Cached, c.Kernel)
		}
	}
	if len(events) != jobs {
		t.Fatalf("Progress fired %d times, want %d", len(events), jobs)
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Fatalf("warm run %s#%d not marked cached in Progress", ev.Instance.Key(), ev.Run)
		}
	}
}

// TestProgressColdProvenance: without a cache no event claims a cache
// replay, and every run reports once.
func TestProgressColdProvenance(t *testing.T) {
	sp := testSpec()
	var fired int
	_, err := RunContext(context.Background(), sp, Options{
		Workers: 2,
		Progress: func(ev ProgressEvent) {
			fired++
			if ev.Cached {
				t.Fatal("cold run marked cached")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(sp.Instances()) * sp.Runs
	if fired != jobs {
		t.Fatalf("Progress fired %d times, want %d", fired, jobs)
	}
}
