package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// record builds a small two-lane recorder: one computed cell, one cached
// cell, and the sweep-level spans the executor would record.
func record(t *testing.T) *Recorder {
	t.Helper()
	r := New()
	r.SetWorkers(2)
	r.RecordSpan("setup", 0, time.Millisecond)
	r.RecordCell(Cell{
		Sched: "greedy-best-fit", Migration: "none", Run: 0, Lane: 1,
		Enqueued: time.Millisecond, Start: 2 * time.Millisecond, End: 10 * time.Millisecond,
		Setup: 2 * time.Millisecond, Simulate: 5 * time.Millisecond, Measure: time.Millisecond,
		Kernel: KernelCounters{Scheduled: 100, Fired: 90, Cancelled: 10, HeapMax: 7, StateChanges: 40},
	})
	r.RecordCell(Cell{
		Sched: "greedy-best-fit", Migration: "none", Run: 1, Lane: 2, Cached: true,
		Enqueued: time.Millisecond, Start: 2 * time.Millisecond, End: 2*time.Millisecond + 40*time.Microsecond,
	})
	r.RecordSpan("execute", time.Millisecond, 11*time.Millisecond)
	r.RecordSpan("merge", 11*time.Millisecond, 12*time.Millisecond)
	r.SetCacheStats(CacheStats{Hits: 1, Misses: 1})
	return r
}

// TestTraceEventShape validates the emitted document against the Chrome
// trace-event JSON contract Perfetto loads: a traceEvents array whose
// entries all carry name/ph/pid/tid, non-negative timestamps, positive
// durations on complete events, thread-name metadata for every used lane,
// and a scope on instant events.
func TestTraceEventShape(t *testing.T) {
	var buf bytes.Buffer
	if err := record(t).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	threadNames := map[int]string{}
	var cells, phases, instants int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event with empty name: %+v", ev)
		}
		if ev.Pid == nil || ev.Tid == nil || ev.Ts == nil {
			t.Fatalf("event %q missing pid/tid/ts", ev.Name)
		}
		if *ev.Ts < 0 {
			t.Fatalf("event %q has negative ts %d", ev.Name, *ev.Ts)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has non-positive dur %d", ev.Name, ev.Dur)
			}
		case "i":
			if ev.S == "" {
				t.Fatalf("instant event %q has no scope", ev.Name)
			}
			instants++
		case "M":
			if ev.Name == "thread_name" {
				threadNames[*ev.Tid], _ = ev.Args["name"].(string)
			}
		default:
			t.Fatalf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
		if strings.Contains(ev.Name, "#") {
			cells++
			for _, key := range []string{"cached", "queue_wait_ms", "scheduled", "fired"} {
				if _, ok := ev.Args[key]; !ok {
					t.Errorf("cell %q missing arg %q", ev.Name, key)
				}
			}
		}
		if ev.Name == "setup" || ev.Name == "simulate" || ev.Name == "measure" {
			if ev.Ph == "X" && *ev.Tid != 0 {
				phases++
			}
		}
	}
	if cells != 2 {
		t.Errorf("trace has %d cell events, want 2", cells)
	}
	if phases != 3 {
		t.Errorf("trace has %d phase slices, want 3 (cached cell emits none)", phases)
	}
	if instants != 1 {
		t.Errorf("trace has %d cache-hit instants, want 1", instants)
	}
	for _, tid := range []int{0, 1, 2} {
		if threadNames[tid] == "" {
			t.Errorf("lane %d has no thread_name metadata", tid)
		}
	}
}

// TestSummaryTotals pins the snapshot aggregation: cell ordering, cached
// counting, phase sums and merged kernel counters.
func TestSummaryTotals(t *testing.T) {
	s := record(t).Snapshot()
	if s.Schema != SummarySchema || s.Workers != 2 {
		t.Fatalf("schema/workers = %d/%d", s.Schema, s.Workers)
	}
	if len(s.Cells) != 2 || s.Totals.Cells != 2 || s.Totals.CachedCells != 1 {
		t.Fatalf("cells = %d, totals = %+v", len(s.Cells), s.Totals)
	}
	if s.Cells[0].Run != 0 || s.Cells[1].Run != 1 {
		t.Fatalf("cells not in run order: %+v", s.Cells)
	}
	if s.Totals.Kernel.Scheduled != 100 || s.Totals.Kernel.HeapMax != 7 {
		t.Fatalf("kernel totals = %+v", s.Totals.Kernel)
	}
	if got := s.Cells[0].QueueWaitMS; got != 1 {
		t.Fatalf("queue wait = %v ms, want 1", got)
	}
	if s.Totals.SimulateMS != 5 {
		t.Fatalf("simulate total = %v ms, want 5", s.Totals.SimulateMS)
	}
	if s.Cache == nil || s.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v", s.Cache)
	}
	if len(s.Spans) != 3 || s.Spans[0].Name != "setup" {
		t.Fatalf("spans = %+v", s.Spans)
	}
}

// TestKernelCountersMerge: counters sum, high waters max.
func TestKernelCountersMerge(t *testing.T) {
	a := KernelCounters{Scheduled: 1, Fired: 2, Cancelled: 3, AuditCalls: 4, HeapMax: 5, StateChanges: 6}
	a.Merge(KernelCounters{Scheduled: 10, Fired: 10, Cancelled: 10, AuditCalls: 10, HeapMax: 2, StateChanges: 10})
	want := KernelCounters{Scheduled: 11, Fired: 12, Cancelled: 13, AuditCalls: 14, HeapMax: 5, StateChanges: 16}
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
}
