package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"vce/internal/obs"
)

// span is one traced interval: a call from the benchmark into a layer, or —
// under exec.run_context — an interval the engine's own recorder reported.
// Spans of one sweep share its op id; Parent is the span that caused this
// one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Lane is the executor worker lane for engine-reported spans.
	Lane int `json:"lane,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the traced pass's spans in memory until the pass is over. A
// nil *tracer is the untraced pass: every method is a no-op that reads no
// clock, so the measured pass pays nothing for the instrumentation points.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// pending are traced sweeps whose engine recorder is still to be folded
	// in; sweeps holds the recorder summaries once it has been.
	pending []pendingSweep
	sweeps  []obs.Summary
}

type pendingSweep struct {
	op, parent int
	origin     time.Duration
	rec        *obs.Recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: int64(now)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].EndNS = int64(now)
	t.mu.Unlock()
}

// add records an already-timed child span (offsets from the tracer origin).
func (t *tracer) add(op, parent int, name string, start, end time.Duration, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: int64(start), EndNS: int64(end), Lane: lane})
	return len(t.spans)
}

// deferSweep notes that rec holds the engine-side telemetry of the sweep
// under span parent. rec must have been created immediately before the
// RunContext call began, at origin (an offset from the tracer's t0), so its
// offsets translate by a constant. Folding it in is left to resolve, after
// the pass, so that no op's latency contains the benchmark's own bookkeeping.
func (t *tracer) deferSweep(op, parent int, origin time.Duration, rec *obs.Recorder) {
	t.mu.Lock()
	t.pending = append(t.pending, pendingSweep{op, parent, origin, rec})
	t.mu.Unlock()
}

// resolve folds every deferred sweep in, in op order.
func (t *tracer) resolve() error {
	sort.SliceStable(t.pending, func(i, j int) bool { return t.pending[i].op < t.pending[j].op })
	for _, p := range t.pending {
		if err := t.attachSweep(p.op, p.parent, p.origin, p.rec); err != nil {
			return err
		}
	}
	t.pending = nil
	return nil
}

// attachSweep hangs one sweep's engine-side telemetry under its
// exec.run_context span: the recorder's setup/execute/merge spans and one
// span per cell with its phases.
func (t *tracer) attachSweep(op, parent int, origin time.Duration, rec *obs.Recorder) error {
	// The Chrome trace is the only exported view that carries each cell's
	// start offset; the summary carries the exact durations and counters.
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return fmt.Errorf("engine trace: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("engine trace: %w", err)
	}
	at := func(us int64) time.Duration { return origin + time.Duration(us)*time.Microsecond }
	// Events are sorted by start, but a cell and its first phase start
	// together and tie-break by name, so parents are resolved in passes:
	// sweep spans, then cells under execute, then phases under the cell
	// that was running on their lane.
	execute := parent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "sweep" {
			id := t.add(op, parent, "exec."+ev.Name, at(ev.Ts), at(ev.Ts+ev.Dur), 0)
			if ev.Name == "execute" {
				execute = id
			}
		}
	}
	type laneCell struct {
		id int
		ts int64
	}
	cells := map[int][]laneCell{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "cell" {
			id := t.add(op, execute, "cell", at(ev.Ts), at(ev.Ts+ev.Dur), ev.Tid)
			cells[ev.Tid] = append(cells[ev.Tid], laneCell{id, ev.Ts})
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "phase" {
			continue
		}
		owner := execute
		for _, c := range cells[ev.Tid] {
			if c.ts <= ev.Ts {
				owner = c.id
			}
		}
		t.add(op, owner, "cell."+ev.Name, at(ev.Ts), at(ev.Ts+ev.Dur), ev.Tid)
	}
	t.mu.Lock()
	t.sweeps = append(t.sweeps, rec.Snapshot())
	t.mu.Unlock()
	return nil
}

// durations returns the duration of every span called name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, msOf(s.dur()))
		}
	}
	return out
}

// selfTime is one span name's row of the trace summary.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span its children cover:
	// the time spent in that layer itself rather than below it.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes computes, per span name, total time and self time. Children on
// different worker lanes overlap in time, so a span's covered part is the
// union of its children's intervals, not their sum.
func (t *tracer) selfTimes() map[string]selfTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64
		reach = s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		row := out[s.Name]
		row.Count++
		row.TotalMS += msOf(s.dur())
		row.SelfMS += msOf(s.dur() - time.Duration(covered))
		out[s.Name] = row
	}
	return out
}

// write dumps the spans and their self-time summary as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Seed     uint64              `json:"seed"`
		SelfTime map[string]selfTime `json:"self_time"`
		Spans    []span              `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
