// Package obs is the engine's observability layer: structured telemetry
// for scenario sweeps and the discrete-event kernel under them.
//
// A Recorder collects, per (instance, run) grid cell, a wall-clock span
// with queue-wait/setup/simulate/measure attribution, the worker lane the
// cell executed on, whether it was replayed from the result cache, and the
// kernel's traffic counters (events scheduled/fired/cancelled, heap
// high-water, machine state changes). Sweep-level spans (setup, execute,
// merge) land on a dedicated lane. The recorded registry is emitted two
// ways:
//
//   - WriteTrace: a Chrome trace-event JSON document loadable in Perfetto
//     (ui.perfetto.dev) or chrome://tracing — the timeline view that turns
//     "the sweep is slow" into "lane 3 sat idle behind one 12 ms cell";
//   - WriteSummary / Snapshot: a machine-readable summary (telemetry.json)
//     with per-cell records and aggregate phase/counter totals.
//
// Wall-clock measurements exist only in these artifacts. Nothing here
// feeds the Report, cell keys or golden artifacts: telemetry observes the
// sweep, it never participates in it. The off-path contract is equally
// strict — a nil Recorder means the engine takes no clock readings at all;
// the kernel counts its own traffic either way (vtime.Sim.Stats).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"vce/internal/vtime"
)

// KernelCounters aggregates one run's (or one sweep's) discrete-event
// kernel traffic: the kernel's own counters plus the cluster's change
// counter.
type KernelCounters struct {
	vtime.Stats
	// StateChanges counts simulated machine state changes (task
	// arrivals/departures, load steps, suspension flips).
	StateChanges int64 `json:"state_changes"`
}

// Merge accumulates o into k: counters sum, high-water marks take the max.
func (k *KernelCounters) Merge(o KernelCounters) {
	k.Stats.Merge(o.Stats)
	k.StateChanges += o.StateChanges
}

// CacheStats is the result store's traffic counters (store.Stats is this
// type). PutErrors counts write-through failures — a read-only or full
// cache directory costs reuse silently unless this is surfaced.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Corrupt   uint64 `json:"corrupt"`
	PutErrors uint64 `json:"put_errors"`
}

// Add returns the entrywise sum — how per-shard stats aggregate at merge.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Corrupt:   s.Corrupt + o.Corrupt,
		PutErrors: s.PutErrors + o.PutErrors,
	}
}

// Cell is one recorded (instance, run) execution. Offsets are relative to
// the recorder's origin (New); a cached cell has zero phase durations and
// zero kernel counters — it simulated nothing. The scenario executor hands
// a simulated cell's record to the engine, which writes its phases and
// counters.
type Cell struct {
	Sched     string
	Migration string
	Run       int
	// Cached marks a run replayed from the result cache.
	Cached bool
	// Lane is the worker lane the cell executed on (1-based; lane 0 is
	// the sweep's own track).
	Lane int
	// Enqueued is when the cell's job became runnable (grid feed);
	// Start/End bound the worker's execution. Start−Enqueued is queue
	// wait; End−Start is compute (including cache lookup).
	Enqueued, Start, End time.Duration
	// Setup/Simulate/Measure attribute the compute interval: world
	// generation and policy wiring, the kernel's event loop (RunUntil),
	// and index extraction after the kernel quiesced.
	Setup, Simulate, Measure time.Duration
	// Kernel is the run's event-kernel traffic.
	Kernel KernelCounters
}

// span is one sweep-level interval on the recorder's lane 0.
type span struct {
	name       string
	start, end time.Duration
}

// Recorder collects one sweep's telemetry. Safe for concurrent use: the
// executor's worker goroutines record cells while the goroutine running the
// sweep records sweep spans. The zero value is not usable; construct with New.
type Recorder struct {
	origin time.Time

	mu      sync.Mutex
	workers int
	cells   []Cell
	spans   []span
	cache   *CacheStats
}

// New returns an empty Recorder with its wall-clock origin at now. All
// recorded offsets are relative to this instant.
func New() *Recorder {
	return &Recorder{origin: time.Now()}
}

// Elapsed returns the wall-clock offset since the recorder's origin — the
// timestamp base every recorded span uses.
func (r *Recorder) Elapsed() time.Duration { return time.Since(r.origin) }

// SetWorkers records the sweep's worker-pool width.
func (r *Recorder) SetWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers = n
}

// RecordCell appends one executed grid cell.
func (r *Recorder) RecordCell(c Cell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, c)
}

// RecordSpan appends one sweep-level interval (lane 0) such as "setup",
// "execute" or "merge".
func (r *Recorder) RecordSpan(name string, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start, end: end})
}

// SetCacheStats records the result store's traffic for the sweep.
func (r *Recorder) SetCacheStats(s CacheStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = &s
}

// ms converts a duration to milliseconds with sub-ms resolution.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// CellSummary is one cell's record in the summary artifact. The wall-clock
// fields (every *_ms field, and Lane, which depends on scheduling) vary
// run to run; everything else — identity, cached flag, kernel counters —
// is deterministic for a fixed (spec, seed) whatever the worker count.
type CellSummary struct {
	Sched       string         `json:"sched"`
	Migration   string         `json:"migration"`
	Run         int            `json:"run"`
	Cached      bool           `json:"cached"`
	Lane        int            `json:"lane"`
	QueueWaitMS float64        `json:"queue_wait_ms"`
	SetupMS     float64        `json:"setup_ms"`
	SimulateMS  float64        `json:"simulate_ms"`
	MeasureMS   float64        `json:"measure_ms"`
	TotalMS     float64        `json:"total_ms"`
	Kernel      KernelCounters `json:"kernel"`
}

// SpanSummary is one sweep-level span in the summary artifact.
type SpanSummary struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// Totals aggregates the cells: phase sums across the fleet of lanes (so
// SimulateMS can exceed WallMS on a parallel sweep) and merged kernel
// counters.
type Totals struct {
	Cells       int            `json:"cells"`
	CachedCells int            `json:"cached_cells"`
	QueueWaitMS float64        `json:"queue_wait_ms"`
	SetupMS     float64        `json:"setup_ms"`
	SimulateMS  float64        `json:"simulate_ms"`
	MeasureMS   float64        `json:"measure_ms"`
	ComputeMS   float64        `json:"compute_ms"`
	Kernel      KernelCounters `json:"kernel"`
}

// Summary is the machine-readable snapshot of a recorder: the
// telemetry.json artifact. Cells are sorted by
// (sched, migration, run) so the structure — names, counts, ordering and
// kernel counters — is identical across worker counts; only the
// wall-clock fields differ.
type Summary struct {
	Schema  int           `json:"schema"`
	WallMS  float64       `json:"wall_ms"`
	Workers int           `json:"workers"`
	Totals  Totals        `json:"totals"`
	Cache   *CacheStats   `json:"cache,omitempty"`
	Spans   []SpanSummary `json:"spans"`
	Cells   []CellSummary `json:"cells"`
}

// SummarySchema versions the Summary JSON shape. 2: the kernel counters
// lost audit_calls.
const SummarySchema = 2

// Snapshot renders the recorder's current contents as a Summary. Safe to
// call concurrently with recording (a live service can serve it mid-sweep).
func (r *Recorder) Snapshot() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		Schema:  SummarySchema,
		WallMS:  ms(time.Since(r.origin)),
		Workers: r.workers,
	}
	if r.cache != nil {
		c := *r.cache
		s.Cache = &c
	}
	cells := make([]Cell, len(r.cells))
	copy(cells, r.cells)
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Sched != b.Sched {
			return a.Sched < b.Sched
		}
		if a.Migration != b.Migration {
			return a.Migration < b.Migration
		}
		return a.Run < b.Run
	})
	s.Cells = make([]CellSummary, len(cells))
	for i, c := range cells {
		cs := CellSummary{
			Sched:       c.Sched,
			Migration:   c.Migration,
			Run:         c.Run,
			Cached:      c.Cached,
			Lane:        c.Lane,
			QueueWaitMS: ms(c.Start - c.Enqueued),
			SetupMS:     ms(c.Setup),
			SimulateMS:  ms(c.Simulate),
			MeasureMS:   ms(c.Measure),
			TotalMS:     ms(c.End - c.Start),
			Kernel:      c.Kernel,
		}
		s.Cells[i] = cs
		s.Totals.Cells++
		if c.Cached {
			s.Totals.CachedCells++
		}
		s.Totals.QueueWaitMS += cs.QueueWaitMS
		s.Totals.SetupMS += cs.SetupMS
		s.Totals.SimulateMS += cs.SimulateMS
		s.Totals.MeasureMS += cs.MeasureMS
		s.Totals.ComputeMS += cs.TotalMS
		s.Totals.Kernel.Merge(c.Kernel)
	}
	spans := make([]span, len(r.spans))
	copy(spans, r.spans)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].name < spans[j].name
	})
	s.Spans = make([]SpanSummary, len(spans))
	for i, sp := range spans {
		s.Spans[i] = SpanSummary{Name: sp.name, StartMS: ms(sp.start), DurMS: ms(sp.end - sp.start)}
	}
	return s
}

// WriteSummary writes the Snapshot as indented JSON — the telemetry.json
// sweep artifact.
func (r *Recorder) WriteSummary(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
