package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vce/internal/obs"
)

// ProgressEvent is the per-run progress record delivered to
// Options.Progress: the completed run plus execution provenance — today,
// whether the run was replayed from the result cache or actually simulated,
// which the live log needs to tell a warm sweep from a cold one.
type ProgressEvent struct {
	Instance Instance
	Run      int
	Indexes  Indexes
	// Cached reports that the run's indexes came from Options.Cache; the
	// cell was not simulated.
	Cached bool
}

// Shard selects one slice of the (instance × run) grid for a multi-process
// sweep: shard i of N executes the grid positions whose flattened job index
// is congruent to i mod N. The round-robin split keeps shards balanced
// whatever the grid shape, every position lands in exactly one shard, and
// the assignment depends only on (spec, N), so independent processes — CI
// jobs, machines — agree on the partition without coordinating. Each shard
// produces a partial Report (its runs tagged with their true run numbers);
// MergeReports recombines them into the byte-identical single-process
// report.
type Shard struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the total number of shards. Zero means unsharded (the
	// whole grid); one is equivalent.
	Count int
}

// validate checks the shard coordinates.
func (s Shard) validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("scenario: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("scenario: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// jobs enumerates the shard's slice of a cells × runs grid. Jobs are
// enumerated run-major: every cell of run 0, then every cell of run 1, and so
// on. Consecutive jobs on a worker then usually share a run index, which is
// exactly what the per-worker arena's kept world wants — the generated world
// of run k is derived once and replayed for each matrix cell. The report is
// order-independent (results land in a grid indexed by position), and the
// shard split keys on the flattened position, so the partition stays
// deterministic in (spec, N) — it slices a run-major flattening.
func (s Shard) jobs(cells, runs int) []job {
	jobs := make([]job, 0, cells*runs)
	pos := 0
	for run := 0; run < runs; run++ {
		for cell := 0; cell < cells; cell++ {
			if s.Count <= 1 || pos%s.Count == s.Index {
				jobs = append(jobs, job{cell: cell, run: run})
			}
			pos++
		}
	}
	return jobs
}

// Options configure a sweep execution.
type Options struct {
	// Workers is how many (instance, run) cells execute concurrently.
	// Zero or negative means runtime.GOMAXPROCS(0). The report is
	// byte-identical across worker counts: results are merged back in
	// cell/run order whatever order jobs finish in.
	Workers int
	// Progress observes completed runs (the CLI's live log, the service's
	// event stream); may be nil. The executor serializes invocations — the
	// callback never runs concurrently with itself and needs no locking —
	// but under more than one worker the invocation order is completion
	// order, not cell/run order. Cached results report progress too — a
	// warm sweep replays the same callback sequence a cold one produces,
	// marked Cached.
	Progress func(ProgressEvent)
	// Telemetry, when non-nil, records the sweep into the observability
	// recorder (internal/obs): one span per (instance, run) cell with
	// queue-wait / setup / simulate / measure attribution and kernel
	// counters, worker-lane occupancy, and sweep-level setup/execute/merge
	// spans. Wall-clock data lives only in the recorder's artifacts —
	// never in the Report — so telemetry cannot move goldens, cache keys
	// or any property the harness checks. Nil (the default) is the true
	// off-path: the executor reads no clocks.
	Telemetry *obs.Recorder
	// Shard restricts execution to one slice of the grid. The zero value
	// runs everything.
	Shard Shard
	// Cache, when non-nil, is consulted per grid cell before simulating
	// (a hit replays the stored Indexes) and written through after a
	// successful simulation. Keyed by CellKey, so a cache survives across
	// processes, shards and machines; soundness rests on the determinism
	// contract and the EngineVersion stamp. Cache errors degrade to
	// recomputation — they never fail the sweep.
	Cache Store
	// Audit attaches the engine invariant auditor (sim.AttachAuditor) to
	// every run: virtual-time monotonicity, conservation of work and
	// per-task progress sanity are re-derived event by event, and any
	// violation fails that run with an *AuditError. The auditor observes
	// without perturbing, so a clean audited sweep's report is
	// byte-identical. Audit disables Cache for the sweep — a cache hit skips
	// exactly the simulation the audit exists to watch.
	Audit bool
}

// job is one grid position; cell and run index into the expansion-order
// instance and run-number grids.
type job struct{ cell, run int }

// RunContext executes the sweep under a context with explicit options: a
// worker pool fans the (instance × run) grid out as independent jobs — each
// worker runs its cells on its own run arena, an isolated simulation world
// built from the spec's per-run derived random streams — and the results
// merge back into the Report in expansion order. For a fixed spec and seed
// the report is byte-identical regardless of worker count.
//
// A spec that validates runs every cell: a cell fails only when ctx ends or
// an engine self-check trips (an *AuditError, a task that completed before
// it arrived). The first failure cancels the remaining jobs and RunContext
// returns it, as "scenario: <cell> run <n>: <cause>", with a nil report;
// with one worker that is the lowest grid position. Cancelling ctx halts
// in-flight simulations promptly, and RunContext then returns ctx's error.
//
// Options.Shard restricts execution to one deterministic slice of the grid
// (see Shard; MergeReports recombines shard reports), and Options.Cache
// short-circuits cells whose result is already stored under their CellKey,
// which makes re-runs and interrupted sweeps resumable with zero duplicate
// simulation.
func RunContext(ctx context.Context, spec *Spec, opts Options) (*Report, error) {
	rec := opts.Telemetry
	var setupStart time.Duration
	if rec != nil {
		setupStart = rec.Elapsed()
	}
	sp := spec.withDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Shard.validate(); err != nil {
		return nil, err
	}
	insts := sp.Instances()
	jobs := opts.Shard.jobs(len(insts), sp.Runs)
	cache := opts.Cache
	if opts.Audit {
		cache = nil // audited sweeps must simulate every cell
	}
	// Every cell key starts from the canonical world serialization; hash
	// that prefix once per sweep instead of once per job.
	var prefix keyPrefix
	if cache != nil {
		world, err := sp.canonicalWorldJSON()
		if err != nil {
			return nil, err
		}
		prefix = newKeyPrefix(world)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Each worker owns one run arena for its whole lifetime: worlds and
	// simulation substrate recycle across the jobs it executes, and nothing
	// in an arena is shared between workers.
	arenas := make([]*runArena, workers)
	for w := range arenas {
		arenas[w] = newArena(sp)
	}
	var execStart time.Duration
	if rec != nil {
		rec.SetWorkers(workers)
		rec.RecordSpan("setup", setupStart, rec.Elapsed())
		execStart = rec.Elapsed()
	}

	// The derived ctx lets a failed run stop the other workers and the
	// in-flight simulations without disturbing the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Results land in a grid indexed by (cell, run), so the merge below
	// rebuilds the exact serial order no matter when jobs finish.
	got := make([][]*Indexes, len(insts))
	for i := range insts {
		got[i] = make([]*Indexes, sp.Runs)
	}
	ex := &executor{
		insts: insts, cache: cache, prefix: prefix, rec: rec, audit: opts.Audit,
		jobs: jobs, got: got,
		enqueued: execStart, progress: opts.Progress, cancel: cancel,
	}
	var wg sync.WaitGroup
	for w, ar := range arenas {
		wg.Add(1)
		// Lanes are 1-based in the recorder: lane 0 is the sweep's own
		// track (setup/execute/merge spans).
		go func(lane int, ar *runArena) {
			defer wg.Done()
			ex.work(ctx, ar, lane)
		}(w+1, ar)
	}
	wg.Wait()

	var mergeStart time.Duration
	if rec != nil {
		rec.RecordSpan("execute", execStart, rec.Elapsed())
		mergeStart = rec.Elapsed()
	}
	if ex.runErr != nil {
		return nil, ex.runErr
	}
	// A cancelled sweep reports ctx's error once, however many jobs it
	// stopped or kept from starting.
	if ex.done < len(jobs) {
		return nil, fmt.Errorf("scenario: %s: %w", sp.Name, ctx.Err())
	}

	rep := assembleReport(sp, insts, got)
	if rec != nil {
		rec.RecordSpan("merge", mergeStart, rec.Elapsed())
	}
	return rep, nil
}

// executor is the per-sweep state the workers share. Workers claim grid
// positions from next, in jobs order; what they write is under mu.
type executor struct {
	insts []Instance
	// cache is nil when the sweep runs uncached (or audited); prefix is the
	// hashed start every cell key of the sweep shares.
	cache  Store
	prefix keyPrefix
	rec    *obs.Recorder
	audit  bool

	jobs []job
	next atomic.Int64
	// enqueued is the recorder-relative start of the execute phase, when
	// every job became claimable (zero when telemetry is off).
	enqueued time.Duration
	progress func(ProgressEvent)
	cancel   context.CancelFunc

	// mu serializes the progress callback with the results it reports.
	mu sync.Mutex
	// got[cell][run] is a finished job's indexes, nil until it finishes.
	got    [][]*Indexes
	done   int
	runErr error
}

// work is one worker: it claims the next grid position until the grid is
// exhausted or ctx ends. The claim order is jobs order, so a worker's
// consecutive jobs usually share a run index and its arena's kept world
// replays.
func (e *executor) work(ctx context.Context, ar *runArena, lane int) {
	for ctx.Err() == nil {
		n := int(e.next.Add(1) - 1)
		if n >= len(e.jobs) {
			return
		}
		j := e.jobs[n]
		idx, cached, err := e.runJob(ctx, ar, lane, j)
		e.finish(ctx, j, idx, cached, err)
	}
}

// finish records one job's outcome. Progress fires under the executor's
// lock, hence serialized. The first run error cancels the rest; runs that
// failed only because cancellation reached them are not errors of their
// own.
func (e *executor) finish(ctx context.Context, j job, idx Indexes, cached bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err == nil:
		e.done++
		e.got[j.cell][j.run] = &idx
		if e.progress != nil {
			e.progress(ProgressEvent{Instance: e.insts[j.cell], Run: j.run, Indexes: idx, Cached: cached})
		}
	case e.runErr == nil && !errors.Is(err, ctx.Err()):
		e.runErr = fmt.Errorf("scenario: %s run %d: %w", e.insts[j.cell].Key(), j.run, err)
		e.cancel() // stop claiming, halt in-flight runs
	}
}

// runJob executes one grid job on the calling worker's arena: a cache hit
// replays the stored indexes, a miss simulates the cell and writes the
// result through.
func (e *executor) runJob(ctx context.Context, ar *runArena, lane int, j job) (Indexes, bool, error) {
	inst, rec := e.insts[j.cell], e.rec
	// tel is the cell's telemetry record, nil when telemetry is off.
	var tel *obs.Cell
	if rec != nil {
		tel = &obs.Cell{Sched: inst.Sched, Migration: inst.Migration, Run: j.run, Lane: lane,
			Enqueued: e.enqueued, Start: rec.Elapsed()}
	}
	var key string
	if e.cache != nil {
		key = e.prefix.cellKey(inst.Sched, inst.Migration, j.run)
		// A cache error (I/O failure, corrupt entry already evicted by the
		// store) is just a miss: the cache may never make a sweep fail that
		// would have succeeded without it.
		if idx, ok, err := e.cache.Get(key); err == nil && ok {
			if tel != nil {
				tel.Cached, tel.End = true, rec.Elapsed()
				rec.RecordCell(*tel)
			}
			return idx, true, nil
		}
	}
	idx, err := ar.runCell(ctx, inst.Sched, inst.Migration, j.run, e.audit, tel)
	if err == nil && e.cache != nil {
		// Best-effort write-through: a read-only or full cache directory
		// costs reuse, not correctness — but it must not look healthy while
		// reuse silently dies, so the store counts failures (store.FS's
		// Stats.PutErrors, which the CLI writes to telemetry.json under
		// cache) even though they never fail the sweep.
		_ = e.cache.Put(key, idx)
	}
	if tel != nil && err == nil {
		tel.End = rec.Elapsed()
		rec.RecordCell(*tel)
	}
	return idx, false, err
}

// assembleReport rebuilds the report from the (cell, run) result grid in
// expansion order; a nil entry is a run the grid's shards did not hold.
func assembleReport(sp *Spec, insts []Instance, got [][]*Indexes) *Report {
	rep := &Report{Engine: EngineVersion, Spec: sp}
	for cell, inst := range insts {
		c := Cell{Sched: inst.Sched, Migration: inst.Migration}
		var survivors []int
		for run, idx := range got[cell] {
			if idx != nil {
				c.Runs = append(c.Runs, *idx)
				survivors = append(survivors, run)
			}
		}
		// Complete cells stay in the position-is-run-number format (and
		// keep the JSON shape lean); only a cell with gaps needs explicit
		// seed identities.
		if len(c.Runs) != sp.Runs {
			c.RunNumbers = survivors
		}
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}
