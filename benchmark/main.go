// Command benchmark is the one layered benchmark of the VCE simulation
// stack. It drives the stack from outside, through exported functions only,
// over five fixed workloads; reports the end-to-end numbers a user sees (host
// time from "spec submitted" to "report.json in hand") and, from a separate
// traced pass plus a probe pass, the per-layer numbers that explain them; and
// checks that every report it timed is correct. See README.md.
//
//	go run ./benchmark -seed 1                  every workload, then the probes
//	go run ./benchmark -seed 1 -repeat 5        five sets, spread per metric
//	go run ./benchmark -workload sweep_cold -seed 1 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, a
// time-bound measured pass, and one JSON result as the last line of stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	probes   bool
	repeat   int
	dir      string
	// work is the run's own directory under dir, where set-ups live.
	work   string
	result string
	// scale multiplies every count-bound op count. The command runs at 1; the
	// package's tests shrink it.
	scale float64
}

func main() {
	cfg := config{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload and print one JSON result line (default: every workload, then the probe pass)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: spec i of a workload gets Seed = seed + i")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "bound the measured pass by wall time instead of by op count")
	flag.IntVar(&trace, "trace", 1, "1: also run the traced pass and report per-layer metrics; 0: end-to-end metrics only")
	flag.BoolVar(&cfg.probes, "probes", true, "with -workload and -trace 1: run the probe pass too")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run this many full sets, workloads interleaved, and print each metric's spread")
	flag.StringVar(&cfg.dir, "dir", "", "directory for the trace files and, in a subdirectory removed at exit, the scratch files (default: the system's temporary directory, and the traces go with the scratch)")
	flag.StringVar(&cfg.result, "result", "", "with -workload: also write the full result as JSON to this file")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// spreadSubdirs asks the filesystem to place each directory made directly
// under dir in a block group of its own choosing rather than beside dir
// (ext4's top-of-hierarchy flag, chattr +T). Each set-up gets such a
// directory. It matters on an ext4 without a journal, the reference host's:
// there the inode allocator steps over recently deleted inodes one at a time,
// so a file created beside the thousands an earlier set-up or run has just
// removed costs up to twenty times one created in a quiet group, for half a
// minute, and sweep_warm and serve_mixed would measure that (README, Noise).
// Best effort: without chattr or the flag nothing changes.
func spreadSubdirs(dir string) {
	_ = exec.Command("chattr", "+T", dir).Run()
}

// errIncorrect is returned when the run finished but an output was wrong.
var errIncorrect = errors.New("correctness gate failed")

func run(cfg config) error {
	if cfg.seconds < 0 || cfg.repeat < 1 {
		return fmt.Errorf("-seconds must not be negative and -repeat must be at least 1")
	}
	// Everything but the trace and result files lives in a directory of this
	// run's own, which goes when the run ends however it ends.
	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return err
		}
	}
	work, err := os.MkdirTemp(cfg.dir, "vce-benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	spreadSubdirs(work)
	cfg.work = work
	if cfg.dir == "" {
		cfg.dir = work
	}
	if cfg.workload == "" {
		return runSets(cfg)
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	if cfg.result != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.result, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res)
	// The contract line: end-to-end metrics without tracing, per-layer
	// metrics with it.
	line, err := json.Marshal(res.contractLine(cfg.trace))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result is everything one workload run produced.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Clients  int     `json:"clients"`
	// Ops and Samples are the measured pass's op count and the number of
	// latency samples behind the percentiles.
	Ops       int  `json:"ops"`
	Samples   int  `json:"samples"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// SimDigest is the SHA-256 over the measured pass's report digests in
	// op order; TracedDigest the same for the traced pass.
	SimDigest    string   `json:"sim_digest"`
	TracedOps    int      `json:"traced_ops,omitempty"`
	TracedDigest string   `json:"traced_digest,omitempty"`
	Violations   []string `json:"violations,omitempty"`
	EndToEnd     values   `json:"end_to_end"`
	PerLayer     values   `json:"per_layer,omitempty"`
	TraceFile    string   `json:"trace_file,omitempty"`
	Host         hostInfo `json:"host"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the result as BENCHMARK.json's harness reads it: the gated
// end-to-end metrics of an untraced run, the ledger of a traced one. Every
// listed metric is a number there, so one without a value on this run — a
// layer the workload bypasses, a p90 over too few samples — reads 0.
func (r *result) contractLine(traced bool) contractLine {
	defs := gated()
	if traced {
		defs = ledger()
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		val, ok := r.EndToEnd[m.Name]
		if !ok {
			val = r.PerLayer[m.Name]
		}
		if math.IsNaN(val) {
			val = 0
		}
		line.Metrics[m.Name] = metricValue{Value: val, Unit: m.Unit}
	}
	return line
}

// setupRepeats is how many times a workload is set up before its measured
// pass; setup_s is the median, which a cold first set-up cannot drag.
const setupRepeats = 3

// setUp builds the workload in a fresh directory and runs its warm-up ops:
// everything that happens before the first timed op.
func setUp(w workload, scratch string, seed uint64, scale float64) (runner, time.Duration, error) {
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r, err := w.setup(dir, seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	if err := warmups(r, scaled(w.warmup, scale, 1)); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	r.resetStats()
	return r, time.Since(start), nil
}

// scaled is n·scale rounded, but at least floor.
func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

// gate folds a pass's op errors and the runner's whole-pass verification
// into failed-op and violation counts.
func gate(r runner, p *pass, label string) (failed int, violations []string) {
	bad := make(map[int]bool)
	for i, err := range p.errs {
		if err != nil {
			bad[i] = true
			violations = append(violations, fmt.Sprintf("%s pass: %v", label, err))
		}
	}
	wrong, more := r.verify(p)
	for _, i := range wrong {
		bad[i] = true
		violations = append(violations, fmt.Sprintf("%s pass: op %d: served report differs from a direct sweep of the same spec", label, i))
	}
	for _, v := range more {
		violations = append(violations, label+" pass: "+v)
	}
	return len(bad), violations
}

// runWorkload is one workload from setup to verdict: set up (several times,
// for a steady setup_s), measured pass with tracing off, then — with
// cfg.trace — a second setup and the traced pass at a quarter of the op
// count, and the probe pass.
func runWorkload(w workload, cfg config) (*result, error) {
	cpu0 := readCPUTimes()
	res := &result{Workload: w.name, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Clients: w.clients}

	var r runner
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		r, took, err = setUp(w, cfg.work, cfg.seed, cfg.scale)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	lim := limit{ops: scaled(w.ops, cfg.scale, 1), wall: time.Duration(cfg.seconds * float64(time.Second))}
	// The daemon keeps every sweep it served in memory, so its high-water
	// mark grows with the ops a pass gets through. Reading it after a fixed
	// number of ops (a third of the table's count) ties peak_rss_mib to a
	// fixed amount of work, whatever the host's speed or the pass's bound.
	rssAfter := max(1, scaled(w.ops, cfg.scale, 1)/3)
	before := readProcess()
	p := runPass(r, w.clients, lim, rssAfter, nil)
	proc := readProcess().since(before)

	failed, violations := gate(r, p, "measured")
	if err := r.close(); err != nil {
		return nil, err
	}
	var cells, tasks int
	for i, o := range p.outs {
		if p.errs[i] == nil {
			cells += o.cells
			tasks += o.tasks
		}
	}
	lat := p.latenciesMS()
	res.Ops, res.Samples = len(p.outs), len(lat)
	res.SimDigest = p.digest()
	res.EndToEnd = values{
		"setup_s":      percentile(setups, 0.5),
		"cells_per_s":  float64(cells) / p.wall.Seconds(),
		"tasks_per_s":  float64(tasks) / p.wall.Seconds(),
		"sweep_p50_ms": percentile(lat, 0.5),
		"sweep_p90_ms": p90(lat),
		"peak_rss_mib": p.rssMiB,
	}
	res.Attempted, res.Failed = len(p.outs), failed

	if cfg.trace {
		res.PerLayer = values{}
		tracedFailed, tracedViolations, err := tracedPass(w, cfg, res, tasks, proc)
		if err != nil {
			return nil, err
		}
		res.Attempted += res.TracedOps
		res.Failed += tracedFailed
		violations = append(violations, tracedViolations...)
		if cfg.probes {
			pv, err := runProbes(filepath.Join(cfg.work, "probes"))
			if err != nil {
				return nil, err
			}
			for k, v := range pv {
				res.PerLayer[k] = v
			}
		}
	}

	res.Violations = violations
	res.Correct = len(violations) == 0 && res.Failed == 0
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1 // a whole-pass violation is at least one wrong output
	}
	res.EndToEnd["failed_pct"] = 100 * float64(res.Failed) / float64(res.Attempted)
	res.Host = newHostInfo(cfg.dir, cpu0)
	if res.PerLayer != nil {
		res.PerLayer["host.steal_pct"] = res.Host.StealPct
	}
	return res, nil
}

// processCounters is a reading of the process-wide cost counters.
type processCounters struct {
	user, sys    float64
	allocBytes   uint64
	mallocs      uint64
	gcCycles     uint32
	gcPauseTotal time.Duration
}

func readProcess() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	user, sys := cpuSeconds()
	return processCounters{user: user, sys: sys, allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCycles: ms.NumGC, gcPauseTotal: time.Duration(ms.PauseTotalNs)}
}

func (c processCounters) since(from processCounters) processCounters {
	return processCounters{user: c.user - from.user, sys: c.sys - from.sys,
		allocBytes: c.allocBytes - from.allocBytes, mallocs: c.mallocs - from.mallocs,
		gcCycles: c.gcCycles - from.gcCycles, gcPauseTotal: c.gcPauseTotal - from.gcPauseTotal}
}

// tracedPass sets the workload up again, runs a quarter of its op count
// with the engine recorder and the benchmark's spans on, and fills the
// traced and counted per-layer metrics into res. measuredTasks and proc
// describe the untraced pass: the process rows are its cost, not the cost of
// a pass that also pays for tracing.
func tracedPass(w workload, cfg config, res *result, measuredTasks int, proc processCounters) (failed int, violations []string, err error) {
	r, _, err := setUp(w, cfg.work, cfg.seed, cfg.scale)
	if err != nil {
		return 0, nil, err
	}
	tr := newTracer()
	// A quarter of the op count, but at least minTraced ops — unless the
	// whole measured pass is shorter than that (a scaled-down run).
	ops := scaled(w.ops, cfg.scale, 1)
	p := runPass(r, w.clients, limit{ops: max(ops/4, min(w.minTraced, ops))}, 0, tr)
	if err := tr.resolve(); err != nil {
		r.close()
		return 0, nil, err
	}
	failed, violations = gate(r, p, "traced")
	res.TracedOps, res.TracedDigest = len(p.outs), p.digest()

	v := res.PerLayer
	for _, m := range perLayer {
		if m.Src != "P" {
			v[m.Name] = 0 // a layer the workload bypasses reports 0, not nothing
		}
	}
	cellMetrics(tr, p, w, v)
	st := r.storeStats()
	v["store.hits"], v["store.misses"] = float64(st.Hits), float64(st.Misses)
	v["store.corrupt"], v["store.put_errors"] = float64(st.Corrupt), float64(st.PutErrors)
	if st.Hits+st.Misses > 0 {
		v["store.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	v["analyze.write_artifacts_ms_p50"] = percentile(tr.durations("analyze.write_artifacts"), 0.5)
	if sr, ok := r.(*serveRunner); ok {
		if err := serviceMetrics(sr, tr, p, v); err != nil {
			r.close()
			return 0, nil, err
		}
	}
	if base := res.EndToEnd["sweep_p50_ms"]; base > 0 {
		v["obs.trace_overhead_pct"] = 100 * (percentile(p.latenciesMS(), 0.5)/base - 1)
	}
	v["obs.spans_recorded"] = float64(len(tr.spans))
	v["process.cpu_user_s"], v["process.cpu_sys_s"] = proc.user, proc.sys
	v["process.alloc_mib"] = float64(proc.allocBytes) / (1 << 20)
	if measuredTasks > 0 {
		v["process.allocs_per_task"] = float64(proc.mallocs) / float64(measuredTasks)
	}
	v["process.gc_cycles"] = float64(proc.gcCycles)
	v["process.gc_pause_ms"] = msOf(proc.gcPauseTotal)

	res.TraceFile = filepath.Join(cfg.dir, "trace-"+w.name+".json")
	if err := tr.write(res.TraceFile, w.name, cfg.seed); err != nil {
		r.close()
		return 0, nil, err
	}
	return failed, violations, r.close()
}

// cellMetrics fills the cell, exec, vtime-counter and sim-counter rows from
// the engine recorder's per-sweep summaries. A workload whose sweeps carry no
// recorder (the daemon sets none) or simulate nothing leaves them at 0.
func cellMetrics(tr *tracer, p *pass, w workload, v values) {
	var setup, simulate, measure, total, queueWait []float64
	var sumSimulate, sumCompute float64
	var fired, scheduled, cancelled, changes int64
	heapMax := 0
	var execSetup, execExecute, execMerge, overhead []float64
	var busy, lanes float64
	for _, sw := range tr.sweeps {
		for _, c := range sw.Cells {
			queueWait = append(queueWait, c.QueueWaitMS)
			if c.Cached {
				continue
			}
			setup = append(setup, c.SetupMS)
			simulate = append(simulate, c.SimulateMS)
			measure = append(measure, c.MeasureMS)
			total = append(total, c.TotalMS)
		}
		k := sw.Totals.Kernel
		fired, scheduled, cancelled, changes = fired+k.Fired, scheduled+k.Scheduled, cancelled+k.Cancelled, changes+k.StateChanges
		heapMax = max(heapMax, k.HeapMax)
		sumSimulate += sw.Totals.SimulateMS
		sumCompute += sw.Totals.ComputeMS
		var execute float64
		for _, s := range sw.Spans {
			switch s.Name {
			case "setup":
				execSetup = append(execSetup, s.DurMS)
			case "execute":
				execExecute = append(execExecute, s.DurMS)
				execute = s.DurMS
			case "merge":
				execMerge = append(execMerge, s.DurMS)
			}
		}
		busy += sw.Totals.ComputeMS
		lanes += execute * float64(sw.Workers)
	}
	// RunContext wall minus the cell compute it could not have avoided.
	walls := tr.durations("exec.run_context")
	for i, sw := range tr.sweeps {
		if i < len(walls) && sw.Workers > 0 {
			overhead = append(overhead, walls[i]-sw.Totals.ComputeMS/float64(sw.Workers))
		}
	}
	v["cell.setup_ms_p50"] = percentile(setup, 0.5)
	v["cell.simulate_ms_p50"] = percentile(simulate, 0.5)
	v["cell.measure_ms_p50"] = percentile(measure, 0.5)
	v["cell.total_ms_p50"] = percentile(total, 0.5)
	v["cell.total_ms_p90"] = percentile(total, 0.9)
	var tasks int
	for i, o := range p.outs {
		if p.errs[i] == nil {
			tasks += o.tasks
		}
	}
	if tasks > 0 {
		v["cell.events_per_task"] = float64(fired) / float64(tasks)
	}
	if fired > 0 {
		v["cell.ns_per_event"] = sumSimulate * 1e6 / float64(fired)
	}
	if sumCompute > 0 {
		v["cell.simulate_share_pct"] = 100 * sumSimulate / sumCompute
	}
	v["vtime.fired"], v["vtime.scheduled"] = float64(fired), float64(scheduled)
	v["vtime.cancelled"], v["vtime.heap_max"] = float64(cancelled), float64(heapMax)
	v["sim.state_changes"] = float64(changes)
	v["exec.setup_ms_p50"] = percentile(execSetup, 0.5)
	v["exec.execute_ms_p50"] = percentile(execExecute, 0.5)
	v["exec.merge_ms_p50"] = percentile(execMerge, 0.5)
	v["exec.queue_wait_ms_p50"] = percentile(queueWait, 0.5)
	v["exec.overhead_ms_p50"] = percentile(overhead, 0.5)
	if lanes > 0 {
		v["exec.worker_busy_pct"] = 100 * busy / lanes
	}
}

// serviceMetrics fills the daemon rows from the traced serve pass.
func serviceMetrics(r *serveRunner, tr *tracer, p *pass, v values) error {
	ack := tr.durations("http.submit")
	v["service.submit_ack_ms_p50"] = percentile(ack, 0.5)
	v["service.submit_ack_ms_p90"] = percentile(ack, 0.9)
	v["service.first_event_ms_p50"] = percentile(tr.durations("http.events.first_line"), 0.5)
	v["service.report_get_ms_p50"] = percentile(tr.durations("http.report"), 0.5)
	v["service.sweep_p99_ms"] = percentile(p.latenciesMS(), 0.99)
	var cached, cells int
	for i, o := range p.outs {
		if p.errs[i] == nil {
			cached += o.cached
			cells += o.cells
		}
	}
	if n := len(p.outs); n > 0 {
		v["service.events_per_sweep"] = float64(r.events.Load()) / float64(n)
	}
	v["service.cells_cached"] = float64(cached)
	v["service.cells_simulated"] = float64(cells - cached)
	if cells > 0 {
		v["service.dedup_ratio"] = float64(cached) / float64(cells)
	}
	v["service.sweeps_failed"] = float64(r.failed.Load())
	// One more /stats with the cache directory at its fullest, then the
	// restart an operator would face.
	s := tr.begin(len(p.outs), 0, "http.stats")
	_, err := get(r.clients[0], r.ts.URL+"/stats")
	tr.end(s)
	if err != nil {
		return err
	}
	v["service.stats_ms_p50"] = percentile(tr.durations("http.stats"), 0.5)
	took, err := r.recoverTime()
	if err != nil {
		return err
	}
	v["service.recover_s"] = took.Seconds()
	return nil
}

// printResult writes one workload's numbers as name, value and unit.
func printResult(out *os.File, r *result) {
	noisy := ""
	if r.Host.Noisy {
		noisy = "  NOISY"
	}
	fmt.Fprintf(out, "== %s  seed %d  %d ops (%d clients, closed loop)  failed_pct %.3g %%  sim_digest %s\n",
		r.Workload, r.Seed, r.Ops, r.Clients, r.EndToEnd["failed_pct"], r.SimDigest[:16])
	fmt.Fprintf(out, "   host: nproc %d  GOMAXPROCS %d  %s  scratch %s  load %.2f  steal %.2f %%%s\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.ScratchFS, r.Host.LoadAvg1, r.Host.StealPct, noisy)
	for _, m := range endToEnd {
		val, note := fmt.Sprintf("%.6g", r.EndToEnd[m.Name]), ""
		switch {
		case m.Name == "sweep_p50_ms":
			note = fmt.Sprintf("  (%d samples)", r.Samples)
		case math.IsNaN(r.EndToEnd[m.Name]):
			val, note = "null", fmt.Sprintf("  (%d samples, fewer than %d)", r.Samples, p90MinSamples)
		}
		fmt.Fprintf(out, "   %-44s %14s %s%s\n", m.Name, val, m.Unit, note)
	}
	if r.PerLayer != nil {
		for _, m := range perLayer {
			if val, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(out, "   %-44s %14.6g %s  [%s]\n", m.Name, val, m.Unit, m.Src)
			}
		}
		printRatios(out, r)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(out, "   trace: %s (%d traced ops, digest %s)\n", r.TraceFile, r.TracedOps, r.TracedDigest[:16])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(out, "   VIOLATION: %s\n", v)
	}
}

// printRatios prints the derived budget ratios beside their bases.
func printRatios(out *os.File, r *result) {
	v := r.PerLayer
	if v["cell.ns_per_event"] == 0 {
		fmt.Fprintln(out, "   ratio: none — no sweep of this workload simulated under a recorder, so it has no cell rows")
		return
	}
	if ns, k := v["cell.ns_per_event"], v["vtime.replace_ns"]; ns > 0 && k > 0 {
		fmt.Fprintf(out, "   ratio: kernel share of a simulated event = vtime.replace_ns %.4g / cell.ns_per_event %.4g = %.3g\n", k, ns, k/ns)
	}
	if hit, tot := v["store.get_hit_us_p50"], v["cell.total_ms_p50"]; hit > 0 && tot > 0 {
		fmt.Fprintf(out, "   ratio: replay vs simulate cost of a cell = store.get_hit_us_p50 %.4g us / cell.total_ms_p50 %.4g ms = %.3g\n", hit, tot, hit/(tot*1000))
	}
}
