// Command vcebench runs declarative VCE scenarios: it loads a JSON spec (or
// a named built-in scenario), expands the scheduling × migration policy
// matrix into instances, runs each instance for N independent seeds on the
// discrete-event cluster, and writes an output directory of comparison
// artifacts (plain text, Markdown, CSV, JSON).
//
// Usage:
//
//	vcebench -spec examples/scenarios/hetero-baseline.json -runs 5 -out /tmp/vcebench
//	vcebench -name owner-churn -out /tmp/churn
//	vcebench -name hetero-baseline -workers 8 -timeout 30s
//	vcebench -list                      # show built-in scenarios
//	vcebench -name faulty-fleet -dump   # print the spec JSON and exit
//
// The (instance × run) grid fans out across -workers goroutines (default:
// one per CPU). Runs are deterministic: the same spec and -seed reproduce
// byte-identical artifacts at any worker count. A spec that validates runs
// every cell: a sweep stops early only on -timeout, Ctrl-C or an engine
// self-check, and then writes no report and exits 1.
//
// Arrival processes (workload.arrivals.kind): "batch" (everything at t=0),
// "poisson" (homogeneous open arrivals), "diurnal" (sinusoidally
// rate-modulated Poisson — day/night traffic) and "trace" (replay of
// recorded inter-arrival gaps, inline or via trace_path). The open-loop
// kinds (diurnal, trace) stream arrivals through a bounded task pool, so a
// cell can absorb millions of tasks in constant memory; workload.queue_limit
// bounds admission and rejected arrivals surface as the reject_rate_pct
// index alongside the steady-state slowdown quantiles and queue-depth
// columns in every report table.
//
// Sweeps shard across processes and cache across runs:
//
//	vcebench -name hetero-baseline -shard 0/2 -out /tmp/s0   # half the grid
//	vcebench -name hetero-baseline -shard 1/2 -out /tmp/s1   # the other half
//	vcebench merge -out /tmp/merged /tmp/s0 /tmp/s1          # == single run
//	vcebench -name hetero-baseline -cache-dir ~/.cache/vce   # warm re-runs simulate nothing
//
// -shard i/N runs only the grid positions of shard i; `vcebench merge`
// recombines shard output directories (their report.json artifacts) into
// the byte-identical single-process report. -cache-dir points sweeps at a
// content-addressed result store keyed by (engine version, spec, policy
// cell, run); shards and repeat runs sharing the directory never simulate
// the same cell twice.
//
// `vcebench serve` runs the engine as a long-running multi-client daemon
// over one shared cache directory:
//
//	vcebench serve -cache-dir ~/.cache/vce -addr 127.0.0.1:8080
//
// POST /sweeps submits a spec; GET /sweeps/{id}(/events|/report) serves
// status, an NDJSON/SSE progress stream and the finished artifacts
// (byte-identical to a CLI run of the same spec); GET /stats reports the
// shared cache's traffic. Identical concurrent submissions cost one
// sweep's worth of simulation, and a daemon restarted on the same
// -cache-dir resumes interrupted sweeps from the store.
//
// `vcebench check` property-checks the engine itself over randomized
// generated scenarios:
//
//	vcebench check -seeds 50            # 50 generated specs × every invariant
//	vcebench check -seeds 200 -out /tmp/repros
//
// Each generated spec is swept repeatedly while the harness asserts six
// engine-wide properties: execution-identity (the report is the same whether
// the sweep runs again, on single-use arenas, at N workers, sharded and
// merged, from a warm cache, under the kernel audit hook or with the policy
// matrix reversed — a violation names the failing mode), counts (every run's
// task counts in range), steady-state-bounds and topology-conservation
// (index sanity on the generator's overloaded stream and two-site DAG
// strata; skipped on other specs), machine-permutation and
// makespan-dominance. A violated property is
// minimized to the smallest still-failing spec and written to -out as a
// `vcebench -spec` reproduction file; the exit status is non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"vce/examples/scenarios"
	"vce/internal/obs"
	"vce/internal/scenario"
	"vce/internal/scenario/check"
	"vce/internal/scenario/store"
)

// Telemetry artifact names. These are CLI-level files — WriteArtifacts (and
// therefore the golden set, merge identity, and the report schema) never
// sees them; they carry wall-clock and cache-traffic data that must not
// influence report bytes.
const (
	telemetryFile  = "telemetry.json"
	cacheStatsFile = "cache_stats.json"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch routes subcommands; everything below main takes its arguments
// and output streams explicitly so the CLI is testable in-process.
//
// SIGINT/SIGTERM cancel the command's root context instead of killing the
// process outright: Ctrl-C of a long sweep halts in-flight simulations
// promptly, the observability artifacts (cache stats line, cache_stats.json,
// telemetry.json, -trace) still land, and the cells that finished are
// already in the result store — so an interrupted -cache-dir sweep resumes
// from where it died. A second signal kills the process the default way
// (NotifyContext stops relaying once the context is cancelled).
func dispatch(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout, stderr)
		case "check":
			return runCheck(ctx, args[1:], stdout, stderr)
		case "serve":
			return runServe(ctx, args[1:], stdout, stderr)
		}
	}
	return run(ctx, args, stdout, stderr)
}

// run is the default sweep command, with a normal return path so the
// profiling defers fire even when the sweep ends in an error exit code.
func run(baseCtx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("spec", "", "path to a scenario spec JSON file")
		name     = fs.String("name", "", "built-in scenario name (see -list)")
		list     = fs.Bool("list", false, "list built-in scenarios and exit")
		dump     = fs.Bool("dump", false, "print the resolved spec JSON and exit (template for -spec)")
		runs     = fs.Int("runs", 0, "override the spec's runs-per-cell count")
		seed     = fs.Uint64("seed", 0, "override the spec's root seed")
		out      = fs.String("out", "", "output directory for artifacts (omit to print the table only)")
		quiet    = fs.Bool("q", false, "suppress per-run progress lines")
		workers  = fs.Int("workers", 0, "concurrent (instance, run) jobs (0 = one per CPU)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the sweep (0 = none)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf  = fs.String("memprofile", "", "write an allocation profile after the sweep to this file")
		shardArg = fs.String("shard", "", "run only shard i of N grid slices, as \"i/N\" (0-based); combine outputs with `vcebench merge`")
		cacheDir = fs.String("cache-dir", "", "content-addressed result cache directory; hits skip simulation entirely")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON of the sweep to this file (load in ui.perfetto.dev)")
		telem    = fs.Bool("telemetry", false, "record sweep telemetry and write telemetry.json into -out")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *runs < 0 {
		return fail(stderr, fmt.Errorf("vcebench: -runs must be >= 0 (0 keeps the spec's count), got %d", *runs))
	}
	if *workers < 0 {
		return fail(stderr, fmt.Errorf("vcebench: -workers must be >= 0 (0 = one per CPU), got %d", *workers))
	}

	shard, err := parseShard(*shardArg)
	if err != nil {
		return fail(stderr, err)
	}
	var cache *store.FS
	if *cacheDir != "" {
		if cache, err = store.Open(*cacheDir); err != nil {
			return fail(stderr, err)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows real retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	if *list {
		for _, n := range scenarios.Names() {
			sp, _ := scenarios.Builtin(n)
			fmt.Fprintf(stdout, "%-16s %s\n", n, sp.Description)
		}
		return 0
	}

	sp, err := loadSpec(*specPath, *name)
	if err != nil {
		return fail(stderr, err)
	}
	if *runs > 0 {
		sp.Runs = *runs
	}
	if *seed != 0 {
		sp.Seed = *seed
	}
	if *dump {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sp); err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	var progress func(scenario.ProgressEvent)
	if !*quiet {
		// The engine serializes progress calls, so plain Fprintf is safe
		// even at -workers > 1 (lines arrive in completion order). Cached
		// replays are tagged so a warm sweep's log is honest about having
		// simulated nothing.
		progress = func(ev scenario.ProgressEvent) {
			tag := ""
			if ev.Cached {
				tag = " [cache]"
			}
			fmt.Fprintf(stderr, "%-40s run %d: completed=%d makespan=%.0fs migrations=%d failed=%d%s\n",
				ev.Instance.Key(), ev.Run, ev.Indexes.Completed, ev.Indexes.MakespanS, ev.Indexes.Migrations, ev.Indexes.Failed, tag)
		}
	}
	ctx := baseCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var cacheStore scenario.Store
	if cache != nil {
		cacheStore = cache
	}
	// The recorder exists only when asked for: a nil Telemetry option is
	// the engine's true off-path (no clock reads).
	var rec *obs.Recorder
	if *traceOut != "" || *telem {
		rec = obs.New()
	}
	rep, err := scenario.RunContext(ctx, sp, scenario.Options{
		Workers:   *workers,
		Progress:  progress,
		Shard:     shard,
		Cache:     cacheStore,
		Telemetry: rec,
	})
	if cache != nil {
		// The stats line is machine-checked by scripts/sweep_shards.sh and
		// the CLI tests: a warm repeat must show "misses: 0" — zero
		// simulations performed — and corrupt entries and failed
		// write-throughs must be visible, not silently folded away.
		st := cache.Stats()
		fmt.Fprintf(stderr, "vcebench: cache %s: hits: %d, misses: %d, corrupt: %d, put_errors: %d\n",
			cache.Dir(), st.Hits, st.Misses, st.Corrupt, st.PutErrors)
		if rec != nil {
			rec.SetCacheStats(st)
		}
	}
	if err != nil {
		// The sweep produced no report (timeout, Ctrl-C or an engine
		// self-check) — the observability artifacts still land, so an
		// interrupted sweep is accountable and, with -cache-dir, the resume
		// path has its stats file next to the cells the store already holds.
		if werr := writeObsArtifacts(*out, cache, rec, *telem, *traceOut, stdout); werr != nil {
			fmt.Fprintln(stderr, werr)
		}
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, rep.ComparisonTable().String())
	if *out != "" {
		written, err := rep.WriteArtifacts(*out)
		if err != nil {
			return fail(stderr, err)
		}
		for _, p := range written {
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
	}
	if err := writeObsArtifacts(*out, cache, rec, *telem, *traceOut, stdout); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// writeFileWith creates path and streams fn into it, surfacing both write
// and close errors.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeObsArtifacts lands a sweep's observability artifacts, finished or
// aborted: cache_stats.json and telemetry.json into out (created if needed —
// an aborted sweep has written no report there) plus the -trace file.
// Per-shard cache traffic rides along next to report.json so `vcebench
// merge` can aggregate stats across shard directories.
func writeObsArtifacts(out string, cache *store.FS, rec *obs.Recorder, telem bool, traceOut string, stdout io.Writer) error {
	if out != "" && (cache != nil || (rec != nil && telem)) {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if cache != nil {
			p := filepath.Join(out, cacheStatsFile)
			if err := writeCacheStats(p, cache.Stats()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
		if rec != nil && telem {
			p := filepath.Join(out, telemetryFile)
			if err := writeFileWith(p, rec.WriteSummary); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
	}
	if rec != nil && traceOut != "" {
		if err := writeFileWith(traceOut, rec.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", traceOut)
	}
	return nil
}

// writeCacheStats persists one sweep's result-store traffic as JSON.
func writeCacheStats(path string, s obs.CacheStats) error {
	return writeFileWith(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	})
}

// readCacheStats loads a shard directory's cache_stats.json; ok is false
// when the file does not exist (pre-telemetry shard outputs, cacheless
// sweeps).
func readCacheStats(path string) (s obs.CacheStats, ok bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return obs.CacheStats{}, false, nil
	}
	if err != nil {
		return obs.CacheStats{}, false, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return obs.CacheStats{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return s, true, nil
}

func loadSpec(specPath, name string) (*scenario.Spec, error) {
	switch {
	case specPath != "" && name != "":
		return nil, fmt.Errorf("vcebench: -spec and -name are mutually exclusive")
	case specPath != "":
		return scenario.Load(specPath)
	case name != "":
		return scenarios.Builtin(name)
	default:
		return nil, fmt.Errorf("vcebench: need -spec <file> or -name <builtin> (try -list)")
	}
}

// parseShard parses the -shard flag's "i/N" form (empty means unsharded);
// scenario.Options validates the coordinates themselves.
func parseShard(s string) (scenario.Shard, error) {
	if s == "" {
		return scenario.Shard{}, nil
	}
	idxStr, countStr, ok := strings.Cut(s, "/")
	idx, err1 := strconv.Atoi(idxStr)
	count, err2 := strconv.Atoi(countStr)
	if !ok || err1 != nil || err2 != nil || count < 1 || idx < 0 || idx >= count {
		return scenario.Shard{}, fmt.Errorf("vcebench: -shard %q: want \"i/N\" with 0 <= i < N, e.g. -shard 0/2", s)
	}
	return scenario.Shard{Index: idx, Count: count}, nil
}

// runMerge is the `vcebench merge` subcommand: it loads the report.json
// artifact from each shard output directory (or file path), merges them
// into the single-process report and writes/prints it like a normal sweep.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output directory for the merged artifacts (omit to print the table only)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vcebench merge [-out dir] <shard-dir>...\n\nMerges the report.json artifacts of sharded sweep runs into the\nbyte-identical single-process report.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	reports := make([]*scenario.Report, 0, fs.NArg())
	var cacheTotal obs.CacheStats
	cacheShards := 0
	for _, arg := range fs.Args() {
		path := arg
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			path = filepath.Join(path, scenario.ReportFile)
			// Shard sweeps that ran with -cache-dir leave their store
			// traffic beside report.json; the merged view must sum the
			// per-shard counters, not drop them.
			st, ok, err := readCacheStats(filepath.Join(arg, cacheStatsFile))
			if err != nil {
				return fail(stderr, err)
			}
			if ok {
				cacheTotal = cacheTotal.Add(st)
				cacheShards++
			}
		}
		rep, err := scenario.LoadReport(path)
		if err != nil {
			return fail(stderr, err)
		}
		reports = append(reports, rep)
	}
	merged, err := scenario.MergeReports(reports...)
	if err != nil {
		return fail(stderr, err)
	}
	if cacheShards > 0 {
		// Same line grammar as the sweep command's stats line, so the
		// tooling that scrapes one scrapes the other.
		fmt.Fprintf(stderr, "vcebench: cache (%d shards): hits: %d, misses: %d, corrupt: %d, put_errors: %d\n",
			cacheShards, cacheTotal.Hits, cacheTotal.Misses, cacheTotal.Corrupt, cacheTotal.PutErrors)
	}
	fmt.Fprintln(stdout, merged.ComparisonTable().String())
	if *out != "" {
		written, err := merged.WriteArtifacts(*out)
		if err != nil {
			return fail(stderr, err)
		}
		if cacheShards > 0 {
			p := filepath.Join(*out, cacheStatsFile)
			if err := writeCacheStats(p, cacheTotal); err != nil {
				return fail(stderr, err)
			}
			written = append(written, p)
		}
		for _, p := range written {
			fmt.Fprintf(stdout, "wrote %s\n", p)
		}
	}
	return 0
}

// runCheck is the `vcebench check` subcommand: the randomized invariant
// harness (internal/scenario/check) over -seeds generated scenarios.
func runCheck(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds    = fs.Int("seeds", 50, "how many generated scenario specs to sweep")
		baseSeed = fs.Uint64("seed", 1, "first generation seed (spec i uses seed+i)")
		out      = fs.String("out", ".", "directory for minimized failure-reproduction specs")
		workers  = fs.Int("workers", 4, "worker count of the multi-worker sweeps the properties run")
		quiet    = fs.Bool("q", false, "suppress per-seed progress lines")
		propsArg = fs.String("properties", "", "comma-separated property subset (default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vcebench check [-seeds N] [-seed base] [-out dir] [-properties a,b]\n\nProperty-checks the whole engine over randomized generated scenarios; a\nproperty whose precondition rejects a spec counts it as skipped.\nProperties: %s\n\n",
			strings.Join(check.PropertyNames(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *seeds < 1 {
		return fail(stderr, fmt.Errorf("vcebench check: -seeds must be >= 1, got %d", *seeds))
	}
	if *workers < 1 {
		return fail(stderr, fmt.Errorf("vcebench check: -workers must be >= 1, got %d", *workers))
	}
	opts := check.Options{
		Seeds:    *seeds,
		BaseSeed: *baseSeed,
		Workers:  *workers,
		OutDir:   *out,
	}
	if !*quiet {
		opts.Log = stderr
	}
	if *propsArg != "" {
		opts.Properties = strings.Split(*propsArg, ",")
	}
	res, err := check.Run(ctx, opts)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, res.Table().String())
	if !res.Ok() {
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "vcebench check: seed %d: property %s FAILED: %v\n", f.Seed, f.Property, f.Err)
			if f.ReproPath != "" {
				fmt.Fprintf(stderr, "vcebench check: minimized repro written to %s (run: vcebench -spec %s)\n", f.ReproPath, f.ReproPath)
			}
		}
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
