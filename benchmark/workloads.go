package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vce/internal/obs"
	"vce/internal/scenario"
	"vce/internal/scenario/service"
	"vce/internal/scenario/store"
)

// sweepWorkers is the executor width every workload but stream_cell runs at.
// It is fixed rather than read off the host so results from differently
// sized hosts load the executor the same way.
const sweepWorkers = 2

// workload is one of the benchmark's fixed traffic mixes. All are closed
// loop: a client submits its next sweep only when the previous report is in
// hand.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// ops and warmup are the measured and warm-up op counts of a
	// count-bound pass at scale 1; minTraced is the floor of the traced
	// pass, which runs a quarter of ops.
	ops, warmup, minTraced int
	// clients is how many closed-loop clients generate the load.
	clients int
	setup   func(dir string, seed uint64) (runner, error)
}

var workloads = []workload{
	{name: "sweep_cold", ops: 100, warmup: 5, minTraced: 30, clients: 1, setup: setupCold,
		why: "CLI cold sweep of 24 churn cells into an empty store: kernel, sim, sched and the cell do nearly all the work"},
	{name: "sweep_warm", ops: 1200, warmup: 20, minTraced: 30, clients: 1, setup: setupWarm,
		why: "Replay of 192 cached cells: no simulation, so spec hashing, store reads, fan-in and analyze are the whole cost"},
	{name: "stream_cell", ops: 4, warmup: 1, minTraced: 1, clients: 1, setup: setupStream,
		why: "One 250k-task open-loop diurnal cell with a bounded queue: no executor parallelism or store, bounded-memory contract"},
	{name: "dag_topo", ops: 120, warmup: 5, minTraced: 30, clients: 1, setup: setupDAG,
		why: "Cold sweep of 16 three-site DAG cells: locality placement, topology resolver, parent-gated arrivals, data staging"},
	{name: "serve_mixed", ops: 1200, warmup: 20, minTraced: 30, clients: 2, setup: setupServe,
		why: "Two closed-loop HTTP clients against the daemon, small mixed specs with a resubmitted hot set: spec submitted to report served"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opOut is what one op delivered.
type opOut struct {
	// sum is the SHA-256 of the report.json bytes the op produced.
	sum [sha256.Size]byte
	// cells and tasks are the grid cells and simulated tasks (completed +
	// rejected) the report accounts for.
	cells, tasks int
	// cached is how many of the cells were replayed from a store.
	cached  int
	latency time.Duration
}

// runner is a set-up workload: op runs one sweep — a spec goes in, the bytes
// of its report.json come out — for the given closed-loop client.
type runner interface {
	op(client, i int, tr *tracer) (opOut, error)
	// resetStats forgets the traffic so far: set-up's own sweeps and the
	// warm-up ops are not the pass's.
	resetStats()
	// storeStats is the result store's traffic since resetStats.
	storeStats() store.Stats
	// verify is the workload's share of the correctness gate that needs
	// the whole pass: it returns the indexes of ops whose output was wrong
	// plus violations not tied to one op.
	verify(p *pass) (badOps []int, violations []string)
	close() error
}

// --- CLI-path workloads ---

type storeMode int

const (
	storeNone   storeMode = iota // no result cache at all
	storeFresh                   // a new empty store per op
	storeShared                  // one store, warmed during setup
)

// cliRunner drives the path `vcebench -spec` takes: parse the spec, open the
// store, RunContext, WriteArtifacts, read report.json back.
type cliRunner struct {
	dir     string
	spec    func(i int) *scenario.Spec
	workers int
	mode    storeMode
	shared  *store.FS
	base    store.Stats // shared store's counters at resetStats
	fresh   store.Stats // summed over the per-op stores
	// check is the per-op share of the correctness gate.
	check func(i int, rep *scenario.Report, sum [sha256.Size]byte) error
}

// buildSpec is what a user's spec file goes through: the generated spec is
// serialized and parsed back, so the engine sees exactly what a submitted
// JSON document would give it.
func buildSpec(sp *scenario.Spec) (*scenario.Spec, []byte, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := scenario.Parse(raw)
	return parsed, raw, err
}

// sweepToReport runs one sweep the CLI way and returns the report and the
// bytes of its report.json. rec, cache and tr may be nil.
func sweepToReport(sp *scenario.Spec, workers int, cache scenario.Store, outDir string,
	rec *obs.Recorder, tr *tracer, op, parent int) (*scenario.Report, []byte, error) {
	var origin time.Duration
	if tr != nil {
		origin = time.Since(tr.t0)
	}
	s := tr.begin(op, parent, "exec.run_context")
	rep, err := scenario.RunContext(context.Background(), sp, scenario.Options{
		Workers: workers, Cache: cache, Telemetry: rec,
	})
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		tr.deferSweep(op, s, origin, rec)
	}
	s = tr.begin(op, parent, "analyze.write_artifacts")
	_, err = rep.WriteArtifacts(outDir)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = tr.begin(op, parent, "analyze.read_report")
	data, err := os.ReadFile(filepath.Join(outDir, scenario.ReportFile))
	tr.end(s)
	return rep, data, err
}

// reportWork counts the cells a report delivers and the tasks they simulated.
func reportWork(rep *scenario.Report) (cells, tasks int) {
	for _, c := range rep.Cells {
		cells += len(c.Runs)
		for _, idx := range c.Runs {
			tasks += idx.Completed + idx.Rejected
		}
	}
	return cells, tasks
}

func (r *cliRunner) op(_, i int, tr *tracer) (opOut, error) {
	opDir := filepath.Join(r.dir, fmt.Sprintf("op-%d", i))
	start := time.Now()
	root := tr.begin(i, 0, "op")
	s := tr.begin(i, root, "spec.build")
	sp, _, err := buildSpec(r.spec(i))
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	var cache scenario.Store
	var opStore *store.FS
	switch r.mode {
	case storeFresh:
		s = tr.begin(i, root, "store.open")
		opStore, err = store.Open(filepath.Join(opDir, "cache"))
		tr.end(s)
		if err != nil {
			return opOut{}, err
		}
		cache = opStore
	case storeShared:
		cache = r.shared
	}
	var rec *obs.Recorder
	if tr != nil {
		rec = obs.New()
	}
	rep, data, err := sweepToReport(sp, r.workers, cache, filepath.Join(opDir, "out"), rec, tr, i, root)
	if err != nil {
		return opOut{}, err
	}
	tr.end(root)
	out := opOut{latency: time.Since(start), sum: sha256.Sum256(data)}
	out.cells, out.tasks = reportWork(rep)
	if opStore != nil {
		st := opStore.Stats()
		r.fresh.Hits += st.Hits
		r.fresh.Misses += st.Misses
		r.fresh.Corrupt += st.Corrupt
		r.fresh.PutErrors += st.PutErrors
	}
	if want := gridCells(sp); out.cells != want {
		return out, fmt.Errorf("op %d: report delivers %d cells, the grid has %d", i, out.cells, want)
	}
	if r.check != nil {
		if err := r.check(i, rep, out.sum); err != nil {
			return out, err
		}
	}
	return out, nil
}

// statsSince is the store traffic between two readings of its counters.
func statsSince(now, base store.Stats) store.Stats {
	return store.Stats{
		Hits:      now.Hits - base.Hits,
		Misses:    now.Misses - base.Misses,
		Corrupt:   now.Corrupt - base.Corrupt,
		PutErrors: now.PutErrors - base.PutErrors,
	}
}

func (r *cliRunner) resetStats() {
	r.fresh = store.Stats{}
	if r.shared != nil {
		r.base = r.shared.Stats()
	}
}

func (r *cliRunner) storeStats() store.Stats {
	if r.shared == nil {
		return r.fresh
	}
	return statsSince(r.shared.Stats(), r.base)
}

func (r *cliRunner) verify(*pass) ([]int, []string) {
	var violations []string
	st := r.storeStats()
	if r.mode == storeShared && st.Misses != 0 {
		violations = append(violations, fmt.Sprintf("warm store missed %d times (%d corrupt): replay simulated cells", st.Misses, st.Corrupt))
	}
	if st.PutErrors != 0 {
		violations = append(violations, fmt.Sprintf("store failed %d writes", st.PutErrors))
	}
	return nil, violations
}

func (r *cliRunner) close() error { return os.RemoveAll(r.dir) }

// warmups runs a runner's warm-up ops; they are part of setup.
func warmups(r runner, n int) error {
	for j := 0; j < n; j++ {
		if _, err := r.op(0, warmupBase+j, nil); err != nil {
			return fmt.Errorf("warm-up %d: %w", j, err)
		}
	}
	return nil
}

func setupCold(dir string, seed uint64) (runner, error) {
	spec := func(i int) *scenario.Spec { return churnSpec(seed + uint64(i)) }
	return &cliRunner{dir: dir, spec: spec, workers: sweepWorkers, mode: storeFresh}, nil
}

func setupDAG(dir string, seed uint64) (runner, error) {
	spec := func(i int) *scenario.Spec { return dagSpec(seed + uint64(i)) }
	return &cliRunner{dir: dir, spec: spec, workers: sweepWorkers, mode: storeFresh}, nil
}

func setupStream(dir string, seed uint64) (runner, error) {
	return newStreamRunner(dir, seed, streamTasks), nil
}

// newStreamRunner is stream_cell at a given task count per op (warm-up ops
// run a tenth of it).
func newStreamRunner(dir string, seed uint64, tasks int) *cliRunner {
	spec := func(i int) *scenario.Spec {
		if i >= warmupBase {
			return streamSpec(seed+uint64(i), tasks/10)
		}
		return streamSpec(seed+uint64(i), tasks)
	}
	return &cliRunner{dir: dir, spec: spec, workers: 1, mode: storeNone,
		check: func(i int, rep *scenario.Report, _ [sha256.Size]byte) error {
			// Every offered task is completed, rejected or — for at most a
			// slot's worth — still running when the arrivals end; and the
			// diurnal peak must overflow the bounded queue, or the op is
			// not exercising admission at all.
			idx := rep.Cells[0].Runs[0]
			offered := rep.Spec.Workload.Tasks
			if got := idx.Completed + idx.Rejected; got < offered-streamSlots {
				return fmt.Errorf("op %d: accounted %d of %d offered tasks", i, got, offered)
			}
			if idx.Rejected == 0 && i < warmupBase { // a warm-up is too short to overflow
				return fmt.Errorf("op %d: no task was rejected: the overload peak never filled the queue", i)
			}
			return nil
		}}
}

// setupWarm simulates the pool into one shared store, keeping each pool
// spec's cold report digest; every timed op must then replay to those bytes.
func setupWarm(dir string, seed uint64) (runner, error) {
	spec := func(i int) *scenario.Spec { return warmSpec(seed, i) }
	shared, err := store.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	cold := make([][sha256.Size]byte, warmPoolSize)
	for j := range cold {
		sp, _, err := buildSpec(spec(j))
		if err != nil {
			return nil, err
		}
		_, data, err := sweepToReport(sp, sweepWorkers, shared, filepath.Join(dir, fmt.Sprintf("cold-%d", j)), nil, nil, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("cold pool sweep %d: %w", j, err)
		}
		cold[j] = sha256.Sum256(data)
	}
	r := &cliRunner{dir: dir, spec: spec, workers: sweepWorkers, mode: storeShared, shared: shared,
		check: func(i int, _ *scenario.Report, sum [sha256.Size]byte) error {
			if sum != cold[i%warmPoolSize] {
				return fmt.Errorf("op %d: warm report.json differs from the cold one of pool spec %d", i, i%warmPoolSize)
			}
			return nil
		}}
	return r, nil
}

// --- the daemon workload ---

// serveRunner drives `vcebench serve` from outside: one service.Server
// behind an httptest listener, each closed-loop client on its own keep-alive
// connection.
type serveRunner struct {
	dir     string
	seed    uint64
	cfg     service.Config
	srv     *service.Server
	ts      *httptest.Server
	clients []*http.Client
	base    store.Stats  // the daemon store's counters at resetStats
	failed  atomic.Int64 // sweeps that ended in a state other than done
	events  atomic.Int64 // progress events read, all ops
}

func setupServe(dir string, seed uint64) (runner, error) {
	cfg := service.Config{CacheDir: filepath.Join(dir, "cache"), MaxConcurrent: sweepWorkers, Workers: sweepWorkers}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &serveRunner{dir: dir, seed: seed, cfg: cfg, srv: srv, ts: httptest.NewServer(srv)}
	for c := 0; c < sweepWorkers; c++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	return r, nil
}

// get fetches one URL and returns its body, failing on any non-200.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (r *serveRunner) op(client, i int, tr *tracer) (opOut, error) {
	c := r.clients[client]
	start := time.Now()
	root := tr.begin(i, 0, "op")
	s := tr.begin(i, root, "spec.build")
	sp, raw, err := buildSpec(serveSpec(r.seed, i))
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}

	s = tr.begin(i, root, "http.submit")
	resp, err := c.Post(r.ts.URL+"/sweeps", "application/json", bytes.NewReader(raw))
	if err != nil {
		return opOut{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return opOut{}, fmt.Errorf("op %d: POST /sweeps: %s: %s", i, resp.Status, bytes.TrimSpace(body))
	}
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return opOut{}, fmt.Errorf("op %d: submit reply: %w", i, err)
	}

	var out opOut
	s = tr.begin(i, root, "http.events")
	first := tr.begin(i, s, "http.events.first_line")
	resp, err = c.Get(r.ts.URL + "/sweeps/" + st.ID + "/events")
	if err != nil {
		return opOut{}, err
	}
	terminal := ""
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		if first != 0 {
			tr.end(first)
			first = 0
		}
		var ev service.Event
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return opOut{}, fmt.Errorf("op %d: event stream: %w", i, err)
		}
		r.events.Add(1)
		if ev.Type != "run" {
			terminal = ev.Type
			continue
		}
		out.cells++
		if ev.Cached {
			out.cached++
		}
		if ev.Indexes != nil {
			out.tasks += ev.Indexes.Completed + ev.Indexes.Rejected
		}
	}
	err = lines.Err()
	resp.Body.Close()
	tr.end(s)
	if err != nil {
		return opOut{}, err
	}
	if terminal != service.StateDone {
		r.failed.Add(1)
		return opOut{}, fmt.Errorf("op %d: sweep %s ended %q, want %q", i, st.ID, terminal, service.StateDone)
	}

	s = tr.begin(i, root, "http.report")
	data, err := get(c, r.ts.URL+"/sweeps/"+st.ID+"/report")
	tr.end(s)
	if err != nil {
		return opOut{}, fmt.Errorf("op %d: %w", i, err)
	}
	tr.end(root)
	out.latency = time.Since(start)
	out.sum = sha256.Sum256(data)
	if want := gridCells(sp); out.cells != want {
		return out, fmt.Errorf("op %d: %d run events, the grid has %d cells", i, out.cells, want)
	}

	// An operator's /stats walks the whole cache directory; sample it as the
	// directory grows. It is asked between ops, so no op latency contains it.
	if tr != nil && (i+1)%statsEvery == 0 {
		s = tr.begin(i, 0, "http.stats")
		_, err = get(c, r.ts.URL+"/stats")
		tr.end(s)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// statsEvery is how often (in ops) the traced serve pass asks for /stats.
const statsEvery = 100

func (r *serveRunner) resetStats() {
	r.base = r.srv.Cache().Stats()
	r.failed.Store(0)
	r.events.Store(0)
}

func (r *serveRunner) storeStats() store.Stats { return statsSince(r.srv.Cache().Stats(), r.base) }

// verifyEvery is the stride at which serve_mixed ops outside the hot set are
// checked against a direct sweep of the same spec.
const verifyEvery = 20

// verify recomputes, outside the daemon and after timing, the report of
// every hot-set spec and of every verifyEvery-th other op, and compares the
// served bytes against it.
func (r *serveRunner) verify(p *pass) (bad []int, violations []string) {
	direct := make(map[string][sha256.Size]byte) // spec JSON → digest of its direct report
	scratch := filepath.Join(r.dir, "verify")
	for i := range p.outs {
		if p.errs[i] != nil || !(serveHot(i) || i%verifyEvery == 0) {
			continue
		}
		sp, raw, err := buildSpec(serveSpec(r.seed, i))
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		want, ok := direct[string(raw)]
		if !ok {
			_, data, err := sweepToReport(sp, sweepWorkers, nil, scratch, nil, nil, 0, 0)
			if err != nil {
				violations = append(violations, fmt.Sprintf("direct sweep of op %d: %v", i, err))
				continue
			}
			want = sha256.Sum256(data)
			direct[string(raw)] = want
		}
		if p.outs[i].sum != want {
			bad = append(bad, i)
		}
	}
	if n := r.failed.Load(); n != 0 {
		violations = append(violations, fmt.Sprintf("%d sweeps did not reach %q", n, service.StateDone))
	}
	if st := r.storeStats(); st.PutErrors != 0 || st.Corrupt != 0 {
		violations = append(violations, fmt.Sprintf("daemon store: %d failed writes, %d corrupt entries", st.PutErrors, st.Corrupt))
	}
	return bad, violations
}

// stop shuts the listener and the daemon down, leaving the cache directory.
func (r *serveRunner) stop() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.ts.Close()
	return r.srv.Close()
}

// recoverTime stops the daemon and times a new one coming up on the
// populated cache directory — what an operator's restart faces.
func (r *serveRunner) recoverTime() (time.Duration, error) {
	if err := r.stop(); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := service.New(r.cfg)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	r.srv, r.ts = srv, httptest.NewServer(srv)
	return took, nil
}

func (r *serveRunner) close() error {
	return errors.Join(r.stop(), os.RemoveAll(r.dir))
}

// --- a pass: ops run closed-loop until a count or a deadline ---

// limit bounds a pass: by wall time when wall is set (ops in flight at the
// deadline finish), by op count otherwise.
type limit struct {
	ops  int
	wall time.Duration
}

// pass is the record of one closed-loop run of ops.
type pass struct {
	outs []opOut
	errs []error
	wall time.Duration
	// rssMiB is the process's resident-set high-water mark when the
	// rssAfter-th op completed (at the end of a shorter pass).
	rssMiB float64
}

// runPass drives the runner with clients closed-loop clients: each takes the
// next op index when its previous op has returned, until the limit. A
// positive rssAfter asks for the memory high-water mark after that many ops.
func runPass(r runner, clients int, lim limit, rssAfter int, tr *tracer) *pass {
	var (
		mu   sync.Mutex
		p    pass
		next atomic.Int64
		done int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if lim.wall > 0 && time.Since(start) >= lim.wall {
					return
				}
				i := int(next.Add(1)) - 1
				if lim.wall == 0 && i >= lim.ops {
					return
				}
				out, err := r.op(c, i, tr)
				mu.Lock()
				for len(p.outs) <= i {
					p.outs = append(p.outs, opOut{})
					p.errs = append(p.errs, nil)
				}
				p.outs[i], p.errs[i] = out, err
				if done++; done == rssAfter {
					p.rssMiB = peakRSSMiB()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if rssAfter > 0 && done < rssAfter {
		p.rssMiB = peakRSSMiB()
	}
	return &p
}

// latenciesMS is the latency of every op that returned without error.
func (p *pass) latenciesMS() []float64 {
	var ds []time.Duration
	for i, o := range p.outs {
		if p.errs[i] == nil {
			ds = append(ds, o.latency)
		}
	}
	return durationsMS(ds)
}

// digest is the SHA-256 over the pass's report digests in op order: equal
// seed and equal op count give an equal digest, so a speed-only change can
// show that no simulated statistic moved.
func (p *pass) digest() string {
	h := sha256.New()
	for _, o := range p.outs {
		h.Write(o.sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
