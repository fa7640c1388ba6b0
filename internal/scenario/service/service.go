// Package service is the sweep daemon behind `vcebench serve`: a
// long-running HTTP service that accepts scenario spec submissions from
// many concurrent clients and executes them over one shared
// content-addressed result cache.
//
// The paper's VCE is an always-on environment many users submit work into;
// this is that shape for the simulation stack. Each submission becomes a
// sweep on one run queue that Config.MaxConcurrent runners drain in
// submission order, each executing its sweep through the engine's
// RunContext worker pool. A sweep's per-run progress lands in one
// append-only event log that every client stream reads by cursor, as
// NDJSON or SSE, in the order of the engine's serialized Progress hook
// (cache provenance included). Its finished artifacts are written by the
// same WriteArtifacts the CLI uses — a report fetched from the daemon is
// byte-identical to a CLI run of the same spec.
//
// Multi-tenancy rides entirely on the executor's CellKey contract: every
// sweep consults the shared store before simulating a cell, so N clients
// submitting the same spec cost one sweep's worth of simulation. A runner
// skips a queued sweep whose spec hash is already executing, so identical
// sweeps run one after another in submission order while distinct specs
// run concurrently. That turns "two concurrent clients, same spec" into
// "first simulates, second replays entirely from cache" instead of a
// duplicated race.
//
// Endpoints:
//
//	POST /sweeps                       submit a spec (JSON body) → 202 + Status
//	GET  /sweeps                       list all sweeps
//	GET  /sweeps/{id}                  one sweep's Status
//	GET  /sweeps/{id}/events           progress stream (NDJSON; SSE with
//	                                   Accept: text/event-stream)
//	GET  /sweeps/{id}/report           the sweep's report.json, byte-identical
//	                                   to the CLI artifact
//	GET  /sweeps/{id}/artifacts/{name} any report artifact
//	GET  /stats                        cache traffic, entry count, sweep states
//	GET  /debug/vars                   expvar (memstats, cmdline)
//
// Sweep state persists under the cache directory (sweeps/<id>/: the
// submitted spec, a state.json rewritten atomically on every transition,
// and the artifacts). A daemon killed mid-sweep and restarted on the same
// -cache-dir re-queues every non-terminal sweep; the cells that finished
// before the kill replay from the store, so nothing is simulated twice.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"vce/internal/scenario"
	"vce/internal/scenario/store"
)

// Config configures a Server.
type Config struct {
	// CacheDir is the shared content-addressed result store root; sweep
	// state persists under its sweeps/ subdirectory. Required.
	CacheDir string
	// Workers is each sweep's RunContext worker count (0 = one per CPU).
	Workers int
	// MaxConcurrent bounds how many sweeps execute at once (default 2);
	// further submissions queue.
	MaxConcurrent int
	// Log, when non-nil, receives one line per sweep state transition.
	Log *log.Logger
}

// maxSpecBytes bounds a submitted spec body; a longer one is refused with
// 413 before anything is parsed or persisted.
const maxSpecBytes = 4 << 20

// ServerStats is the GET /stats payload: live traffic over the shared
// store plus the sweep registry's state census.
type ServerStats struct {
	// Cache is the store's hit/miss/corrupt/put-error traffic since the
	// daemon started.
	Cache store.Stats `json:"cache"`
	// Entries counts content-addressed cells currently in the store.
	Entries int `json:"entries"`
	// Sweeps maps lifecycle state → sweep count.
	Sweeps map[string]int `json:"sweeps"`
}

// Server is the sweep daemon. It implements http.Handler; construct with
// New, serve it, and Close it to cancel running sweeps and persist their
// interrupted state.
type Server struct {
	cfg     Config
	cache   *store.FS
	mux     *http.ServeMux
	ctx     context.Context
	cancel  context.CancelFunc
	runners sync.WaitGroup

	mu     sync.Mutex
	sweeps map[string]*sweep
	order  []string
	seq    int
	// queue holds the sweeps not yet started, in submission order; running
	// holds the spec hashes executing now. A runner takes the oldest queued
	// sweep whose hash is not running, so identical specs replay from the
	// cache one after another instead of racing. wake (on mu) is signalled
	// when a sweep is queued and broadcast on shutdown.
	queue   []*sweep
	running map[string]bool
	wake    *sync.Cond
}

// New opens (or creates) the cache directory, recovers persisted sweeps —
// re-queuing any that were queued, running or interrupted when the
// previous daemon died — and returns a ready-to-serve Server with
// MaxConcurrent runners draining the run queue.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	cache, err := store.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv := &Server{
		cfg:     cfg,
		cache:   cache,
		ctx:     ctx,
		cancel:  cancel,
		sweeps:  make(map[string]*sweep),
		running: make(map[string]bool),
	}
	sv.wake = sync.NewCond(&sv.mu)
	sv.routes()
	if err := sv.recover(); err != nil {
		cancel()
		return nil, err
	}
	// Shutdown wakes idle runners; taking mu first means no runner can be
	// between its ctx check and its Wait when the broadcast happens.
	context.AfterFunc(ctx, func() {
		sv.mu.Lock()
		sv.wake.Broadcast()
		sv.mu.Unlock()
	})
	sv.runners.Add(cfg.MaxConcurrent)
	for range cfg.MaxConcurrent {
		go sv.run()
	}
	return sv, nil
}

// Cache exposes the server's shared result store (tests and the CLI read
// its traffic counters).
func (sv *Server) Cache() *store.FS { return sv.cache }

// Stats snapshots the /stats payload.
func (sv *Server) Stats() ServerStats {
	entries, _ := sv.cache.Len()
	st := ServerStats{
		Cache:   sv.cache.Stats(),
		Entries: entries,
		Sweeps:  map[string]int{},
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, s := range sv.sweeps {
		s.mu.Lock()
		st.Sweeps[s.state]++
		s.mu.Unlock()
	}
	return st
}

// Close cancels every running sweep, waits for the runners to persist
// their interrupted state, then interrupts every sweep still queued, so
// all open event streams end. The Server must not serve requests
// afterwards.
func (sv *Server) Close() error {
	sv.cancel()
	sv.runners.Wait()
	sv.mu.Lock()
	queued := sv.queue
	sv.queue = nil
	sv.mu.Unlock()
	for _, s := range queued {
		sv.interrupt(s)
	}
	return nil
}

func (sv *Server) logf(format string, args ...any) {
	if sv.cfg.Log != nil {
		sv.cfg.Log.Printf(format, args...)
	}
}

// specHash is the submission identity: SHA-256 of the parsed spec's
// canonical JSON serialization. It keys the identical-spec serialization
// (and is reported in Status); cell-level reuse is addressed separately by
// scenario.CellKey, so two specs that hash differently here still share
// every cell they have in common.
func specHash(sp *scenario.Spec) string {
	data, _ := json.Marshal(sp)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// recover scans the persisted sweep directories: terminal sweeps register
// as-is (their artifacts stay servable), non-terminal ones re-queue. The
// relaunched sweeps replay their finished cells from the store — the kill
// cost is only the cells that were mid-flight.
func (sv *Server) recover() error {
	root := filepath.Join(sv.cfg.CacheDir, sweepsDirName)
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s, err := loadSweep(filepath.Join(root, name))
		if err != nil {
			sv.logf("service: skipping unrecoverable sweep dir %s: %v", name, err)
			continue
		}
		sv.mu.Lock()
		sv.sweeps[s.id] = s
		sv.order = append(sv.order, s.id)
		sv.seq++
		sv.mu.Unlock()
		if !s.closed {
			sv.logf("service: recovering %s sweep %s (%s)", s.state, s.id, s.spec.Name)
			if err := s.setState(StateQueued); err != nil {
				return err
			}
			sv.launch(s)
		}
	}
	return nil
}

// Submit registers a new sweep for the parsed spec and queues it for
// execution. The raw submitted bytes persist as the sweep's spec.json.
func (sv *Server) Submit(sp *scenario.Spec, raw []byte) (Status, error) {
	hash := specHash(sp)
	sv.mu.Lock()
	var id string
	for {
		// The sequence restarts at the recovered-directory count after a
		// daemon restart, so probe for collisions with surviving sweep
		// dirs rather than trusting the counter alone.
		sv.seq++
		id = fmt.Sprintf("%s-%04d", hash[:12], sv.seq)
		if _, taken := sv.sweeps[id]; taken {
			continue
		}
		if _, err := os.Stat(filepath.Join(sv.cfg.CacheDir, sweepsDirName, id)); err == nil {
			continue
		}
		break
	}
	sv.mu.Unlock()
	dir := filepath.Join(sv.cfg.CacheDir, sweepsDirName, id)
	if err := os.MkdirAll(filepath.Join(dir, artifactsDir), 0o755); err != nil {
		return Status{}, fmt.Errorf("service: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFileName), raw, 0o644); err != nil {
		return Status{}, fmt.Errorf("service: %w", err)
	}
	s := &sweep{
		id:       id,
		specHash: hash,
		spec:     sp,
		dir:      dir,
		state:    StateQueued,
		total:    gridSize(sp),
	}
	if err := s.persist(); err != nil {
		return Status{}, err
	}
	sv.mu.Lock()
	sv.sweeps[id] = s
	sv.order = append(sv.order, id)
	sv.mu.Unlock()
	sv.logf("service: queued sweep %s (%s, %d cells)", id, sp.Name, s.total)
	sv.launch(s)
	return s.status(), nil
}

// launch appends the sweep to the run queue and wakes an idle runner.
func (sv *Server) launch(s *sweep) {
	sv.mu.Lock()
	sv.queue = append(sv.queue, s)
	sv.mu.Unlock()
	sv.wake.Signal()
}

// run is one runner: it executes queued sweeps until the server closes.
func (sv *Server) run() {
	defer sv.runners.Done()
	for s := sv.next(nil); s != nil; s = sv.next(s) {
		sv.execute(s)
	}
}

// next releases the spec hash of the sweep the runner just finished (nil
// for none), then blocks until it can claim the oldest queued sweep whose
// hash is not running. It returns nil once the server is closing; the
// sweeps left queued are Close's to interrupt.
func (sv *Server) next(finished *sweep) *sweep {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if finished != nil {
		delete(sv.running, finished.specHash)
	}
	for sv.ctx.Err() == nil {
		for i, s := range sv.queue {
			if !sv.running[s.specHash] {
				sv.queue = slices.Delete(sv.queue, i, i+1)
				sv.running[s.specHash] = true
				return s
			}
		}
		sv.wake.Wait()
	}
	return nil
}

// interrupt parks a sweep for recovery by a future daemon on this cache
// directory.
func (sv *Server) interrupt(s *sweep) {
	if err := s.finish(StateInterrupted, "", nil); err != nil {
		sv.logf("service: persisting interrupted sweep %s: %v", s.id, err)
	}
	sv.logf("service: interrupted sweep %s (resumable on restart)", s.id)
}

// execute runs one sweep to a terminal state.
func (sv *Server) execute(s *sweep) {
	if err := s.setState(StateRunning); err != nil {
		sv.logf("service: %v", err)
	}
	sv.logf("service: running sweep %s (%s)", s.id, s.spec.Name)
	rep, err := scenario.RunContext(sv.ctx, s.spec, scenario.Options{
		Workers:  sv.cfg.Workers,
		Cache:    sv.cache,
		Progress: s.publishRun,
	})
	if err != nil {
		if sv.ctx.Err() != nil {
			sv.interrupt(s)
			return
		}
		if perr := s.finish(StateFailed, err.Error(), nil); perr != nil {
			sv.logf("service: %v", perr)
		}
		sv.logf("service: sweep %s failed: %v", s.id, err)
		return
	}
	if _, err := rep.WriteArtifacts(filepath.Join(s.dir, artifactsDir)); err != nil {
		if perr := s.finish(StateFailed, err.Error(), nil); perr != nil {
			sv.logf("service: %v", perr)
		}
		sv.logf("service: sweep %s failed writing artifacts: %v", s.id, err)
		return
	}
	if err := s.finish(StateDone, "", listArtifacts(s.dir)); err != nil {
		sv.logf("service: %v", err)
	}
	st := s.status()
	sv.logf("service: sweep %s done (%d cells, %d cached, %d simulated)",
		s.id, st.Done, st.Cached, st.Simulated)
}

// lookup finds a sweep by id.
func (sv *Server) lookup(id string) (*sweep, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sweeps[id]
	return s, ok
}

// --- HTTP layer ---

func (sv *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", sv.handleSubmit)
	mux.HandleFunc("GET /sweeps", sv.handleList)
	mux.HandleFunc("GET /sweeps/{id}", sv.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/events", sv.handleEvents)
	mux.HandleFunc("GET /sweeps/{id}/report", sv.handleReport)
	mux.HandleFunc("GET /sweeps/{id}/artifacts/{name}", sv.handleArtifact)
	mux.HandleFunc("GET /stats", sv.handleStats)
	mux.Handle("GET /debug/vars", expvar.Handler())
	sv.mux = mux
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sv.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (sv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	sp, err := scenario.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := sv.Submit(sp, raw)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/sweeps/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	ids := append([]string(nil), sv.order...)
	sv.mu.Unlock()
	statuses := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, ok := sv.lookup(id); ok {
			statuses = append(statuses, s.status())
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.status())
}

// handleEvents streams a sweep's progress: every event in its log so far,
// then each later batch as it is appended, until the sweep reaches a
// terminal state or the client disconnects. The stream is NDJSON (one
// Event object per line) unless the client asks for Server-Sent Events via
// Accept: text/event-stream. The handler only reads the log, so a client
// that stops reading stalls its own connection and nothing else.
func (sv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep %q", r.PathValue("id")))
		return
	}
	frame := "%s\n"
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		frame = "data: %s\n\n"
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	for n := 0; ; {
		evs, more := s.since(n)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, frame, data); err != nil {
				return // the client is gone
			}
		}
		n += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if more == nil {
			return // the sweep is terminal and its log complete
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

func (sv *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sv.serveArtifact(w, r, scenario.ReportFile)
}

func (sv *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: invalid artifact name %q", name))
		return
	}
	sv.serveArtifact(w, r, name)
}

// serveArtifact writes a finished sweep's artifact file verbatim — the
// bytes on disk are the bytes on the wire, which is what makes the daemon
// report byte-identical to the CLI's.
func (sv *Server) serveArtifact(w http.ResponseWriter, r *http.Request, name string) {
	s, ok := sv.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep %q", r.PathValue("id")))
		return
	}
	if st := s.status(); st.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("service: sweep %s is %s, artifacts exist only for %s sweeps", s.id, st.State, StateDone))
		return
	}
	data, err := os.ReadFile(filepath.Join(s.dir, artifactsDir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: sweep %s has no artifact %q", s.id, name))
		return
	}
	switch filepath.Ext(name) {
	case ".json":
		w.Header().Set("Content-Type", "application/json")
	case ".csv":
		w.Header().Set("Content-Type", "text/csv")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(data)
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sv.Stats())
}
