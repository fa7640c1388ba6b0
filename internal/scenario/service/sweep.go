package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"vce/internal/scenario"
)

// Sweep lifecycle states. A sweep is queued on submission, running while
// its RunContext executes, and terminal in done or failed. Interrupted is
// the shutdown state: the daemon was stopped (or killed) while the sweep
// was queued or running; a restart on the same cache directory re-queues
// it, and the cells that finished before the interruption replay from the
// content-addressed store instead of re-simulating.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// Status is one sweep's externally visible state: the GET /sweeps/{id}
// payload and the state.json persistence record.
type Status struct {
	// ID is the sweep's identity: a spec-hash prefix plus a submission
	// sequence number, so identical specs submitted twice are two sweeps.
	ID string `json:"id"`
	// Name is the submitted spec's scenario name.
	Name string `json:"name"`
	// SpecHash is the full content hash of the submitted spec; sweeps with
	// equal hashes execute serially so later ones replay the earlier one's
	// cells from the shared cache.
	SpecHash string `json:"spec_hash"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Total is the sweep's grid size: instances × runs-per-cell.
	Total int `json:"total"`
	// Done counts completed cells (simulated or replayed); Cached counts
	// the subset served from the result store; Simulated = Done − Cached.
	Done      int `json:"done"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	// Error carries the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Artifacts lists the report artifact file names available under
	// /sweeps/{id}/artifacts/ once the sweep is done.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Event is one line of a sweep's progress stream (NDJSON object or SSE
// data payload). Run events mirror the engine's serialized Progress
// callback one-to-one — same order, same cache provenance; the stream
// terminates with a single done/failed/interrupted event.
type Event struct {
	// Seq numbers events from 1 in publication order.
	Seq int `json:"seq"`
	// Type is "run" for progress events, or a terminal sweep state
	// ("done", "failed", "interrupted").
	Type string `json:"type"`
	// Sched, Migration, Run, Cached and Indexes carry the Progress
	// payload for run events.
	Sched     string            `json:"sched,omitempty"`
	Migration string            `json:"migration,omitempty"`
	Run       int               `json:"run,omitempty"`
	Cached    bool              `json:"cached,omitempty"`
	Indexes   *scenario.Indexes `json:"indexes,omitempty"`
	// Error carries the failure message on a "failed" event.
	Error string `json:"error,omitempty"`
}

// sweep is the server-side record of one submitted sweep.
type sweep struct {
	id       string
	specHash string
	spec     *scenario.Spec
	dir      string // <cache-dir>/sweeps/<id>

	mu        sync.Mutex
	state     string
	total     int
	done      int
	cached    int
	err       string
	artifacts []string
	// events is the append-only log every event stream reads by cursor.
	// grown, when a reader asked for one, is closed by the next append.
	events []Event
	grown  chan struct{}
	closed bool // terminal state reached; the log is complete
}

// gridSize computes a spec's (instance × run) cell count. Instances()
// applies the spec's defaults, so the run count is read off the expanded
// instances rather than the raw (possibly zero) Runs field.
func gridSize(sp *scenario.Spec) int {
	insts := sp.Instances()
	if len(insts) == 0 {
		return 0
	}
	return len(insts) * insts[0].Spec.Runs
}

// status snapshots the sweep under its lock.
func (s *sweep) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *sweep) statusLocked() Status {
	return Status{
		ID:        s.id,
		Name:      s.spec.Name,
		SpecHash:  s.specHash,
		State:     s.state,
		Total:     s.total,
		Done:      s.done,
		Cached:    s.cached,
		Simulated: s.done - s.cached,
		Error:     s.err,
		Artifacts: append([]string(nil), s.artifacts...),
	}
}

// publishRun is the sweep's Progress hook. The engine serializes
// invocations, so events are appended in exactly the callback order, and
// an append never waits on a reader.
func (s *sweep) publishRun(ev scenario.ProgressEvent) {
	idx := ev.Indexes
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if ev.Cached {
		s.cached++
	}
	s.appendLocked(Event{
		Type:      "run",
		Sched:     ev.Instance.Sched,
		Migration: ev.Instance.Migration,
		Run:       ev.Run,
		Cached:    ev.Cached,
		Indexes:   &idx,
	})
}

// appendLocked numbers ev, appends it to the log and wakes the readers
// waiting for it. The caller holds s.mu.
func (s *sweep) appendLocked(ev Event) {
	ev.Seq = len(s.events) + 1
	s.events = append(s.events, ev)
	if s.grown != nil {
		close(s.grown)
		s.grown = nil
	}
}

// finish moves the sweep to a terminal state: it persists that state, then
// publishes it and appends the terminal event, which completes the log. A
// client that sees a terminal state therefore finds it in state.json. The
// state is published even when persisting fails; the error is returned.
// Idempotent.
func (s *sweep) finish(state, errMsg string, artifacts []string) error {
	s.mu.Lock()
	st, closed := s.statusLocked(), s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	st.State, st.Error, st.Artifacts = state, errMsg, artifacts
	err := s.write(st)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return err
	}
	s.state = state
	s.err = errMsg
	s.artifacts = artifacts
	s.appendLocked(Event{Type: state, Error: errMsg})
	s.closed = true
	return err
}

// since returns the log's events after the first n. While the sweep is
// not terminal it also returns a channel the next append closes; once the
// sweep is terminal the channel is nil and the log is complete. Appends
// never rewrite an existing entry, so the caller reads the returned slice
// without the lock.
func (s *sweep) since(n int) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.events[n:]
	if s.closed {
		return evs, nil
	}
	if s.grown == nil {
		s.grown = make(chan struct{})
	}
	return evs, s.grown
}

// Persistence: each sweep owns <cache-dir>/sweeps/<id>/ with the submitted
// spec (spec.json), its Status (state.json, rewritten atomically on every
// state change) and the report artifacts (artifacts/, written by the same
// WriteArtifacts the CLI uses — so a report fetched from the daemon is
// byte-identical to a CLI run of the same spec).
const (
	sweepsDirName = "sweeps"
	specFileName  = "spec.json"
	stateFileName = "state.json"
	artifactsDir  = "artifacts"
)

// persist writes the sweep's current Status to state.json.
func (s *sweep) persist() error { return s.write(s.status()) }

// write writes st to state.json via temp+rename, so a killed daemon never
// leaves a torn state file for recovery to choke on.
func (s *sweep) write(st Status) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal state: %w", err)
	}
	tmp := filepath.Join(s.dir, ".state.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, stateFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// setState transitions the in-memory state and persists it.
func (s *sweep) setState(state string) error {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
	return s.persist()
}

// loadSweep reconstructs a sweep from its persisted directory. The spec is
// re-parsed (and re-validated) from spec.json; counters for a non-terminal
// sweep are reset — recovery re-queues it and the store replays whatever
// already finished. A finished sweep's log is its terminal event alone, so
// its stream still ends with a definitive state.
func loadSweep(dir string) (*sweep, error) {
	specData, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sp, err := scenario.Parse(specData)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", dir, err)
	}
	stateData, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var st Status
	if err := json.Unmarshal(stateData, &st); err != nil {
		return nil, fmt.Errorf("service: %s: %w", dir, err)
	}
	s := &sweep{
		id:       st.ID,
		specHash: st.SpecHash,
		spec:     sp,
		dir:      dir,
		state:    st.State,
		total:    gridSize(sp),
	}
	if st.State == StateDone || st.State == StateFailed {
		s.done, s.cached, s.err = st.Done, st.Cached, st.Error
		s.events = []Event{{Seq: 1, Type: st.State, Error: st.Error}}
		s.closed = true
		s.artifacts = listArtifacts(dir)
	}
	return s, nil
}

// listArtifacts names the files under the sweep's artifacts directory.
func listArtifacts(dir string) []string {
	entries, err := os.ReadDir(filepath.Join(dir, artifactsDir))
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
