package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vce/internal/scenario"
)

// tinySpec is a small fast scenario: 1 sched × 2 migrations × 2 runs =
// 4 grid cells.
const tinySpec = `{
  "name": "svc-tiny",
  "horizon_s": 300,
  "machines": {"classes": [{"class": "workstation", "count": 2, "speed": {"dist": "fixed", "value": 1}}]},
  "workload": {"tasks": 4, "work": {"dist": "uniform", "min": 20, "max": 40}},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none", "suspend"]},
  "runs": 2,
  "seed": 9
}
`

const tinyTotal = 4

// newService builds a Server over dir plus an httptest front end, both torn
// down with the test.
func newService(t *testing.T, dir string, workers, maxConc int) (*Server, *httptest.Server) {
	t.Helper()
	sv, err := New(Config{CacheDir: dir, Workers: workers, MaxConcurrent: maxConc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(func() { sv.Close(); ts.Close() })
	return sv, ts
}

// submit POSTs a spec and returns the accepted Status.
func submit(t *testing.T, ts *httptest.Server, spec string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /sweeps = %d: %s", resp.StatusCode, buf.String())
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches one sweep's Status.
func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the sweep reaches want (failing fast on failed).
func waitState(t *testing.T, ts *httptest.Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("sweep %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %s", id, want)
	return Status{}
}

// TestSubmitReportMatchesCLI: the daemon's report artifact must be
// byte-identical to what the engine's own WriteArtifacts produces for the
// same spec — the acceptance contract with the CLI.
func TestSubmitReportMatchesCLI(t *testing.T) {
	_, ts := newService(t, t.TempDir(), 2, 2)
	st := submit(t, ts, tinySpec)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submitted sweep state = %s", st.State)
	}
	if st.Total != tinyTotal {
		t.Fatalf("total = %d, want %d", st.Total, tinyTotal)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Done != tinyTotal || done.Cached != 0 || done.Simulated != tinyTotal {
		t.Fatalf("done status = %+v; want %d simulated, 0 cached", done, tinyTotal)
	}

	resp, err := http.Get(ts.URL + "/sweeps/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	sp, err := scenario.Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunContext(context.Background(), sp, scenario.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	if _, err := rep.WriteArtifacts(ref); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(ref, scenario.ReportFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("daemon report differs from the CLI-path report.json for the same spec")
	}
}

// TestConcurrentIdenticalClients: two clients submitting the same spec at
// once must cost one sweep's worth of simulation — identical sweeps
// serialize, so exactly one simulates and the other replays every cell
// from the shared cache.
func TestConcurrentIdenticalClients(t *testing.T) {
	sv, ts := newService(t, t.TempDir(), 2, 4)
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(tinySpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if ids[0] == "" || ids[1] == "" {
		t.Fatal("submission failed")
	}
	if ids[0] == ids[1] {
		t.Fatalf("both submissions got sweep id %s; want distinct sweeps", ids[0])
	}
	a := waitState(t, ts, ids[0], StateDone)
	b := waitState(t, ts, ids[1], StateDone)
	if a.Simulated+b.Simulated != tinyTotal {
		t.Errorf("total simulated = %d + %d, want exactly %d across both sweeps",
			a.Simulated, b.Simulated, tinyTotal)
	}
	if a.Cached+b.Cached != tinyTotal {
		t.Errorf("total cached = %d + %d, want %d: one sweep must replay entirely",
			a.Cached, b.Cached, tinyTotal)
	}
	// The shared store saw one cold sweep (all misses) and one warm sweep
	// (all hits), whatever order the two landed in.
	cs := sv.Cache().Stats()
	if cs.Misses != tinyTotal || cs.Hits != tinyTotal || cs.PutErrors != 0 {
		t.Errorf("store stats = %+v; want %d misses, %d hits", cs, tinyTotal, tinyTotal)
	}
	waitQueueIdle(t, sv)
}

// waitQueueIdle polls until the run queue and the running set are empty: a
// sweep reports done before its runner releases its spec hash.
func waitQueueIdle(t *testing.T, sv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sv.mu.Lock()
		queued, running := len(sv.queue), len(sv.running)
		sv.mu.Unlock()
		if queued == 0 && running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queued and %d running spec hashes left after every sweep finished", queued, running)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightsForgetFinishedSpecs: the running set holds only spec hashes
// with a sweep executing, so a long-lived daemon does not grow one entry
// per distinct spec ever submitted.
func TestFlightsForgetFinishedSpecs(t *testing.T) {
	sv, ts := newService(t, t.TempDir(), 1, 2)
	var ids []string
	for seed := 1; seed <= 5; seed++ {
		spec := strings.Replace(tinySpec, `"seed": 9`, fmt.Sprintf(`"seed": %d`, seed), 1)
		ids = append(ids, submit(t, ts, spec).ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
	waitQueueIdle(t, sv)
}

// readEvents consumes a sweep's NDJSON event stream to its terminal event.
func readEvents(t *testing.T, ts *httptest.Server, id string, header map[string]string) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimPrefix(line, "data: ")
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEventStreamMatchesProgress: at workers=1 the engine completes jobs
// in grid-feed order, so the daemon's event stream must reproduce exactly
// the serialized Progress sequence a direct RunContext observes —
// same cells, same order, same indexes — and terminate with one done event.
func TestEventStreamMatchesProgress(t *testing.T) {
	_, ts := newService(t, t.TempDir(), 1, 1)
	st := submit(t, ts, tinySpec)
	events := readEvents(t, ts, st.ID, nil)

	sp, err := scenario.Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	var want []scenario.ProgressEvent
	if _, err := scenario.RunContext(context.Background(), sp, scenario.Options{
		Workers:  1,
		Progress: func(ev scenario.ProgressEvent) { want = append(want, ev) },
	}); err != nil {
		t.Fatal(err)
	}

	if len(events) != len(want)+1 {
		t.Fatalf("got %d events, want %d run events + 1 terminal", len(events), len(want))
	}
	for i, ev := range events[:len(want)] {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type != "run" {
			t.Fatalf("event %d type = %q", i, ev.Type)
		}
		w := want[i]
		if ev.Sched != w.Instance.Sched || ev.Migration != w.Instance.Migration || ev.Run != w.Run {
			t.Errorf("event %d = %s/%s run %d, want %s run %d",
				i, ev.Sched, ev.Migration, ev.Run, w.Instance.Key(), w.Run)
		}
		if ev.Cached != w.Cached {
			t.Errorf("event %d cached = %v, want %v", i, ev.Cached, w.Cached)
		}
		if ev.Indexes == nil || *ev.Indexes != w.Indexes {
			t.Errorf("event %d indexes differ from Progress", i)
		}
	}
	if last := events[len(events)-1]; last.Type != StateDone {
		t.Errorf("terminal event type = %q, want %q", last.Type, StateDone)
	}

	// The same stream over SSE framing: identical events, data:-prefixed.
	sse := readEvents(t, ts, st.ID, map[string]string{"Accept": "text/event-stream"})
	if len(sse) != len(events) {
		t.Fatalf("SSE replay has %d events, NDJSON had %d", len(sse), len(events))
	}
	for i := range sse {
		if sse[i] != events[i] && (sse[i].Indexes == nil || events[i].Indexes == nil || *sse[i].Indexes != *events[i].Indexes) {
			t.Errorf("SSE event %d differs from NDJSON event", i)
		}
	}
}

// TestStatsAndPersistence: /stats reflects the store traffic and sweep
// census, and the sweep's state is persisted under the cache directory.
func TestStatsAndPersistence(t *testing.T) {
	dir := t.TempDir()
	_, ts := newService(t, dir, 2, 2)
	st := submit(t, ts, tinySpec)
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Entries != tinyTotal || stats.Cache.Misses != tinyTotal {
		t.Errorf("stats = %+v; want %d entries and misses", stats, tinyTotal)
	}
	if stats.Sweeps[StateDone] != 1 {
		t.Errorf("sweep census = %v; want one done sweep", stats.Sweeps)
	}

	sweepDir := filepath.Join(dir, sweepsDirName, st.ID)
	for _, name := range []string{specFileName, stateFileName, filepath.Join(artifactsDir, scenario.ReportFile)} {
		if _, err := os.Stat(filepath.Join(sweepDir, name)); err != nil {
			t.Errorf("persisted %s missing: %v", name, err)
		}
	}
	var persisted Status
	data, err := os.ReadFile(filepath.Join(sweepDir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.State != StateDone || persisted.Done != tinyTotal {
		t.Errorf("persisted state = %+v; want done/%d", persisted, tinyTotal)
	}
}

// TestBadRequests covers the failure surfaces: malformed specs are 400s
// with the validation error, unknown sweeps are 404s, artifacts of
// unfinished sweeps are 409s, and artifact names cannot traverse paths.
func TestBadRequests(t *testing.T) {
	dir := t.TempDir()
	_, ts := newService(t, dir, 1, 1)

	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"name": "x"`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"name": "no-machines", "machines": {"classes": []}, "workload": {"tasks": 1, "work": {"dist": "fixed", "value": 1}}, "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]string
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg["error"], "machines.classes") {
		t.Errorf("invalid spec: status %d, error %q", resp.StatusCode, msg["error"])
	}

	for _, path := range []string{"/sweeps/nope", "/sweeps/nope/events", "/sweeps/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// A checkpoint tick the engine's clock cannot advance past would pin a
	// runner forever; it is refused as invalid instead.
	tick := strings.Replace(tinySpec, `"seed": 9`, `"seed": 9, "checkpoint_interval_s": 1e-10`, 1)
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(tick))
	if err != nil {
		t.Fatal(err)
	}
	msg = nil
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg["error"], "checkpoint_interval_s") {
		t.Errorf("zero-length checkpoint tick: status %d, error %q", resp.StatusCode, msg["error"])
	}

	// A valid spec padded to one byte over the body limit is refused for
	// its size alone. Neither refusal leaves a sweep directory; the
	// submission after them (below) shows the daemon still serves.
	oversized := tinySpec + strings.Repeat(" ", maxSpecBytes+1-len(tinySpec))
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(oversized))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("spec of %d bytes: status %d, want 413", len(oversized), resp.StatusCode)
	}
	if sweeps, _ := os.ReadDir(filepath.Join(dir, "sweeps")); len(sweeps) != 0 {
		t.Errorf("refused submissions left %d sweep directories behind", len(sweeps))
	}

	st := submit(t, ts, tinySpec)
	waitState(t, ts, st.ID, StateDone)
	resp, err = http.Get(ts.URL + "/sweeps/" + st.ID + "/artifacts/.hidden")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dotfile artifact = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sweeps/" + st.ID + "/artifacts/indexes.csv")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("indexes.csv artifact = %d, want 200", resp.StatusCode)
	}
}

// TestListSweeps: GET /sweeps returns every submission in order.
func TestListSweeps(t *testing.T) {
	_, ts := newService(t, t.TempDir(), 2, 2)
	a := submit(t, ts, tinySpec)
	b := submit(t, ts, tinySpec)
	waitState(t, ts, a.ID, StateDone)
	waitState(t, ts, b.ID, StateDone)
	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Errorf("list = %+v; want [%s %s] in submission order", list, a.ID, b.ID)
	}
}

// slowSpec is compute-heavy enough (~150ms per cell, 8 cells) for a test
// to interrupt it mid-sweep deterministically.
const slowSpec = `{
  "name": "svc-slow",
  "horizon_s": 36000,
  "machines": {"classes": [{"class": "workstation", "count": 8, "speed": {"dist": "fixed", "value": 1}}]},
  "workload": {"tasks": 1000, "work": {"dist": "uniform", "min": 20, "max": 60}},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none", "suspend"]},
  "runs": 4,
  "seed": 7
}
`

const slowTotal = 8

// TestKillAndRestartResumes is the daemon-lifecycle acceptance test:
// killing the daemon mid-sweep and starting a fresh one on the same cache
// directory must resume the sweep, replaying every cell that finished
// before the kill from the store instead of re-simulating it.
func TestKillAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	svA, err := New(Config{CacheDir: dir, Workers: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA)
	st := submit(t, tsA, slowSpec)

	// Wait for at least one finished cell (so the store holds something to
	// resume from), then kill the daemon mid-sweep.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cur := getStatus(t, tsA, st.ID); cur.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	svA.Close()
	tsA.Close()

	interrupted := getPersistedState(t, dir, st.ID)
	if interrupted.State != StateInterrupted {
		t.Fatalf("persisted state after kill = %s, want %s", interrupted.State, StateInterrupted)
	}
	if interrupted.Done >= slowTotal {
		t.Skipf("sweep finished before the kill (%d/%d cells); nothing to resume", interrupted.Done, slowTotal)
	}

	// A fresh daemon on the same cache dir recovers and re-queues the
	// sweep; the finished cells replay from the store.
	svB, tsB := newService(t, dir, 1, 1)
	done := waitState(t, tsB, st.ID, StateDone)
	if done.Done != slowTotal {
		t.Fatalf("resumed sweep done = %d, want %d", done.Done, slowTotal)
	}
	if done.Cached < 1 {
		t.Errorf("resumed sweep replayed %d cells from the store, want >= 1", done.Cached)
	}
	if done.Cached+done.Simulated != slowTotal {
		t.Errorf("cached %d + simulated %d != %d", done.Cached, done.Simulated, slowTotal)
	}
	// Zero duplicate simulation: the store's entry count equals the grid —
	// each cell was simulated (and written through) exactly once across
	// both daemon lifetimes.
	if entries, err := svB.Cache().Len(); err != nil || entries != slowTotal {
		t.Errorf("store holds %d entries (err %v), want %d", entries, err, slowTotal)
	}
	if _, err := os.Stat(filepath.Join(dir, sweepsDirName, st.ID, artifactsDir, scenario.ReportFile)); err != nil {
		t.Errorf("resumed sweep wrote no report: %v", err)
	}
}

// getPersistedState reads a sweep's state.json off disk.
func getPersistedState(t *testing.T, cacheDir, id string) Status {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(cacheDir, sweepsDirName, id, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestQueuedSweepsCostNoGoroutines: a queued sweep is an entry in the run
// queue, not a parked goroutine, so a daemon's goroutines stay bounded by
// MaxConcurrent however many sweeps wait.
func TestQueuedSweepsCostNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sv, err := New(Config{CacheDir: t.TempDir(), Workers: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for seed := 1; seed <= 100; seed++ {
		raw := strings.Replace(slowSpec, `"seed": 7`, fmt.Sprintf(`"seed": %d`, seed), 1)
		sp, err := scenario.Parse([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Submit(sp, []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	// One runner, plus the running sweep's worker, feeder and closer.
	if extra := runtime.NumGoroutine() - base; extra > 8 {
		t.Errorf("%d goroutines above baseline with 100 sweeps submitted at MaxConcurrent 1, want at most 8", extra)
	}
}

// TestCloseInterruptsQueuedSweep: at Close, a sweep still queued behind a
// running one ends its open event stream with interrupted and persists
// interrupted, and a restarted daemon runs it to done.
func TestCloseInterruptsQueuedSweep(t *testing.T) {
	dir := t.TempDir()
	svA, err := New(Config{CacheDir: dir, Workers: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA)
	defer tsA.Close()
	// Far more cells than the test lives for: the queued sweep cannot start
	// before Close, and the restarted daemon's runner cancels it at cleanup.
	blocker := submit(t, tsA, strings.Replace(slowSpec, `"runs": 4`, `"runs": 100`, 1))
	waitState(t, tsA, blocker.ID, StateRunning)
	queued := submit(t, tsA, tinySpec)
	// The stream's headers arrive once its handler waits on the log.
	resp, err := http.Get(tsA.URL + "/sweeps/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	svA.Close()

	var events []Event
	for dec := json.NewDecoder(resp.Body); ; {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		events = append(events, ev)
	}
	if len(events) != 1 || events[0].Type != StateInterrupted {
		t.Errorf("queued sweep's stream at Close = %+v; want one interrupted event", events)
	}
	if st := getPersistedState(t, dir, queued.ID); st.State != StateInterrupted {
		t.Errorf("queued sweep persisted %s at Close, want %s", st.State, StateInterrupted)
	}

	_, tsB := newService(t, dir, 1, 2)
	if done := waitState(t, tsB, queued.ID, StateDone); done.Done != tinyTotal {
		t.Errorf("resumed queued sweep done = %d, want %d", done.Done, tinyTotal)
	}
}

// stalledWriter is an event-stream client that never reads: every write
// blocks until the request's context ends.
type stalledWriter struct {
	ctx    context.Context
	header http.Header
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write([]byte) (int, error) {
	<-w.ctx.Done()
	return 0, w.ctx.Err()
}

// TestUnreadStreamDoesNotBlockSweep: an /events client that never reads
// stalls only its own handler; the sweep still reaches done, and the
// handler returns once the client goes away.
func TestUnreadStreamDoesNotBlockSweep(t *testing.T) {
	sv, ts := newService(t, t.TempDir(), 1, 1)
	st := submit(t, ts, tinySpec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/sweeps/"+st.ID+"/events", nil).WithContext(ctx)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		sv.ServeHTTP(&stalledWriter{ctx: ctx, header: http.Header{}}, req)
	}()
	waitState(t, ts, st.ID, StateDone)
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("event handler still blocked after its client went away")
	}
}

// TestRecoveredDoneSweepServable: a finished sweep survives a restart —
// its status, artifacts and a terminal-only event stream stay servable
// from the persisted state alone.
func TestRecoveredDoneSweepServable(t *testing.T) {
	dir := t.TempDir()
	svA, err := New(Config{CacheDir: dir, Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA)
	st := submit(t, tsA, tinySpec)
	waitState(t, tsA, st.ID, StateDone)
	var want bytes.Buffer
	resp, err := http.Get(tsA.URL + "/sweeps/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	want.ReadFrom(resp.Body)
	resp.Body.Close()
	svA.Close()
	tsA.Close()

	_, tsB := newService(t, dir, 2, 2)
	got := getStatus(t, tsB, st.ID)
	if got.State != StateDone || got.Done != tinyTotal {
		t.Fatalf("recovered status = %+v", got)
	}
	if len(got.Artifacts) == 0 {
		t.Error("recovered sweep lists no artifacts")
	}
	resp, err = http.Get(tsB.URL + "/sweeps/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	after.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(after.Bytes(), want.Bytes()) {
		t.Error("report bytes changed across daemon restart")
	}
	events := readEvents(t, tsB, st.ID, nil)
	if len(events) != 1 || events[0].Type != StateDone {
		t.Errorf("recovered event stream = %+v; want a single done event", events)
	}
}

// TestSubmitIDsAreUniqueAcrossRestart: the submission sequence restarts
// after recovery; ids must still never collide with surviving sweep dirs.
func TestSubmitIDsAreUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svA, err := New(Config{CacheDir: dir, Workers: 2, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA)
	a := submit(t, tsA, tinySpec)
	b := submit(t, tsA, tinySpec)
	waitState(t, tsA, a.ID, StateDone)
	waitState(t, tsA, b.ID, StateDone)
	svA.Close()
	tsA.Close()

	// Delete the first sweep dir: the restarted daemon's counter now lags
	// the surviving dir names, which is exactly the collision hazard.
	if err := os.RemoveAll(filepath.Join(dir, sweepsDirName, a.ID)); err != nil {
		t.Fatal(err)
	}
	_, tsB := newService(t, dir, 2, 2)
	c := submit(t, tsB, tinySpec)
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("fresh submission reused id %s", c.ID)
	}
	waitState(t, tsB, c.ID, StateDone)
	if got := getStatus(t, tsB, b.ID); got.State != StateDone {
		t.Errorf("surviving sweep %s state = %s after new submission", b.ID, got.State)
	}
}

// TestGridSize pins the Total computation against spec defaults (runs
// omitted → the engine default of 5).
func TestGridSize(t *testing.T) {
	sp, err := scenario.Parse([]byte(`{
	  "name": "defaults",
	  "machines": {"classes": [{"class": "workstation", "count": 1, "speed": {"dist": "fixed", "value": 1}}]},
	  "workload": {"tasks": 1, "work": {"dist": "fixed", "value": 1}},
	  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none", "suspend", "checkpoint"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := gridSize(sp); got != 15 { // 1 sched × 3 migrations × 5 default runs
		t.Errorf("gridSize = %d, want 15", got)
	}
}
