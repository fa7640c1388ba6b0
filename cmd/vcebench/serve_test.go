package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vce/internal/scenario/service"
)

// syncBuffer is a mutex-guarded bytes.Buffer: runServe writes to it from
// the server goroutine while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on http://([^ ]+) `)

// waitListen polls the daemon's stderr for the resolved listen address.
func waitListen(t *testing.T, errBuf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenLine.FindStringSubmatch(errBuf.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never printed its listen address:\n%s", errBuf.String())
	return ""
}

func TestServeRequiresCacheDir(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := runServe(context.Background(), nil, &out, &errBuf); code != 2 {
		t.Fatalf("serve without -cache-dir exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "-cache-dir is required") {
		t.Errorf("stderr missing the -cache-dir diagnostic:\n%s", errBuf.String())
	}
}

// TestServeLifecycle drives the daemon end to end through the subcommand:
// start on an ephemeral port, submit a spec over HTTP, wait for completion,
// and check the served report is byte-identical to what a plain CLI run of
// the same spec writes — the multi-client daemon must not change a single
// artifact byte. Then a context cancel (the SIGINT path) shuts it down
// cleanly with exit 0.
func TestServeLifecycle(t *testing.T) {
	cacheDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errBuf := &syncBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-q"}, &out, errBuf)
	}()
	addr := waitListen(t, errBuf)

	resp, err := http.Post("http://"+addr+"/sweeps", "application/json", strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != service.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get("http://" + addr + "/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == service.StateFailed {
			t.Fatalf("sweep failed: %s", st.Error)
		}
	}

	resp, err = http.Get("http://" + addr + "/sweeps/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	served.ReadFrom(resp.Body)
	resp.Body.Close()

	spec := writeTinySpec(t)
	cliOut := filepath.Join(t.TempDir(), "out")
	if code, _, cliErr := runCLI(t, "-spec", spec, "-out", cliOut, "-q"); code != 0 {
		t.Fatalf("CLI reference run exited %d:\n%s", code, cliErr)
	}
	want, err := os.ReadFile(filepath.Join(cliOut, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), want) {
		t.Error("daemon-served report differs from the CLI run's report.json")
	}

	resp, err = http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache.Misses != 4 || stats.Entries != 4 {
		t.Errorf("daemon stats = %+v; want 4 misses and 4 entries", stats)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("cancelled daemon exited %d, want 0:\n%s", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancel")
	}
	if !strings.Contains(errBuf.String(), "sweep state persisted for resume") {
		t.Errorf("shutdown line missing:\n%s", errBuf.String())
	}
}

// TestServeClosesHeaderlessConnection: a client that opens a connection
// and never completes its request headers is disconnected once
// readHeaderTimeout passes, so stalled clients cannot pin the daemon's
// descriptors.
func TestServeClosesHeaderlessConnection(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	errBuf := &syncBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-cache-dir", t.TempDir(), "-q"}, &out, errBuf)
	}()
	defer func() { cancel(); <-exit }()
	conn, err := net.Dial("tcp", waitListen(t, errBuf))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /sweeps HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	start := time.Now()
	n, err := conn.Read(make([]byte, 1))
	if err != io.EOF {
		t.Fatalf("read on a headerless connection = %d bytes, %v; want EOF from the server closing it", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestSignalStopsServe exercises the dispatch-level signal wiring
// end to end: a real SIGINT delivered to the process must cancel the
// NotifyContext installed by dispatch and bring the daemon down with
// exit 0.
func TestSignalStopsServe(t *testing.T) {
	// Holding our own registration for SIGINT keeps the runtime's default
	// kill-the-process action disabled even after dispatch deregisters its
	// handler, so a late-delivered signal cannot take the test binary down.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, os.Interrupt)
	defer signal.Stop(guard)

	cacheDir := t.TempDir()
	var out bytes.Buffer
	errBuf := &syncBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- dispatch([]string{"serve", "-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-q"}, &out, errBuf)
	}()
	waitListen(t, errBuf)

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("SIGINT-stopped daemon exited %d, want 0:\n%s", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon ignored SIGINT")
	}
	if !strings.Contains(errBuf.String(), "sweep state persisted for resume") {
		t.Errorf("shutdown line missing:\n%s", errBuf.String())
	}
}

// slowCLISpec takes ~0.5s/cell over 8 cells: no cell can finish inside an
// already-expired timeout.
const slowCLISpec = `{
  "name": "cli-slow",
  "horizon_s": 36000,
  "machines": {"classes": [{"class": "workstation", "count": 8, "speed": {"dist": "fixed", "value": 1}}]},
  "workload": {"tasks": 3000, "work": {"dist": "uniform", "min": 20, "max": 60}},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none", "suspend"]},
  "runs": 4,
  "seed": 7
}
`

// TestAbortedSweepFlushesObsArtifacts pins the interrupted-sweep
// accountability contract: when the context dies mid-sweep (a 1ns timeout
// here, spent before the first cell can finish, so the abort does not
// depend on host speed; SIGINT exercises the same path), no report exists,
// but cache_stats.json still lands in -out so the aborted run's cache
// traffic is on record next to the cells the store retained for resume.
func TestAbortedSweepFlushesObsArtifacts(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "slow.json")
	if err := os.WriteFile(spec, []byte(slowCLISpec), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	outDir := filepath.Join(t.TempDir(), "out")
	code, _, errOut := runCLI(t, "-spec", spec, "-cache-dir", cacheDir, "-out", outDir, "-timeout", "1ns", "-q")
	if _, err := os.Stat(filepath.Join(outDir, "report.json")); err == nil {
		t.Fatalf("sweep under an expired timeout wrote a report (exit %d)", code)
	}
	if code != 1 {
		t.Fatalf("timed-out sweep exited %d, want 1:\n%s", code, errOut)
	}
	if _, err := os.Stat(filepath.Join(outDir, cacheStatsFile)); err != nil {
		t.Errorf("aborted sweep left no %s: %v\nstderr:\n%s", cacheStatsFile, err, errOut)
	}
	if !cacheStats.MatchString(errOut) {
		t.Errorf("aborted sweep printed no cache stats line:\n%s", errOut)
	}
}
