package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"vce/internal/scenario/service"
)

// Connection limits for the daemon. A client that never finishes its
// request headers, or parks an idle keep-alive connection, is cut off
// instead of holding a file descriptor forever. There is no write timeout:
// GET /sweeps/{id}/events streams for as long as its sweep runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// runServe is the `vcebench serve` subcommand: the long-running sweep
// daemon (internal/scenario/service) over a shared content-addressed
// cache. It listens until the context is cancelled (SIGINT/SIGTERM via
// dispatch), then shuts down gracefully: running sweeps are cancelled and
// persisted as interrupted, so a daemon restarted on the same -cache-dir
// resumes them with the finished cells replayed from the store.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		cacheDir  = fs.String("cache-dir", "", "shared content-addressed result cache + sweep state directory (required)")
		workers   = fs.Int("workers", 0, "per-sweep concurrent (instance, run) jobs (0 = one per CPU)")
		maxSweeps = fs.Int("max-sweeps", 2, "sweeps executing concurrently; further submissions queue")
		quiet     = fs.Bool("q", false, "suppress per-sweep lifecycle log lines")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vcebench serve -cache-dir DIR [-addr HOST:PORT] [-workers N] [-max-sweeps N]\n\nRuns the multi-client sweep service: POST /sweeps accepts spec JSON,\nGET /sweeps/{id}(/events|/report) serves progress and artifacts, and\nevery sweep shares one content-addressed result cache.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *cacheDir == "" {
		fmt.Fprintln(stderr, "vcebench serve: -cache-dir is required")
		fs.Usage()
		return 2
	}
	cfg := service.Config{
		CacheDir:      *cacheDir,
		Workers:       *workers,
		MaxConcurrent: *maxSweeps,
	}
	if !*quiet {
		cfg.Log = log.New(stderr, "", log.LstdFlags)
	}
	svc, err := service.New(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return fail(stderr, err)
	}
	// The resolved address (not the flag) is printed so scripts and tests
	// can use -addr 127.0.0.1:0 and discover the picked port.
	fmt.Fprintf(stderr, "vcebench serve: listening on http://%s (cache %s)\n", ln.Addr(), *cacheDir)
	srv := &http.Server{Handler: svc, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Cancel sweeps first: open event streams end when their sweep
		// reaches a terminal state, which is what lets Shutdown's
		// wait-for-connections complete.
		svc.Close()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
		}
		fmt.Fprintln(stderr, "vcebench serve: interrupted; sweep state persisted for resume")
		return 0
	case err := <-errCh:
		svc.Close()
		return fail(stderr, err)
	}
}
