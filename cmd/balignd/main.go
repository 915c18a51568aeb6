// Command balignd serves the branch-alignment engine over HTTP.
//
//	balignd -addr :8347
//	curl -s localhost:8347/v1/align -d '{"bench":"compress","bound":true}'
//
// Endpoints:
//
//	POST /v1/align     align a program (inline Mini-C source or a bundled
//	                   benchmark, optional recorded profile) and return
//	                   per-function layouts with tour/bound statistics
//	GET  /v1/healthz   liveness probe (200 for the process lifetime)
//	GET  /v1/readyz    readiness probe (503 the moment drain begins)
//	GET  /v1/stats     server and engine counters as JSON
//	GET  /metrics      Prometheus text-format exposition of the whole
//	                   metrics plane: HTTP request/latency families,
//	                   engine cache and single-flight counters, solve
//	                   latency by profile mode and cache outcome, worker
//	                   pool gauges
//	GET  /debug/pprof  net/http/pprof profiling (only with -pprof)
//
// Every request gets an ID (returned in X-Request-Id, stamped on its
// solver trace, printed in its JSON access-log line), and every request
// is budgeted: its deadline (timeout_ms, clamped by -max-timeout)
// truncates in-flight solves at their next kick boundary and returns
// the best layout found so far, flagged "truncated" — never an error,
// never an invalid layout. A miss's profiling run is bounded by
// -max-timeout itself; one that hits it, or the interpreter's step or
// array-cell budget, fails with a typed 503, 422 or 413. Excess
// concurrent requests beyond
// -max-inflight are shed with 429. SIGTERM/SIGINT drain the server
// gracefully: /v1/readyz flips to 503 immediately, in-flight requests
// finish, new connections are refused. Lifecycle events are structured
// JSON on stderr, starting with one line echoing the effective config.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "balignd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("balignd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "localhost:8347", "listen address")
		workers     = fs.Int("workers", 0, "max concurrent per-function solves (0 = GOMAXPROCS)")
		parallel    = fs.Int("parallel", 0, "default per-run solver parallelism for requests without one (-1 = all CPUs); results are bit-identical at every setting")
		cacheSize   = fs.Int("cache", 64, "result cache entries, frequency-admitted LRU (0 means 64; negative disables)")
		maxInflight = fs.Int("max-inflight", 8, "max concurrent align requests before shedding 429s")
		defTimeout  = fs.Duration("default-timeout", 30*time.Second, "deadline for requests without timeout_ms")
		maxTimeout  = fs.Duration("max-timeout", 2*time.Minute, "upper clamp on per-request deadlines and on each profiling run")
		drain       = fs.Duration("drain", 30*time.Second, "grace period for in-flight requests on shutdown")
		pprof       = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	)
	fs.Parse(args)

	srv := newServer(serverConfig{
		Workers:        *workers,
		Parallelism:    *parallel,
		CacheEntries:   *cacheSize,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Pprof:          *pprof,
		LogWriter:      os.Stderr,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One structured line echoing the effective configuration, so every
	// deploy is auditable from its logs alone — no guessing which flags
	// a running instance was started with.
	srv.logger.LogAttrs(ctx, slog.LevelInfo, "starting",
		slog.String("addr", *addr),
		slog.Int("workers", srv.eng.Stats().Workers),
		slog.Int("parallelism", *parallel),
		slog.Int("cache_entries", *cacheSize),
		slog.Int("max_inflight", srv.cfg.MaxInflight),
		slog.Duration("default_timeout", srv.cfg.DefaultTimeout),
		slog.Duration("max_timeout", srv.cfg.MaxTimeout),
		slog.Duration("drain", *drain),
		slog.Bool("pprof", *pprof),
	)

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before closing anything: load balancers stop
	// routing to this instance while its in-flight requests complete.
	srv.startDrain()
	srv.logger.LogAttrs(context.Background(), slog.LevelInfo, "drain",
		slog.Duration("grace", *drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.logger.LogAttrs(context.Background(), slog.LevelInfo, "stopped",
		slog.Int64("requests", srv.statsSnapshot().Server.Requests))
	return nil
}
