// Command atgpud serves the repo's simulation capabilities — run, sweep,
// pipeline, analyze, lint — as a long-running JSON HTTP API over a pool
// of warmed (pre-calibrated) simulated systems.
//
// Usage:
//
//	atgpud [-addr :8080] [-workers 4] [-queue 64] [-per-client 16]
//	       [-timeout 2m] [-drain 10s] [-cache 256] [-warm gtx650]
//	       [-manifest atgpud-manifest.json] [-results results.jsonl]
//	       [-trace-ring 256] [-pprof-addr ""] [-quiet]
//
// Telemetry: the daemon logs every job transition and HTTP request as
// JSON (log/slog) on stderr, serves wall-clock operational metrics at
// GET /metrics (Prometheus text; /metrics.json for JSON export), an
// aggregate service timeline at GET /tracez (Perfetto), and per-job
// artifacts at GET /v1/jobs/{id}/trace and /v1/jobs/{id}/metrics for jobs
// submitted with "trace"/"metrics" set. -pprof-addr exposes net/http/pprof on a
// separate listener (off by default, never on the API address).
//
// Jobs are tracked in a manifest with an explicit state machine
// (pending → running → success|failed|timeout|cancelled) and an
// append-only event log; every job runs isolated with a deadline and
// panic recovery; admission is bounded (429 + Retry-After under
// overload, 503 on /readyz before that); results are content-addressed
// and cached, so identical requests are served without re-simulation,
// byte-identical to a fresh run. SIGINT/SIGTERM drains gracefully:
// running jobs get -drain to finish, queued jobs are cancelled, and the
// manifest is persisted to -manifest.
//
// See DESIGN.md ("Service & job lifecycle") for the API and README.md
// for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, exposed only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atgpu/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "job worker pool size")
	queue := flag.Int("queue", 64, "admission queue bound (full queue answers 429)")
	perClient := flag.Int("per-client", 16, "max in-flight jobs per client (-1 disables)")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for running jobs")
	cache := flag.Int("cache", 256, "result cache entry bound")
	warm := flag.String("warm", "gtx650", "comma-separated device presets to pre-calibrate at boot")
	manifest := flag.String("manifest", "atgpud-manifest.json", "persist the job manifest here on shutdown (empty disables)")
	resultsPath := flag.String("results", "", "append successful jobs' records to this JSONL result store (empty disables)")
	traceRing := flag.Int("trace-ring", 0, "per-job trace/metrics retention ring size (0 = default 256)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	quiet := flag.Bool("quiet", false, "suppress structured JSON logs on stderr")
	flag.Parse()

	cfg := service.ServerConfig{
		Workers:        *workers,
		QueueSize:      *queue,
		PerClient:      *perClient,
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
		CacheEntries:   *cache,
		ManifestPath:   *manifest,
		ResultsPath:    *resultsPath,
		TraceRing:      *traceRing,
	}
	if !*quiet {
		cfg.LogWriter = os.Stderr
	}
	if *warm != "" {
		cfg.Warm = strings.Split(*warm, ",")
	}
	if err := run(*addr, *pprofAddr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "atgpud: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, pprofAddr string, cfg service.ServerConfig) error {
	svc, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	httpServer := &http.Server{Addr: addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		// pprof is registered on the default mux by its blank import;
		// serve it on its own listener so profiling endpoints never share
		// the API address. Best-effort: a dead pprof listener is logged,
		// not fatal.
		pprofServer := &http.Server{Addr: pprofAddr, Handler: http.DefaultServeMux}
		go func() {
			defer func() {
				if v := recover(); v != nil {
					fmt.Fprintf(os.Stderr, "atgpud: pprof server panic: %v\n", v)
				}
			}()
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "atgpud: pprof listener: %v\n", err)
			}
		}()
		defer pprofServer.Close()
		fmt.Fprintf(os.Stderr, "atgpud: pprof on %s\n", pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() {
		defer func() {
			// The ListenAndServe goroutine only reports; a panic here
			// must not take the daemon down un-drained.
			if v := recover(); v != nil {
				errCh <- fmt.Errorf("http server panic: %v", v)
			}
		}()
		errCh <- httpServer.ListenAndServe()
	}()
	fmt.Fprintf(os.Stderr, "atgpud: serving on %s (workers=%d queue=%d cache=%d warm=%s)\n",
		addr, cfg.Workers, cfg.QueueSize, cfg.CacheEntries, strings.Join(cfg.Warm, ","))

	select {
	case err := <-errCh:
		// Listener died on its own; still drain the jobs we accepted.
		svcErr := svc.Shutdown(context.Background())
		if err != nil {
			return err
		}
		return svcErr
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "atgpud: signal received, draining")

	// Stop accepting connections first, then drain jobs. Each phase gets
	// the drain budget plus slack so a wedged phase cannot hang exit.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), cfg.DrainTimeout+5*time.Second)
	defer cancelHTTP()
	httpErr := httpServer.Shutdown(httpCtx)

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 2*cfg.DrainTimeout+5*time.Second)
	defer cancelDrain()
	svcErr := svc.Shutdown(drainCtx)

	if cfg.ManifestPath != "" {
		fmt.Fprintf(os.Stderr, "atgpud: manifest persisted to %s\n", cfg.ManifestPath)
	}
	if svcErr != nil {
		return svcErr
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	fmt.Fprintln(os.Stderr, "atgpud: drained cleanly")
	return nil
}
