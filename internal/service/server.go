package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/sched"
)

// ServerConfig sizes the daemon's robustness envelope.
type ServerConfig struct {
	// Workers is the job worker pool size (default 4).
	Workers int
	// QueueSize bounds the admission queue; a full queue answers 429
	// (default 64).
	QueueSize int
	// PerClient caps one client's non-terminal jobs (default 16;
	// negative disables the cap).
	PerClient int
	// DefaultTimeout bounds jobs that do not set timeout_ms
	// (default 2 minutes).
	DefaultTimeout time.Duration
	// DrainTimeout is how long graceful shutdown waits for running jobs
	// before cancelling them (default 10 seconds).
	DrainTimeout time.Duration
	// ManifestPath, when set, receives the persisted manifest on
	// shutdown.
	ManifestPath string
	// ResultsPath, when set, opens the canonical result store there:
	// every successful job's records are appended, stamped with the job
	// ID, so the daemon's history is queryable with `atgpu results`.
	ResultsPath string
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// Warm lists device presets to pre-calibrate at boot.
	Warm []string
	// LogWriter receives the structured (JSON) log stream; nil discards
	// it. The daemon binary points this at stderr.
	LogWriter io.Writer
	// TraceRing bounds how many completed jobs' trace/metrics artifact
	// sets are retained for GET /v1/jobs/{id}/trace (default 256).
	TraceRing int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.PerClient == 0 {
		c.PerClient = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	return c
}

// Server is the atgpud daemon core: manifest, cache, executor, worker
// pool and the HTTP API over them. Create with NewServer, serve
// Handler(), stop with Shutdown.
type Server struct {
	cfg      ServerConfig
	manifest *Manifest
	cache    *Cache
	exec     *Executor
	store    *results.Store
	git      string

	// mu guards draining and serialises queue sends, so the
	// length-check-then-send admission is race-free (workers only ever
	// receive).
	mu       sync.Mutex
	draining bool
	rejected int64

	queue   chan string
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// tel is the wall-clock telemetry plane: operational metrics,
	// structured logs, request IDs and the per-job artifact ring.
	tel *Telemetry
}

// NewServer builds the daemon core: it pre-calibrates the Warm presets
// and starts the worker pool. The caller owns serving Handler() and
// calling Shutdown.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		manifest: NewManifest(),
		cache:    NewCache(cfg.CacheEntries),
		exec:     NewExecutor(),
		queue:    make(chan string, cfg.QueueSize),
		tel:      newTelemetry(cfg.LogWriter, cfg.TraceRing),
	}
	s.manifest.SetObserver(s.tel.onTransition)
	s.exec.Sched = s.tel
	if err := s.exec.Warm(cfg.Warm...); err != nil {
		return nil, err
	}
	if cfg.ResultsPath != "" {
		store, err := results.Open(cfg.ResultsPath)
		if err != nil {
			return nil, fmt.Errorf("service: open result store: %w", err)
		}
		s.store = store
		s.git = results.GitDescribe("")
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func(id int) {
			defer s.wg.Done()
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case jobID, ok := <-s.queue:
					if !ok {
						return
					}
					// Protect keeps the worker alive across service
					// bugs; job panics are recovered deeper (on the
					// exec goroutine) and recorded on the job itself.
					// A panic that does land here still must not leak
					// the job in a non-terminal state.
					if err := sched.Protect(func() error {
						s.runJob(id, jobID)
						return nil
					}); err != nil {
						var pe *sched.PanicError
						if errors.As(err, &pe) {
							s.failNonTerminal(jobID, "worker panic: "+pe.Error(), string(pe.Stack))
						}
					}
				}
			}
		}(w)
	}
	return s, nil
}

// Manifest exposes the job table (for tests and the daemon binary).
func (s *Server) Manifest() *Manifest { return s.manifest }

// Telemetry exposes the telemetry plane (for the daemon binary's
// logger and for tests).
func (s *Server) Telemetry() *Telemetry { return s.tel }

// failNonTerminal forces a job to failed unless it already finished —
// the backstop that keeps even a buggy worker from leaking a running
// job.
func (s *Server) failNonTerminal(id, msg, stack string) {
	if j, ok := s.manifest.Get(id); ok && !j.State.Terminal() {
		s.manifest.finish(id, StateFailed, msg, stack, nil, false)
	}
}

// testExecHook, when non-nil, runs on the exec goroutine before a job
// executes — tests use it to inject panics into the execution path and
// prove they surface as failed manifest entries, not dead workers. Atomic
// because workers from an earlier test's still-draining server may read it
// while the next test installs its hook.
var testExecHook atomic.Pointer[func(Request)]

// jobOutcome is what the exec goroutine hands back to its worker.
type jobOutcome struct {
	art *Artifacts
	hit bool
	err error
}

// runJob executes one queued job end to end: transition to running,
// execute under the job deadline with panic recovery, record the
// terminal state. The execution runs on a child goroutine so an expired
// deadline releases the worker immediately; the detached child stops at
// the next point boundary (the runner watches the same context) and its
// result is discarded.
func (s *Server) runJob(worker int, id string) {
	job, ok := s.manifest.Get(id)
	if !ok {
		return
	}
	timeout := s.cfg.DefaultTimeout
	if job.Request.TimeoutMs > 0 {
		timeout = time.Duration(job.Request.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	if !s.manifest.start(id, worker, cancel) {
		// Cancelled while queued; already terminal.
		return
	}

	ch := make(chan jobOutcome, 1)
	go func() {
		var out jobOutcome
		execStart := time.Now()
		out.err = sched.Protect(func() error {
			if hook := testExecHook.Load(); hook != nil {
				(*hook)(job.Request)
			}
			var err error
			out.art, out.hit, err = s.execute(ctx, job.Request)
			return err
		})
		s.tel.reg.Observe(obs.Name(MetricExecNs,
			obs.Label{Key: "kind", Value: job.Request.Kind}), time.Since(execStart))
		ch <- out
	}()

	select {
	case out := <-ch:
		s.record(id, ctx, out)
	case <-ctx.Done():
		s.record(id, ctx, jobOutcome{err: ctx.Err()})
	}
}

// execute resolves a job through the cache (unless bypassed).
func (s *Server) execute(ctx context.Context, req Request) (*Artifacts, bool, error) {
	if req.NoCache {
		art, err := s.exec.Execute(ctx, req)
		return art, false, err
	}
	key, err := req.CacheKey()
	if err != nil {
		return nil, false, err
	}
	return s.cache.Do(ctx, key, func() (*Artifacts, error) {
		return s.exec.Execute(ctx, req)
	})
}

// record maps an execution outcome onto the job's terminal state:
// success, failed (with stack for panics), or — for interrupted work —
// cancelled when the stop was asked for (client cancel or shutdown) and
// timeout when the deadline expired on its own. First transition wins,
// so a job whose natural completion races its cancellation stays
// consistent.
func (s *Server) record(id string, ctx context.Context, out jobOutcome) {
	var pe *sched.PanicError
	switch {
	case out.err == nil:
		job, _ := s.manifest.Get(id)
		if out.art != nil && (job.Request.Trace || job.Request.Metrics) {
			// Retain the artifact set — cache hits share the leader's
			// immutable *Artifacts, preserving byte-identity.
			s.tel.ring.Put(id, out.art)
		}
		s.manifest.finish(id, StateSuccess, "", "", out.art.Result, out.hit)
		s.persistRecords(id, out.art.Result)
	case errors.As(out.err, &pe):
		s.manifest.finish(id, StateFailed, pe.Error(), string(pe.Stack), nil, false)
	case errors.Is(out.err, experiments.ErrCancelled),
		errors.Is(out.err, context.Canceled),
		errors.Is(out.err, context.DeadlineExceeded):
		switch {
		case s.manifest.cancelRequestedFor(id):
			s.manifest.finish(id, StateCancelled, "cancelled by client", "", nil, false)
		case s.baseCtx.Err() != nil:
			s.manifest.finish(id, StateCancelled, "daemon shutting down", "", nil, false)
		default:
			s.manifest.finish(id, StateTimeout,
				fmt.Sprintf("deadline exceeded: %v", out.err), "", nil, false)
		}
	default:
		s.manifest.finish(id, StateFailed, out.err.Error(), "", nil, false)
	}
}

// persistRecords appends a successful job's canonical records to the
// result store (when configured): the deterministic record body comes
// straight out of the result document — cache hits included — and the
// envelope carries the wall time, host and job ID. Append failures are
// logged on the job's manifest entry as an event, never failed: the
// result itself is already recorded.
func (s *Server) persistRecords(id string, data []byte) {
	if s.store == nil {
		return
	}
	var doc struct {
		Records []results.Record `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Records) == 0 {
		return
	}
	host, _ := os.Hostname()
	env := &results.Env{
		SavedUnix: time.Now().Unix(),
		Host:      host,
		Note:      "job " + id,
	}
	for _, rec := range doc.Records {
		rec.Run = id
		rec.Git = s.git
		if err := s.store.Append(rec, env); err != nil {
			s.manifest.appendEvent(id, "result store append failed: "+err.Error())
			return
		}
	}
}

// Submit admits one job: validation, overload and per-client checks,
// manifest entry, queue. It returns the pending job view, or an
// AdmissionError telling the transport layer which status to answer.
// The job's trace ID is minted at admission; submissions arriving over
// HTTP carry their request ID instead (see handleSubmit).
func (s *Server) Submit(client string, req Request) (Job, error) {
	return s.submitTraced(client, s.tel.nextRequestID(), req)
}

// submitTraced is Submit with an explicit admission-assigned trace ID.
func (s *Server) submitTraced(client, traceID string, req Request) (Job, error) {
	norm, err := req.Normalize()
	if err != nil {
		return Job{}, &AdmissionError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	// Key computation doubles as deep validation (e.g. matmul sizes not
	// divisible by the warp width fail here, before queueing).
	if _, err := norm.CacheKey(); err != nil {
		return Job{}, &AdmissionError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	if s.cfg.PerClient > 0 && s.manifest.InFlight(client) >= s.cfg.PerClient {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		s.tel.rejected("per_client", client)
		return Job{}, &AdmissionError{
			Status: http.StatusTooManyRequests,
			Msg:    fmt.Sprintf("client %q has %d jobs in flight (cap %d)", client, s.cfg.PerClient, s.cfg.PerClient),
			Retry:  true,
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.tel.rejected("draining", client)
		return Job{}, &AdmissionError{Status: http.StatusServiceUnavailable, Msg: "daemon draining", Retry: true}
	}
	if len(s.queue) == cap(s.queue) {
		s.rejected++
		s.mu.Unlock()
		s.tel.rejected("queue_full", client)
		return Job{}, &AdmissionError{Status: http.StatusTooManyRequests, Msg: "admission queue full", Retry: true}
	}
	job := s.manifest.Add(client, traceID, norm)
	// Cannot block: length < capacity above, and every sender holds mu.
	s.queue <- job.ID
	s.mu.Unlock()
	return job, nil
}

// AdmissionError is a rejected submission: an HTTP status, a message,
// and whether the client should retry later (429/503 carry Retry-After).
type AdmissionError struct {
	Status int
	Msg    string
	Retry  bool
}

func (e *AdmissionError) Error() string { return e.Msg }

// Shutdown drains the daemon: admission stops, queued jobs are
// cancelled, running jobs get up to DrainTimeout (bounded further by
// ctx) to finish, stragglers are cancelled, and the manifest is
// persisted when configured. After Shutdown no job is left in a
// non-terminal state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already shut down")
	}
	s.draining = true
	close(s.queue) // safe: senders hold mu and check draining first
	s.mu.Unlock()

	// Queued-but-unstarted jobs are cancelled, racing the workers for
	// the channel; jobs a worker wins are already running and covered by
	// the drain deadline below.
	for id := range s.queue {
		s.manifest.RequestCancel(id, "daemon shutting down")
	}

	deadline := time.NewTimer(s.cfg.DrainTimeout)
	defer deadline.Stop()
	done := waitDone(&s.wg)
	drained := true
	select {
	case <-done:
	case <-deadline.C:
		drained = false
	case <-ctx.Done():
		drained = false
	}
	// Cancel stragglers (no-op when drained: workers already exited).
	s.stop()
	<-done
	// Workers are gone; nothing can transition jobs anymore. Sweep any
	// job the cancel raced past into a terminal state.
	for _, id := range s.manifest.NonTerminal() {
		s.manifest.RequestCancel(id, "daemon shutting down")
		s.failNonTerminal(id, "daemon shutting down", "")
	}

	var err error
	if s.store != nil {
		err = s.store.Close()
	}
	if s.cfg.ManifestPath != "" {
		if serr := s.manifest.Save(s.cfg.ManifestPath); err == nil {
			err = serr
		}
	}
	if !drained && err == nil {
		err = fmt.Errorf("service: drain deadline expired; running jobs were cancelled")
	}
	return err
}

// waitDone adapts a WaitGroup to a channel for use in select.
func waitDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		defer func() {
			// Satisfies the gorecover contract; Wait only panics on
			// WaitGroup misuse, which close(ch) must still survive.
			_ = recover()
		}()
		wg.Wait()
	}()
	return ch
}

// ServerStats is the /v1/stats document.
type ServerStats struct {
	States       map[State]int `json:"states"`
	QueueDepth   int           `json:"queue_depth"`
	QueueCap     int           `json:"queue_cap"`
	Draining     bool          `json:"draining"`
	Rejected     int64         `json:"rejected"`
	NonTerminal  int           `json:"non_terminal"`
	Cache        CacheStats    `json:"cache"`
	Calibrations int           `json:"calibrations"`
}

// Stats snapshots the daemon.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	draining, rejected, depth := s.draining, s.rejected, len(s.queue)
	s.mu.Unlock()
	return ServerStats{
		States:       s.manifest.CountByState(),
		QueueDepth:   depth,
		QueueCap:     s.cfg.QueueSize,
		Draining:     draining,
		Rejected:     rejected,
		NonTerminal:  len(s.manifest.NonTerminal()),
		Cache:        s.cache.Stats(),
		Calibrations: s.exec.CalibrationsWarmed(),
	}
}

// Ready reports whether the daemon should accept new work: not
// draining, and the queue under 80% occupancy (load balancers back off
// on /readyz before hard 429s start).
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, "draining"
	}
	if 5*len(s.queue) >= 4*cap(s.queue) {
		return false, fmt.Sprintf("queue at %d/%d", len(s.queue), cap(s.queue))
	}
	return true, "ok"
}

// handle registers pattern on mux with the route marked for telemetry
// (metrics route label, request log) before the handler runs.
func (s *Server) handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		markRoute(w, pattern)
		h(w, r)
	})
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs              submit (202; ?wait via request field)
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         one job view
//	DELETE /v1/jobs/{id}         request cancellation
//	GET    /v1/jobs/{id}/result  the raw result document (success only)
//	GET    /v1/jobs/{id}/events  the append-only event log
//	GET    /v1/jobs/{id}/trace   the job's simulated-time Perfetto trace
//	GET    /v1/jobs/{id}/metrics the job's simulated-time metrics (Prometheus text)
//	GET    /v1/stats             counters
//	GET    /metrics              operational metrics (Prometheus text exposition)
//	GET    /metrics.json         the same snapshot as JSON
//	GET    /tracez               wall-clock service timeline (Perfetto)
//	GET    /healthz              process liveness (always 200)
//	GET    /readyz               load acceptance (503 when overloaded)
//
// Every request gets an X-Request-ID; every non-2xx response is a JSON
// body carrying it, and 429/503 always carry Retry-After.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "POST /v1/jobs", s.handleSubmit)
	s.handle(mux, "GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.manifest.List())
	})
	s.handle(mux, "GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := s.manifest.Get(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, job)
			return
		}
		httpError(w, r, http.StatusNotFound, "no such job")
	})
	s.handle(mux, "DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := s.manifest.RequestCancel(id, "cancelled by client"); !ok {
			httpError(w, r, http.StatusNotFound, "no such job")
			return
		}
		job, _ := s.manifest.Get(id)
		writeJSON(w, http.StatusOK, job)
	})
	s.handle(mux, "GET /v1/jobs/{id}/result", s.handleResult)
	s.handle(mux, "GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := s.manifest.Get(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, job.Events)
			return
		}
		httpError(w, r, http.StatusNotFound, "no such job")
	})
	s.handle(mux, "GET /v1/jobs/{id}/trace", s.handleJobArtifact(func(a *Artifacts) []byte { return a.Trace }, "trace"))
	s.handle(mux, "GET /v1/jobs/{id}/metrics", s.handleJobArtifact(func(a *Artifacts) []byte { return a.Metrics }, "metrics"))
	s.handle(mux, "GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	s.handle(mux, "GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.MetricsSnapshot().WritePrometheus(w); err != nil {
			s.tel.log.Error("metrics exposition failed", "error", err.Error())
		}
	})
	s.handle(mux, "GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.MetricsSnapshot().WriteJSON(w); err != nil {
			s.tel.log.Error("metrics JSON failed", "error", err.Error())
		}
	})
	s.handle(mux, "GET /tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.writeTracez(w); err != nil {
			s.tel.log.Error("tracez failed", "error", err.Error())
		}
	})
	s.handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.handle(mux, "GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		ready, why := s.Ready()
		if !ready {
			httpError(w, r, http.StatusServiceUnavailable, why)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, why)
	})
	return s.tel.middleware(mux)
}

// handleJobArtifact serves one retained per-job artifact (trace or
// metrics): 404 for unknown jobs or jobs that did not request the
// artifact, 202 while running, 410 when the ring evicted it.
func (s *Server) handleJobArtifact(pick func(*Artifacts) []byte, what string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := s.manifest.Get(id)
		if !ok {
			httpError(w, r, http.StatusNotFound, "no such job")
			return
		}
		wants := job.Request.Trace
		if what == "metrics" {
			wants = job.Request.Metrics
		}
		if !wants {
			httpError(w, r, http.StatusNotFound, "job did not request "+what+" collection")
			return
		}
		if !job.State.Terminal() {
			w.Header().Set("Retry-After", "1")
			httpError(w, r, http.StatusAccepted, "job still "+string(job.State))
			return
		}
		if job.State != StateSuccess {
			httpError(w, r, http.StatusConflict, fmt.Sprintf("job %s: %s", job.State, job.Error))
			return
		}
		art, ok := s.tel.ring.Get(id)
		if !ok {
			httpError(w, r, http.StatusGone, what+" evicted from the trace ring")
			return
		}
		if what == "metrics" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/json")
		}
		if job.CacheHit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Write(pick(art))
	}
}

// handleSubmit decodes, admits and (optionally) waits for one job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The HTTP request ID doubles as the job's trace ID, so one
	// identifier follows the job from admission through the logs.
	job, err := s.submitTraced(clientID(r), requestID(r), req)
	if err != nil {
		var adm *AdmissionError
		if errors.As(err, &adm) {
			if adm.Retry {
				w.Header().Set("Retry-After", "1")
			}
			httpError(w, r, adm.Status, adm.Msg)
			return
		}
		httpError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	select {
	case <-s.manifest.Done(job.ID):
		final, _ := s.manifest.Get(job.ID)
		writeJSON(w, http.StatusOK, final)
	case <-r.Context().Done():
		// Client gave up waiting; the job keeps running.
		httpError(w, r, http.StatusRequestTimeout, "client disconnected while waiting; job "+job.ID+" continues")
	}
}

// handleResult serves a finished job's raw result bytes: exactly what
// the executor produced (or the cache stored — byte-identical by
// contract), with X-Cache reporting which.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manifest.Get(r.PathValue("id"))
	switch {
	case !ok:
		httpError(w, r, http.StatusNotFound, "no such job")
	case !job.State.Terminal():
		w.Header().Set("Retry-After", "1")
		httpError(w, r, http.StatusAccepted, "job still "+string(job.State))
	case job.State != StateSuccess:
		httpError(w, r, http.StatusConflict,
			fmt.Sprintf("job %s: %s", job.State, job.Error))
	default:
		w.Header().Set("Content-Type", "application/json")
		if job.CacheHit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Write(job.Result)
	}
}

// clientID identifies the caller for per-client caps: the X-Client-ID
// header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON writes v as an indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, nil, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// httpError writes the JSON error envelope, always carrying the
// middleware-assigned request ID (r may be nil in internal fallbacks;
// the envelope then reports an empty ID).
func httpError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	id := ""
	if r != nil {
		id = requestID(r)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": %s,\n  \"request_id\": %s\n}\n", strconv.Quote(msg), strconv.Quote(id))
}
