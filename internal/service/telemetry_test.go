package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atgpu/internal/obs"
)

// tsGet fetches one path from the test daemon and returns the response
// plus its fully-read body.
func tsGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// postJob submits one request with wait=true and returns the terminal job.
func postJob(t *testing.T, ts *httptest.Server, req Request) Job {
	t.Helper()
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d %s", resp.StatusCode, data)
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("job decode: %v (%s)", err, data)
	}
	return job
}

// TestTelemetryEndpoints drives a little traffic and checks every
// telemetry surface: /metrics parses under the strict exposition
// parser and carries the expected families, /metrics.json is a valid
// JSON export of the same snapshot, /tracez is
// a Perfetto document covering the jobs, and every response carries a
// fresh X-Request-ID.
func TestTelemetryEndpoints(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := postJob(t, ts, Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"})
	postJob(t, ts, Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"}) // cache hit

	resp, body := tsGet(t, ts, "/metrics")
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	exp, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	for _, family := range []string{
		MetricJobsTotal, MetricJobsInflight, MetricQueueDepth, MetricQueueCapacity,
		MetricQueueWaitNs, MetricJobDurationNs, MetricExecNs,
		MetricCacheHitsTotal, MetricCacheMissesTotal, MetricCacheEntries,
		MetricHTTPTotal, MetricHTTPNs, MetricDraining, MetricUptimeSeconds,
	} {
		f := exp.Family(family)
		if f == nil {
			t.Errorf("family %s missing from /metrics", family)
			continue
		}
		if f.Help == "" || f.Help == "No help registered." {
			t.Errorf("family %s lacks real HELP text", family)
		}
	}
	if v, ok := exp.Value(obs.Name(MetricJobsTotal,
		obs.Label{Key: "kind", Value: "run"},
		obs.Label{Key: "state", Value: "success"})); !ok || v < 2 {
		t.Errorf("jobs_total{kind=run,state=success} = %v ok=%v, want >= 2", v, ok)
	}
	if hits, ok := exp.CounterTotal(MetricCacheHitsTotal); !ok || hits < 1 {
		t.Errorf("cache hits = %v ok=%v, want >= 1", hits, ok)
	}

	// JSON export: the same snapshot shape internal/obs reads back.
	if resp, body := tsGet(t, ts, "/metrics.json"); resp.StatusCode != 200 || !json.Valid(body) {
		t.Errorf("/metrics.json = %d valid=%v", resp.StatusCode, json.Valid(body))
	}

	// /tracez: a Perfetto document whose events cover the jobs run above.
	_, tz := tsGet(t, ts, "/tracez")
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tz, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("/tracez malformed: err=%v %.200s", err, tz)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if strings.Contains(ev.Name, job.ID) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("/tracez has no events for job %s", job.ID)
	}

	// Request IDs: present and distinct per request.
	r1, _ := tsGet(t, ts, "/healthz")
	r2, _ := tsGet(t, ts, "/healthz")
	id1, id2 := r1.Header.Get("X-Request-ID"), r2.Header.Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("request IDs = %q, %q — want distinct non-empty", id1, id2)
	}
}

// TestDaemonArtifactsByteIdentical is the per-job half of the telemetry
// acceptance gate: the trace and metrics documents the daemon serves for
// a job — fresh, cache-hit, healthy or fault-injected — are byte-for-byte
// what a standalone executor produces for the same request, because both
// are stamped in simulated time only.
func TestDaemonArtifactsByteIdentical(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, raw := range []Request{
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 5, Trace: true, Metrics: true},
		{Kind: "run", Workload: "reduce", N: 256, Device: "tiny", Seed: 3,
			FaultRate: 0.05, FaultSeed: 11, Trace: true, Metrics: true},
		{Kind: "sweep", Workload: "vecadd", Device: "tiny", Sizes: []int{32, 64}, Trace: true, Metrics: true},
	} {
		fresh := postJob(t, ts, raw)
		if fresh.State != StateSuccess {
			t.Fatalf("%s %s: job = %s err=%q", raw.Kind, raw.Workload, fresh.State, fresh.Error)
		}
		if fresh.CacheHit {
			t.Fatalf("%s %s: first submission was a cache hit", raw.Kind, raw.Workload)
		}

		fetch := func(id, what string, wantCache string) []byte {
			t.Helper()
			resp, body := tsGet(t, ts, "/v1/jobs/"+id+"/"+what)
			if resp.StatusCode != 200 {
				t.Fatalf("%s for %s = %d %s", what, id, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cache"); got != wantCache {
				t.Errorf("%s for %s: X-Cache = %q, want %q", what, id, got, wantCache)
			}
			return body
		}
		freshTrace := fetch(fresh.ID, "trace", "miss")
		freshMetrics := fetch(fresh.ID, "metrics", "miss")

		// A standalone executor, fresh calibrations, same request.
		norm, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		art, err := NewExecutor().Execute(context.Background(), norm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(freshTrace, art.Trace) {
			t.Errorf("%s %s: daemon trace differs from standalone run", raw.Kind, raw.Workload)
		}
		if !bytes.Equal(freshMetrics, art.Metrics) {
			t.Errorf("%s %s: daemon metrics differ from standalone run", raw.Kind, raw.Workload)
		}

		// Cache-hit resubmission serves the identical bytes.
		hit := postJob(t, ts, raw)
		if !hit.CacheHit {
			t.Fatalf("%s %s: resubmission missed the cache", raw.Kind, raw.Workload)
		}
		if got := fetch(hit.ID, "trace", "hit"); !bytes.Equal(got, freshTrace) {
			t.Errorf("%s %s: cache-hit trace differs", raw.Kind, raw.Workload)
		}
		if got := fetch(hit.ID, "metrics", "hit"); !bytes.Equal(got, freshMetrics) {
			t.Errorf("%s %s: cache-hit metrics differ", raw.Kind, raw.Workload)
		}

		// The trace is a Perfetto document; the metrics parse strictly.
		if !json.Valid(freshTrace) {
			t.Errorf("%s %s: trace is not JSON", raw.Kind, raw.Workload)
		}
		if _, err := obs.ParsePrometheus(bytes.NewReader(freshMetrics)); err != nil {
			t.Errorf("%s %s: job metrics do not parse: %v", raw.Kind, raw.Workload, err)
		}
	}

	// A job that did not opt in has no artifacts to serve.
	plain := postJob(t, ts, Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 77})
	if resp, _ := tsGet(t, ts, "/v1/jobs/"+plain.ID+"/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace for opt-out job = %d, want 404", resp.StatusCode)
	}
}

// TestErrorResponsesAreJSON audits the error paths: every non-2xx answer
// — including the mux's own 404/405 — is a JSON envelope carrying the
// request ID from X-Request-ID, and backpressure answers always carry
// Retry-After.
func TestErrorResponsesAreJSON(t *testing.T) {
	s := newIdleServer(ServerConfig{QueueSize: 1, PerClient: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Fill the queue so the next submission is pushed back with 429.
	first := do(http.MethodPost, "/v1/jobs", `{"kind":"run","workload":"vecadd","n":64,"device":"tiny"}`)
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill = %d", first.StatusCode)
	}
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		retryAfter bool
	}{
		{"mux 404", http.MethodGet, "/no/such/route", "", http.StatusNotFound, false},
		{"mux 405", http.MethodDelete, "/metrics", "", http.StatusMethodNotAllowed, false},
		{"bad body", http.MethodPost, "/v1/jobs", `{"kind":`, http.StatusBadRequest, false},
		{"bad request", http.MethodPost, "/v1/jobs", `{"kind":"warp"}`, http.StatusBadRequest, false},
		{"unknown job", http.MethodGet, "/v1/jobs/j-424242", "", http.StatusNotFound, false},
		{"unknown artifact", http.MethodGet, "/v1/jobs/j-424242/trace", "", http.StatusNotFound, false},
		{"queue full", http.MethodPost, "/v1/jobs", `{"kind":"run","workload":"vecadd","n":64,"device":"tiny","seed":9}`, http.StatusTooManyRequests, true},
		{"not ready", http.MethodGet, "/readyz", "", http.StatusServiceUnavailable, true},
	}
	for _, tc := range cases {
		if tc.name == "not ready" {
			// Drain mode makes /readyz (and submissions) answer 503; flip
			// it only once the backpressure cases have run.
			s.mu.Lock()
			s.draining = true
			s.mu.Unlock()
		}
		resp := do(tc.method, tc.path, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: Content-Type = %q, want JSON", tc.name, ct)
		}
		var envelope struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
			t.Errorf("%s: body is not the error envelope: %v (%s)", tc.name, err, body)
			continue
		}
		if want := resp.Header.Get("X-Request-ID"); want == "" || envelope.RequestID != want {
			t.Errorf("%s: request_id = %q, header = %q", tc.name, envelope.RequestID, want)
		}
		if tc.retryAfter && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: missing Retry-After", tc.name)
		}
	}
}

// TestTracezTimelineShape checks the wall-clock timeline against the
// manifest: every terminal job appears with its queue span and, once it
// ran, a span on its worker's track.
func TestTracezTimelineShape(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	postJobDirect := func(req Request) Job {
		t.Helper()
		job, err := s.Submit("t", req)
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, s, job.ID)
	}
	ran := postJobDirect(Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 1})

	var buf bytes.Buffer
	if err := s.writeTracez(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("tracez: %v", err)
	}
	var queued, running, terminal bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == ran.ID+" queued":
			queued = true
		case ev.Name == ran.ID+" run":
			running = true
		case ev.Name == ran.ID+" "+string(StateSuccess):
			terminal = true
			if ev.Args["state"] != "success" {
				t.Errorf("terminal instant args = %v", ev.Args)
			}
		}
	}
	if !queued || !running || !terminal {
		t.Errorf("tracez coverage: queued=%v running=%v terminal=%v", queued, running, terminal)
	}
}

// TestMetricsSnapshotQuiesces: after a drain, the live gauges all read
// zero — nothing in flight, nothing queued, nothing left to drain.
func TestMetricsSnapshotQuiesces(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	job, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsSnapshot()
	for _, gauge := range []string{
		MetricJobsInflight, MetricQueueDepth, MetricPointsInflight, MetricDrainRemaining,
	} {
		if v := snap.Gauges[gauge]; v != 0 {
			t.Errorf("%s = %v after drain, want 0", gauge, v)
		}
	}
	if snap.Gauges[MetricDraining] != 1 {
		t.Errorf("draining gauge = %v after shutdown, want 1", snap.Gauges[MetricDraining])
	}
	if snap.Counters[obs.Name(MetricJobsTotal,
		obs.Label{Key: "kind", Value: "run"},
		obs.Label{Key: "state", Value: "success"})] < 1 {
		t.Error("success transition not counted")
	}
}
