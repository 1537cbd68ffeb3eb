package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atgpu/internal/results"
)

// newTestServer starts a full daemon core (workers running) and tears it
// down with the test.
func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Warm == nil {
		cfg.Warm = []string{"tiny"}
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) // double-shutdown from tests that shut down themselves is reported, not fatal
	})
	return s
}

// newIdleServer builds the daemon core with no workers: jobs queue and
// never start, which makes admission behaviour fully deterministic.
func newIdleServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		manifest: NewManifest(),
		cache:    NewCache(cfg.CacheEntries),
		exec:     NewExecutor(),
		queue:    make(chan queuedJob, cfg.QueueSize),
		tel:      newTelemetry(nil, 0),
	}
	s.manifest.SetObserver(s.tel.onTransition)
	s.exec.Sched = s.tel
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	return s
}

func waitTerminal(t *testing.T, s *Server, id string) Job {
	t.Helper()
	select {
	case <-s.manifest.Done(id):
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", id)
	}
	job, ok := s.manifest.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return job
}

func TestServerRunJobSuccess(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	job, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateSuccess || final.CacheHit {
		t.Fatalf("job = state=%s cachehit=%v err=%q", final.State, final.CacheHit, final.Error)
	}
	if final.Worker < 0 || final.Started.IsZero() || final.Finished.IsZero() {
		t.Fatalf("lifecycle stamps missing: %+v", final)
	}
	var doc Result
	if err := json.Unmarshal(final.Result, &doc); err != nil || doc.Point == nil || doc.Point.N != 64 {
		t.Fatalf("result doc = %s (err %v)", final.Result, err)
	}
	states := []State{}
	for _, ev := range final.Events {
		if ev.State != "" {
			states = append(states, ev.State)
		}
	}
	want := []State{StatePending, StateRunning, StateSuccess}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("event states = %v, want %v", states, want)
	}
}

// TestServerCacheIdentity is the tentpole acceptance: a cache hit must
// be byte-identical to a fresh simulation, including under injected
// faults.
func TestServerCacheIdentity(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	req := Request{Kind: "run", Workload: "reduce", N: 512, Device: "tiny",
		Seed: 7, FaultRate: 0.05, FaultSeed: 13}

	first, err := s.Submit("t", req)
	if err != nil {
		t.Fatal(err)
	}
	a := waitTerminal(t, s, first.ID)
	if a.State != StateSuccess || a.CacheHit {
		t.Fatalf("fresh job = %s cachehit=%v err=%q", a.State, a.CacheHit, a.Error)
	}

	second, err := s.Submit("t", req)
	if err != nil {
		t.Fatal(err)
	}
	b := waitTerminal(t, s, second.ID)
	if b.State != StateSuccess || !b.CacheHit {
		t.Fatalf("repeat job = %s cachehit=%v", b.State, b.CacheHit)
	}

	bypassReq := req
	bypassReq.NoCache = true
	third, err := s.Submit("t", bypassReq)
	if err != nil {
		t.Fatal(err)
	}
	c := waitTerminal(t, s, third.ID)
	if c.State != StateSuccess || c.CacheHit {
		t.Fatalf("no-cache job = %s cachehit=%v", c.State, c.CacheHit)
	}

	if !bytes.Equal(a.Result, b.Result) {
		t.Errorf("cache hit differs from the fresh run:\n%s\nvs\n%s", a.Result, b.Result)
	}
	if !bytes.Equal(a.Result, c.Result) {
		t.Errorf("cache-bypassed rerun differs from the original:\n%s\nvs\n%s", a.Result, c.Result)
	}
	if st := s.cache.Stats(); st.Hits+st.Coalesced < 1 {
		t.Errorf("cache stats = %+v, want the repeat served by the cache", st)
	}
}

func TestServerExecutorErrorFailsJob(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 1})
	// vecadd n too large for tiny's 4096-word global memory: a real
	// executor error, surfaced as a failed job — not a dead worker.
	job, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 4000,
		Device: "tiny", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "exceeds") {
		t.Fatalf("job = %s err=%q", final.State, final.Error)
	}
	// The worker survived: the next job still runs.
	ok, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, ok.ID); final.State != StateSuccess {
		t.Fatalf("follow-up job = %s err=%q", final.State, final.Error)
	}
}

func TestServerTimeoutState(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 1, Warm: []string{"gtx650"}})
	// A reduce over 2^22 words on the gtx650 simulator takes far longer
	// than 1 ms, so the deadline always wins.
	job, err := s.Submit("t", Request{Kind: "run", Workload: "reduce", N: 1 << 22,
		TimeoutMs: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateTimeout || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("job = %s err=%q", final.State, final.Error)
	}
}

func TestServerCancelRunning(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 1, Warm: []string{"gtx650"}})
	job, err := s.Submit("t", Request{Kind: "run", Workload: "reduce", N: 1 << 22,
		NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := s.manifest.Get(job.ID)
		if j.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", j.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := s.manifest.RequestCancel(job.ID, "cancelled by client"); !ok {
		t.Fatal("cancel refused")
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateCancelled || final.Error != "cancelled by client" {
		t.Fatalf("job = %s err=%q", final.State, final.Error)
	}
}

// TestServerPanicBecomesFailedJob injects a panic into the execution
// path and asserts the contract: the job fails with the stack attached,
// the worker survives and keeps serving.
func TestServerPanicBecomesFailedJob(t *testing.T) {
	const marker = int64(424242)
	hook := func(req Request) {
		if req.Seed == marker {
			panic("injected service crash")
		}
	}
	testExecHook.Store(&hook)
	t.Cleanup(func() { testExecHook.Store(nil) })
	s := newTestServer(t, ServerConfig{Workers: 1})

	job, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 64,
		Device: "tiny", Seed: marker, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, job.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "injected service crash") {
		t.Fatalf("panicked job = %s err=%q", final.State, final.Error)
	}
	if !strings.Contains(final.Stack, "goroutine") {
		t.Fatalf("stack not attached: %q", final.Stack)
	}

	// The worker is still alive: an untainted job runs to success.
	ok, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, ok.ID); final.State != StateSuccess {
		t.Fatalf("follow-up job = %s err=%q", final.State, final.Error)
	}

	s.failNonTerminal(ok.ID, "late panic", "stack") // must be a no-op on terminal jobs
	if again, _ := s.manifest.Get(ok.ID); again.State != StateSuccess {
		t.Fatalf("failNonTerminal overwrote a terminal job: %s", again.State)
	}
}

func TestServerBackpressure(t *testing.T) {
	s := newIdleServer(ServerConfig{QueueSize: 2, PerClient: -1})
	if _, err := s.Submit("c", testRequest()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("c", testRequest()); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit("c", testRequest())
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Status != http.StatusTooManyRequests || !adm.Retry {
		t.Fatalf("overflow submit: %v", err)
	}
	if ready, why := s.Ready(); ready {
		t.Fatalf("full queue reported ready (%s)", why)
	}
	if st := s.Stats(); st.Rejected != 1 || st.QueueDepth != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerPerClientCap(t *testing.T) {
	s := newIdleServer(ServerConfig{QueueSize: 64, PerClient: 2})
	s.Submit("greedy", testRequest())
	s.Submit("greedy", testRequest())
	_, err := s.Submit("greedy", testRequest())
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Status != http.StatusTooManyRequests {
		t.Fatalf("capped submit: %v", err)
	}
	if _, err := s.Submit("patient", testRequest()); err != nil {
		t.Fatalf("other client blocked by greedy's cap: %v", err)
	}
	// Cancelling one of greedy's queued jobs frees exactly one slot.
	first := s.manifest.List()[0]
	if st, _ := s.manifest.RequestCancel(first.ID, "test"); st != StateCancelled {
		t.Fatalf("cancel of a queued job left it %s", st)
	}
	if _, err := s.Submit("greedy", testRequest()); err != nil {
		t.Fatalf("submit after a cancel freed a slot: %v", err)
	}
	if _, err := s.Submit("greedy", testRequest()); !errors.As(err, &adm) || adm.Status != http.StatusTooManyRequests {
		t.Fatalf("submit past the cap again: %v", err)
	}
}

func TestServerBadRequestRejectedAtAdmission(t *testing.T) {
	s := newIdleServer(ServerConfig{})
	for _, req := range []Request{
		{Kind: "nope", Workload: "vecadd", N: 8},
		{Kind: "run", Workload: "matmul", N: 37, Device: "tiny"}, // CacheKey-level validation
	} {
		_, err := s.Submit("c", req)
		var adm *AdmissionError
		if !errors.As(err, &adm) || adm.Status != http.StatusBadRequest {
			t.Errorf("bad request %+v: %v", req, err)
		}
	}
	if got := len(s.manifest.List()); got != 0 {
		t.Fatalf("%d jobs admitted from invalid requests", got)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	s := newTestServer(t, ServerConfig{Workers: 2, ManifestPath: path,
		DrainTimeout: 30 * time.Second})
	var ids []string
	for i := 0; i < 8; i++ {
		job, err := s.Submit("t", Request{Kind: "run", Workload: "vecadd",
			N: 64 + i, Device: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if leaked := s.manifest.NonTerminal(); len(leaked) != 0 {
		t.Fatalf("non-terminal jobs after shutdown: %v", leaked)
	}
	for _, id := range ids {
		j, _ := s.manifest.Get(id)
		if j.State != StateSuccess && j.State != StateCancelled {
			t.Errorf("job %s ended %s (%s)", id, j.State, j.Error)
		}
	}
	snap, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("persisted manifest unreadable: %v", err)
	}
	if len(snap.Jobs) != len(ids) {
		t.Fatalf("persisted %d jobs, want %d", len(snap.Jobs), len(ids))
	}
	// Submissions after shutdown are refused.
	_, err = s.Submit("t", testRequest())
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: %v", err)
	}
}

func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, ServerConfig{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	if resp, body := get("/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/jobs/j-999999"); resp.StatusCode != 404 {
		t.Fatalf("unknown job = %d", resp.StatusCode)
	}

	// Submit with wait: one round trip to a terminal job.
	reqBody := `{"kind":"run","workload":"vecadd","n":64,"device":"tiny","wait":true}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("wait submit = %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil || job.State != StateSuccess {
		t.Fatalf("waited job = %+v (err %v)", job, err)
	}

	// Result endpoint: fresh = miss, repeat = hit, raw bytes identical.
	fresh, freshBody := get("/v1/jobs/" + job.ID + "/result")
	if fresh.StatusCode != 200 || fresh.Header.Get("X-Cache") != "miss" || !json.Valid(freshBody) {
		t.Fatalf("result = %d X-Cache=%q", fresh.StatusCode, fresh.Header.Get("X-Cache"))
	}
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var job2 Job
	json.Unmarshal(body2, &job2)
	if rresp, rbody := get("/v1/jobs/" + job2.ID + "/result"); rresp.Header.Get("X-Cache") != "hit" ||
		!bytes.Equal(rbody, freshBody) {
		t.Fatalf("repeat result: X-Cache=%q identical=%v",
			rresp.Header.Get("X-Cache"), bytes.Equal(rbody, freshBody))
	}

	// Events, list, stats.
	if resp, body := get("/v1/jobs/" + job.ID + "/events"); resp.StatusCode != 200 ||
		!strings.Contains(string(body), "running") {
		t.Fatalf("events = %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/v1/jobs"); resp.StatusCode != 200 ||
		!strings.Contains(string(body), job.ID) {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var stats ServerStats
	if _, body := get("/v1/stats"); json.Unmarshal(body, &stats) != nil ||
		stats.States[StateSuccess] < 2 {
		t.Fatalf("stats = %s", body)
	}

	// Malformed submissions: 400, not a manifest entry.
	for _, bad := range []string{`{"kind":`, `{"kind":"run","workload":"vecadd","n":64,"bogus":1}`, `{"kind":"warp"}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad body %q = %d", bad, resp.StatusCode)
		}
	}

	// DELETE on a terminal job is a no-op answer, not an error.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("delete terminal job = %d", dresp.StatusCode)
	}
}

// TestServerResultStore: with ResultsPath configured, every successful
// job's canonical records land in the store stamped with the job ID —
// cache hits included — and the store survives daemon shutdown.
func TestServerResultStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s := newTestServer(t, ServerConfig{Workers: 2, ResultsPath: path})
	req := Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny"}

	first, err := s.Submit("t", req)
	if err != nil {
		t.Fatal(err)
	}
	a := waitTerminal(t, s, first.ID)
	second, err := s.Submit("t", req)
	if err != nil {
		t.Fatal(err)
	}
	b := waitTerminal(t, s, second.ID)
	if a.State != StateSuccess || b.State != StateSuccess || !b.CacheHit {
		t.Fatalf("jobs = %s/%s cachehit=%v", a.State, b.State, b.CacheHit)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	store, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 2 {
		t.Fatalf("store has %d entries, want 2 (fresh + cache hit)", store.Len())
	}
	for i, id := range []string{a.ID, b.ID} {
		entry, ok := store.Latest(results.Filter{Run: id})
		if !ok {
			t.Fatalf("no stored record for job %s", id)
		}
		rec := entry.Record
		if rec.Kind != "run" || rec.Workload != "vecadd" || rec.N != 64 {
			t.Fatalf("record %d = kind=%q workload=%q n=%d", i, rec.Kind, rec.Workload, rec.N)
		}
		if rec.Machine == nil || rec.Machine.Device.Name == "" {
			t.Fatalf("record %d missing machine identity: %+v", i, rec)
		}
		if entry.Env == nil || entry.Env.Note != "job "+id {
			t.Fatalf("record %d envelope = %+v, want job note", i, entry.Env)
		}
	}
	// The two jobs produced the same simulation: identical record bodies,
	// distinguished only by the Run stamp and envelope.
	ea, _ := store.Latest(results.Filter{Run: a.ID})
	eb, _ := store.Latest(results.Filter{Run: b.ID})
	ea.Record.Run, eb.Record.Run = "", ""
	ja, _ := json.Marshal(ea.Record)
	jb, _ := json.Marshal(eb.Record)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("fresh vs cached record bodies differ:\n%s\nvs\n%s", ja, jb)
	}
}
