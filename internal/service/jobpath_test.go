package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"atgpu/internal/results"
)

// TestAdmissionKeyIsTheCacheKey: the key a worker resolves a job under in
// the cache is the normalized request's CacheKey, computed at admission
// and carried on the queue — and it appears in neither the job views nor
// the persisted manifest.
func TestAdmissionKeyIsTheCacheKey(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	s := newTestServer(t, ServerConfig{Workers: 2, ManifestPath: manifest})
	reqs := []Request{
		{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Seed: 3},
		{Kind: "lint", Workload: "reduce", N: 256, Device: "tiny"},
		{Kind: "analyze", Workload: "matmul", N: 8, Device: "tiny"},
		{Kind: "sweep", Workload: "reduce", Sizes: []int{64, 128}, Device: "tiny"},
	}
	want := map[uint64]bool{}
	var keys []uint64
	var views [][]byte
	for _, req := range reqs {
		norm, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := norm.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		want[key] = true
		keys = append(keys, key)
		job, err := s.Submit("t", req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, job.ID)
		if final.State != StateSuccess {
			t.Fatalf("%s %s: state %s (%s)", req.Kind, req.Workload, final.State, final.Error)
		}
		view, err := json.Marshal(final)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view)
	}
	s.cache.mu.Lock()
	got := map[uint64]bool{}
	for key := range s.cache.entries {
		got[key] = true
	}
	s.cache.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("cache holds %d keys, want the %d admission keys", len(got), len(want))
	}
	for key := range want {
		if !got[key] {
			t.Errorf("cache has no entry under admission key %016x", key)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		for _, text := range []string{strconv.FormatUint(key, 10), strconv.FormatUint(key, 16), strconv.FormatInt(int64(key), 10)} {
			if bytes.Contains(saved, []byte(text)) {
				t.Errorf("persisted manifest contains cache key %s", text)
			}
			for _, view := range views {
				if bytes.Contains(view, []byte(text)) {
					t.Errorf("job view contains cache key %s", text)
				}
			}
		}
	}
}

// TestAdmissionRejectsKeyTimeErrors: a request that passes Normalize but
// fails only when its key is computed — matmul with n not a multiple of
// the warp width — is still refused with 400 at admission, directly and
// over HTTP, and never reaches the manifest.
func TestAdmissionRejectsKeyTimeErrors(t *testing.T) {
	s := newIdleServer(ServerConfig{})
	req := Request{Kind: "run", Workload: "matmul", N: 33}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatalf("normalize should accept the request: %v", err)
	}
	if _, err := norm.CacheKey(); err == nil {
		t.Fatal("CacheKey accepted matmul n=33 on a 32-wide warp")
	}
	_, err = s.Submit("t", req)
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Status != http.StatusBadRequest {
		t.Fatalf("Submit = %v, want a 400 admission error", err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","workload":"matmul","n":33}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /v1/jobs = %d, want 400", resp.StatusCode)
	}
	if n := len(s.manifest.List()); n != 0 {
		t.Fatalf("manifest holds %d jobs after rejected submissions", n)
	}
}

// storedLine is one result-store line with its record body kept raw.
type storedLine struct {
	Record json.RawMessage `json:"record"`
	Env    json.RawMessage `json:"env"`
}

// TestPersistedRecordsSkipReparse: the record lines a job appends are the
// executor's records, byte for byte what decoding the job's result
// document and re-encoding it gives; a cache hit appends lines identical
// to its miss's but for the job stamp and envelope; and a job whose result
// has no records (lint) appends nothing.
func TestPersistedRecordsSkipReparse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s := newTestServer(t, ServerConfig{Workers: 2, ResultsPath: path})
	run := Request{Kind: "run", Workload: "vecadd", N: 64, Device: "tiny", Metrics: true}
	reqs := []Request{
		run,
		run, // cache hit
		{Kind: "sweep", Workload: "reduce", Sizes: []int{64, 128}, Device: "tiny", Trace: true},
		{Kind: "pipeline", Workload: "vecadd", Sizes: []int{256}, Chunks: 2, Device: "tiny"},
		{Kind: "analyze", Workload: "reduce", N: 256, Device: "tiny"},
		{Kind: "lint", Workload: "reduce", N: 256, Device: "tiny"},
		{Kind: "run", Workload: "reduce", N: 64, Device: "tiny", FaultRate: 0.5, FaultSeed: 3, MaxRetries: 1},
	}
	var jobs []Job
	for _, req := range reqs {
		job, err := s.Submit("t", req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, job.ID)
		if final.State != StateSuccess {
			t.Fatalf("%s %s: state %s (%s)", req.Kind, req.Workload, final.State, final.Error)
		}
		jobs = append(jobs, final)
	}
	if !jobs[1].CacheHit || jobs[0].CacheHit {
		t.Fatalf("cache hits = %v, %v; want miss then hit", jobs[0].CacheHit, jobs[1].CacheHit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byJob := map[string][]json.RawMessage{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line storedLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		var stamp struct {
			Run string `json:"run"`
		}
		if err := json.Unmarshal(line.Record, &stamp); err != nil {
			t.Fatal(err)
		}
		byJob[stamp.Run] = append(byJob[stamp.Run], line.Record)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for i, job := range jobs {
		var doc struct {
			Records []results.Record `json:"records"`
		}
		if err := json.Unmarshal(job.Result, &doc); err != nil {
			t.Fatal(err)
		}
		lines := byJob[job.ID]
		if len(lines) != len(doc.Records) {
			t.Fatalf("job %d (%s): %d stored lines, result has %d records", i, job.Request.Kind, len(lines), len(doc.Records))
		}
		for k, rec := range doc.Records {
			rec.Run = job.ID
			rec.Git = results.BuildStamp()
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lines[k], want) {
				t.Errorf("job %d (%s) record %d: stored\n%s\nre-encoded from the result document\n%s", i, job.Request.Kind, k, lines[k], want)
			}
		}
	}
	if n := len(byJob[jobs[5].ID]); n != 0 {
		t.Errorf("lint job appended %d record lines, want none", n)
	}
	miss, hit := byJob[jobs[0].ID], byJob[jobs[1].ID]
	if len(miss) == 0 || len(miss) != len(hit) {
		t.Fatalf("miss appended %d lines, hit %d", len(miss), len(hit))
	}
	for k := range miss {
		m := bytes.Replace(miss[k], []byte(strconv.Quote(jobs[0].ID)), []byte(`"job"`), 1)
		h := bytes.Replace(hit[k], []byte(strconv.Quote(jobs[1].ID)), []byte(`"job"`), 1)
		if !bytes.Equal(m, h) {
			t.Errorf("record %d: hit line differs from miss line:\n%s\nvs\n%s", k, h, m)
		}
	}
}
