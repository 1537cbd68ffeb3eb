// Command atgpu-load drives a running atgpud with synthetic job traffic
// and reports latency percentiles and throughput — the harness behind
// the CI service gate and BENCH_service.json.
//
// Usage:
//
//	atgpu-load [-url http://127.0.0.1:8080] [-mode latency|throughput|concurrency]
//	           [-n 100] [-c 4] [-kind run] [-workload vecadd] [-size 256]
//	           [-device tiny] [-same] [-json] [-o out.json] [-check]
//
// Modes:
//
//	latency      n requests over c clients; reports p50/p95/p99 per-job
//	             round-trip latency (submit with wait=true → terminal).
//	throughput   same machinery, reported as completed jobs per second.
//	concurrency  sweeps client counts 1, 2, 4, … up to c and reports one
//	             row per level, showing how the daemon degrades.
//
// Every request varies its seed (so each job is distinct content and the
// cache cannot short-circuit the load); -same pins one seed instead,
// stressing the single-flight cache path. 429/503 answers are retried
// with backoff and counted separately — backpressure is the daemon
// working, not an error.
//
// With -check, the harness exits non-zero if any job ended in a
// non-success state or if the daemon leaked non-terminal jobs after the
// run — the CI gate.
//
// The harness also scrapes GET /metrics before and after every level and
// folds the daemon's own view of that window — mean queue wait, mean
// execute-phase latency, rejections, cache hits/misses — into each level
// of the JSON report, so BENCH_service.json carries both the client-side
// and the server-side account of the same run. A daemon without /metrics
// (or an unparsable exposition) simply omits the server view.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/obs"
	"atgpu/internal/service"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "atgpud base URL")
	mode := flag.String("mode", "latency", "latency, throughput or concurrency")
	n := flag.Int("n", 100, "total requests per level")
	c := flag.Int("c", 4, "concurrent clients (max level in concurrency mode)")
	kind := flag.String("kind", "run", "job kind: run, sweep, pipeline, analyze or lint")
	workload := flag.String("workload", "vecadd", "workload: "+strings.Join(experiments.Names(), ", "))
	size := flag.Int("size", 256, "input size n for run/analyze/lint kinds")
	device := flag.String("device", "tiny", "device preset: gtx650, gtx1080, k40 or tiny")
	timeoutMs := flag.Int("timeout-ms", 30_000, "per-job deadline sent with each request")
	same := flag.Bool("same", false, "send identical requests (one seed) instead of distinct ones")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	outPath := flag.String("o", "", "write the report to this file instead of stdout")
	check := flag.Bool("check", false, "exit non-zero on any failed job or leaked non-terminal job")
	flag.Parse()

	if *n <= 0 || *c <= 0 {
		fmt.Fprintln(os.Stderr, "atgpu-load: -n and -c must be positive")
		os.Exit(2)
	}
	var levels []int
	switch *mode {
	case "latency", "throughput":
		levels = []int{*c}
	case "concurrency":
		for l := 1; l <= *c; l *= 2 {
			levels = append(levels, l)
		}
		if levels[len(levels)-1] != *c {
			levels = append(levels, *c)
		}
	default:
		fmt.Fprintf(os.Stderr, "atgpu-load: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	tmpl := service.Request{
		Kind:      *kind,
		Workload:  *workload,
		N:         *size,
		Device:    *device,
		TimeoutMs: *timeoutMs,
		Wait:      true,
	}
	rep := report{Mode: *mode, URL: *url, Request: tmpl}
	for _, lvl := range levels {
		before := scrapeMetrics(*url)
		lr := runLevel(*url, tmpl, *n, lvl, !*same)
		lr.Server = serverDelta(before, scrapeMetrics(*url))
		rep.Levels = append(rep.Levels, lr)
	}
	for _, l := range rep.Levels {
		rep.OK += l.OK
		rep.Failed += l.Failed
		rep.Rejected += l.Rejected
	}
	if rep.OK+rep.Failed > 0 {
		rep.ErrorRate = float64(rep.Failed) / float64(rep.OK+rep.Failed)
	}
	rep.NonTerminalAfter, rep.Stats = drainCheck(*url)

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atgpu-load: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if *jsonOut {
		data, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Fprintf(out, "%s\n", data)
	} else {
		rep.print(out)
	}

	if *check && (rep.Failed > 0 || rep.NonTerminalAfter > 0) {
		fmt.Fprintf(os.Stderr, "atgpu-load: CHECK FAILED: %d failed jobs, %d non-terminal leaked\n",
			rep.Failed, rep.NonTerminalAfter)
		os.Exit(1)
	}
}

// report is the full harness output.
type report struct {
	Mode             string               `json:"mode"`
	URL              string               `json:"url"`
	Request          service.Request      `json:"request"`
	Levels           []levelReport        `json:"levels"`
	OK               int                  `json:"ok"`
	Failed           int                  `json:"failed"`
	Rejected         int                  `json:"rejected"`
	ErrorRate        float64              `json:"error_rate"`
	NonTerminalAfter int                  `json:"non_terminal_after"`
	Stats            *service.ServerStats `json:"server_stats,omitempty"`
}

func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "atgpu-load %s against %s\n", r.Mode, r.URL)
	fmt.Fprintf(w, "%4s %6s %6s %6s %8s %9s %9s %9s %10s\n",
		"c", "ok", "fail", "429s", "secs", "p50(ms)", "p95(ms)", "p99(ms)", "jobs/s")
	for _, l := range r.Levels {
		fmt.Fprintf(w, "%4d %6d %6d %6d %8.2f %9.2f %9.2f %9.2f %10.1f",
			l.C, l.OK, l.Failed, l.Rejected, l.DurationS, l.P50ms, l.P95ms, l.P99ms, l.JobsPerSec)
		if s := l.Server; s != nil {
			fmt.Fprintf(w, "  [srv wait=%.2fms exec=%.2fms hits=%d misses=%d]",
				s.QueueWaitMsMean, s.ExecMsMean, s.CacheHits, s.CacheMisses)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "total ok=%d failed=%d rejected=%d error_rate=%.4f non_terminal_after=%d\n",
		r.OK, r.Failed, r.Rejected, r.ErrorRate, r.NonTerminalAfter)
}

// levelReport is one concurrency level's outcome.
type levelReport struct {
	C          int     `json:"c"`
	N          int     `json:"n"`
	OK         int     `json:"ok"`
	Failed     int     `json:"failed"`
	Rejected   int     `json:"rejected"`
	CacheHits  int     `json:"cache_hits"`
	DurationS  float64 `json:"duration_s"`
	P50ms      float64 `json:"p50_ms"`
	P95ms      float64 `json:"p95_ms"`
	P99ms      float64 `json:"p99_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Server is the daemon's own account of this level, from /metrics
	// deltas; nil when the daemon does not serve metrics.
	Server *serverView `json:"server,omitempty"`
	// Errors samples the first few failure messages for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

// serverView is the server-side account of one level: the delta between
// the /metrics scrapes bracketing it.
type serverView struct {
	QueueWaitMsMean float64 `json:"queue_wait_ms_mean"`
	ExecMsMean      float64 `json:"exec_ms_mean"`
	JobsSucceeded   int64   `json:"jobs_succeeded"`
	Rejected        int64   `json:"rejected"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
// Best-effort: any failure yields nil and the report omits the server
// view rather than failing the load run.
func scrapeMetrics(url string) *obs.PromExposition {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	exp, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atgpu-load: /metrics exposition invalid: %v\n", err)
		return nil
	}
	return exp
}

// counterDelta reads a counter family's total from both scrapes,
// optionally filtered to one label value, and returns the difference.
func counterDelta(before, after *obs.PromExposition, family, labelKey, labelVal string) int64 {
	total := func(exp *obs.PromExposition) float64 {
		f := exp.Family(family)
		if f == nil {
			return 0
		}
		sum := 0.0
		for _, s := range f.Samples {
			if labelKey != "" && s.Label(labelKey) != labelVal {
				continue
			}
			sum += s.Value
		}
		return sum
	}
	return int64(total(after) - total(before))
}

// histogramMeanMs returns the mean of a latency histogram family over
// the window between the two scrapes, in milliseconds.
func histogramMeanMs(before, after *obs.PromExposition, family string) float64 {
	c0, s0, _ := before.HistogramTotal(family)
	c1, s1, ok := after.HistogramTotal(family)
	if !ok || c1-c0 <= 0 {
		return 0
	}
	return (s1 - s0) / (c1 - c0) / 1e6
}

// serverDelta folds two scrapes into the level's server-side view.
func serverDelta(before, after *obs.PromExposition) *serverView {
	if before == nil || after == nil {
		return nil
	}
	return &serverView{
		QueueWaitMsMean: histogramMeanMs(before, after, service.MetricQueueWaitNs),
		ExecMsMean:      histogramMeanMs(before, after, service.MetricExecNs),
		JobsSucceeded:   counterDelta(before, after, service.MetricJobsTotal, "state", "success"),
		Rejected:        counterDelta(before, after, service.MetricRejectedTotal, "", ""),
		CacheHits:       counterDelta(before, after, service.MetricCacheHitsTotal, "", ""),
		CacheMisses:     counterDelta(before, after, service.MetricCacheMissesTotal, "", ""),
	}
}

// runLevel drives n requests through c concurrent clients and collects
// per-job round-trip latencies.
func runLevel(url string, tmpl service.Request, n, c int, distinct bool) levelReport {
	rep := levelReport{C: c, N: n}
	var mu sync.Mutex
	var lats []float64

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			client := fmt.Sprintf("load-w%d", worker)
			for i := range work {
				req := tmpl
				if distinct {
					// Distinct content per request: the cache cannot
					// serve it, so the daemon really simulates.
					req.Seed = int64(i + 1)
				}
				ok, hit, rejections, errMsg, lat := oneJob(url, client, req)
				mu.Lock()
				rep.Rejected += rejections
				if ok {
					rep.OK++
					lats = append(lats, lat.Seconds()*1000)
					if hit {
						rep.CacheHits++
					}
				} else {
					rep.Failed++
					if len(rep.Errors) < 5 {
						rep.Errors = append(rep.Errors, errMsg)
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	rep.DurationS = time.Since(start).Seconds()

	sort.Float64s(lats)
	rep.P50ms = percentile(lats, 50)
	rep.P95ms = percentile(lats, 95)
	rep.P99ms = percentile(lats, 99)
	if rep.DurationS > 0 {
		rep.JobsPerSec = float64(rep.OK) / rep.DurationS
	}
	return rep
}

// oneJob submits one synchronous job, retrying backpressure answers
// (429/503) with a short backoff. It returns success, whether the result
// was a cache hit, how many times it was pushed back, a failure message,
// and the accepted attempt's round-trip latency.
func oneJob(url, client string, req service.Request) (ok, hit bool, rejections int, errMsg string, lat time.Duration) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, false, rejections, err.Error(), 0
	}
	for attempt := 0; attempt < 50; attempt++ {
		start := time.Now()
		hreq, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return false, false, rejections, err.Error(), 0
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return false, false, rejections, err.Error(), 0
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, false, rejections, err.Error(), 0
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Backpressure working as designed: back off and retry.
			rejections++
			time.Sleep(time.Duration(20*(attempt+1)) * time.Millisecond)
			continue
		case http.StatusOK:
			var job service.Job
			if err := json.Unmarshal(data, &job); err != nil {
				return false, false, rejections, err.Error(), 0
			}
			if job.State == service.StateSuccess {
				return true, job.CacheHit, rejections, "", time.Since(start)
			}
			return false, false, rejections,
				fmt.Sprintf("job %s ended %s: %s", job.ID, job.State, job.Error), 0
		default:
			return false, false, rejections,
				fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data)), 0
		}
	}
	return false, false, rejections, "gave up after 50 backpressure retries", 0
}

// drainCheck polls /v1/stats until the daemon reports no non-terminal
// jobs (or a bounded wait expires) and returns the final count and
// stats — the leak gate.
func drainCheck(url string) (int, *service.ServerStats) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err := fetchStats(url)
		if err != nil {
			return -1, nil
		}
		if stats.NonTerminal == 0 || time.Now().After(deadline) {
			return stats.NonTerminal, stats
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fetchStats(url string) (*service.ServerStats, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var stats service.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// percentile reads the p-th percentile from sorted ms latencies.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
