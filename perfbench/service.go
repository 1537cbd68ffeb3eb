package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"atgpu/internal/calibrate"
	"atgpu/internal/experiments"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/service"
)

// The service-mix workload runs atgpud in-process — 2 workers, gtx650
// warmed, a scratch result store — on a loopback listener, and drives it
// with a closed loop of 2 clients posting wait:true jobs. The stream is
// cut into rounds of 20 jobs: 8 runs with fresh seeds (cache misses), 6
// runs from a fixed set (cache hits), 4 analyze and 2 lint jobs. A round
// ends when its last reply arrives. Each daemon serves one epoch of a
// warm-up round and epochRounds measured rounds, then is shut down, so
// the manifest and store a run builds are the same size whatever the
// speed; an epoch inserts more than the cache's 256 entries, so FIFO
// eviction shows in the hit ratio.
//
// The class shares are an assumption, not a measurement of callers. The
// only request shapes the repository's own callers send are vecadd
// n=1024 run jobs with distinct seeds (the CI load ladder) and one
// vecadd n=4096 run job (the CI traced job), so vecadd uses those two
// sizes. No caller sends reduce, matmul, analyze or lint jobs; they take
// the same two sizes where the workload allows, and matmul the two
// smallest sizes a 32-wide warp allows.

type jobClass int

const (
	classMiss jobClass = iota
	classHit
	classAnalyze
	classLint
)

var classNames = [...]string{"run-miss", "run-hit", "analyze", "lint"}

type jobTemplate struct {
	workload string
	n        int
}

// classTemplates lists each class's requests in one round.
var classTemplates = [...][]jobTemplate{
	classMiss: {{"vecadd", 1024}, {"vecadd", 1024}, {"vecadd", 1024}, {"vecadd", 4096},
		{"reduce", 1024}, {"reduce", 4096}, {"matmul", 32}, {"matmul", 64}},
	classHit: {{"vecadd", 1024}, {"vecadd", 4096}, {"reduce", 1024}, {"reduce", 4096},
		{"matmul", 32}, {"matmul", 64}},
	classAnalyze: {{"vecadd", 1024}, {"vecadd", 4096}, {"reduce", 4096}, {"matmul", 64}},
	classLint:    {{"reduce", 4096}, {"matmul", 64}},
}

const (
	serviceClients = 2
	serviceWorkers = 2
	epochRounds    = 25
	smokeRounds    = 2
	// minServiceRounds keeps at least 1000 measured jobs, so job_p99_ms
	// has ten samples beyond it.
	minServiceRounds = 50
)

type jobSpec struct {
	class jobClass
	slot  int
	req   service.Request
}

// roundJobs builds round r of the request stream: the same templates
// every round, fresh seeds for every class but the fixed hit set, in a
// seeded order.
func roundJobs(seed int64, r int) []jobSpec {
	var jobs []jobSpec
	for c, templates := range classTemplates {
		for slot, t := range templates {
			kind := "run"
			switch jobClass(c) {
			case classAnalyze:
				kind = "analyze"
			case classLint:
				kind = "lint"
			}
			round := r
			if jobClass(c) == classHit {
				round = -1
			}
			jobs = append(jobs, jobSpec{class: jobClass(c), slot: slot, req: service.Request{
				Kind: kind, Workload: t.workload, N: t.n, Wait: true,
				Seed: 1 + derivedSeed(seed, "request", classNames[c], round, slot)%(1<<40),
			}})
		}
	}
	rng := rand.New(rand.NewSource(derivedSeed(seed, "order", "", r, 0)))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// daemon is one in-process atgpud on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon boots a daemon and waits until /readyz answers.
func startDaemon(store string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv, err := service.NewServer(service.ServerConfig{
		Workers: serviceWorkers, Warm: []string{"gtx650"}, ResultsPath: store,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, drains the daemon and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) scrape() (*obs.PromExposition, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// jobOutcome is one job's client-side view.
type jobOutcome struct {
	spec       jobSpec
	lane       int
	start, end time.Time
	job        service.Job
	err        error
}

// jobSample is what a pass keeps of a measured job, so a run's memory
// does not grow with the number of replies it holds.
type jobSample struct {
	kind    string // run_miss, run_hit, analyze or lint
	rt      time.Duration
	ok      bool
	records int // records in the result; counted in the traced pass only
}

func (o jobOutcome) sample(countRecords bool) jobSample {
	s := jobSample{kind: o.spec.req.Kind, rt: o.end.Sub(o.start), ok: o.err == nil}
	if s.kind == "run" {
		s.kind = "run_miss"
		if o.job.CacheHit {
			s.kind = "run_hit"
		}
	}
	if countRecords && s.ok {
		var doc struct {
			Records []json.RawMessage `json:"records"`
		}
		if json.Unmarshal(o.job.Result, &doc) == nil {
			s.records = len(doc.Records)
		}
	}
	return s
}

// round runs one round's jobs through the closed loop: each client
// posts its next job when the previous reply has arrived.
func (d *daemon) round(jobs []jobSpec) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < serviceClients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = d.submit(lane, jobs[i])
			}
		}(lane)
	}
	wg.Wait()
	return out
}

func (d *daemon) submit(lane int, spec jobSpec) jobOutcome {
	o := jobOutcome{spec: spec, lane: lane}
	body, err := json.Marshal(spec.req)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", fmt.Sprintf("perfbench-%d", lane))
	o.start = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		o.end = time.Now()
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode/100 != 2:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		if err := json.Unmarshal(data, &o.job); err != nil {
			o.err = err
		} else if o.job.State != service.StateSuccess {
			o.err = fmt.Errorf("job %s ended %s: %s", o.job.ID, o.job.State, o.job.Error)
		}
	}
	return o
}

// serverDelta is the daemon's own account of the measured rounds: the
// difference between /metrics scrapes after the warm-up round and at the
// end of the epoch.
type serverDelta struct {
	queueCount, queueSumNs float64
	execCount, execSumNs   float64
	hits, misses, rejected float64
}

func (s *serverDelta) add(before, after *obs.PromExposition) {
	hist := func(family string) (float64, float64) {
		c0, s0, _ := before.HistogramTotal(family)
		c1, s1, _ := after.HistogramTotal(family)
		return c1 - c0, s1 - s0
	}
	counter := func(family string) float64 {
		v0, _ := before.CounterTotal(family)
		v1, _ := after.CounterTotal(family)
		return v1 - v0
	}
	c, sum := hist(service.MetricQueueWaitNs)
	s.queueCount += c
	s.queueSumNs += sum
	c, sum = hist(service.MetricExecNs)
	s.execCount += c
	s.execSumNs += sum
	s.hits += counter(service.MetricCacheHitsTotal)
	s.misses += counter(service.MetricCacheMissesTotal)
	s.rejected += counter(service.MetricRejectedTotal)
}

// serviceBench is one service-mix run.
type serviceBench struct {
	o   options
	rep *report
	// hitRef holds each fixed request's first result bytes; every later
	// reply to it must match.
	hitRef  map[int][]byte
	daemons int
	setups  []float64
}

// passResult is what one pass over the stream measured.
type passResult struct {
	rounds int // rounds made, warm-ups included
	walls  []float64
	allocs []float64
	jobs   []jobSample // measured rounds only
	server serverDelta
	layers *layerFold
}

// replayer drives a traced pass's jobs through the layer probe too.
type replayer struct {
	d         *layerProbe
	cal       calibrate.Result
	divergent int
}

func runServiceMix(o options) (*report, error) {
	b := &serviceBench{o: o, rep: newReport(), hitRef: map[int][]byte{}}
	b.rep.Correct = true
	rounds, minMeasured := epochRounds, minServiceRounds
	if o.smoke {
		rounds, minMeasured = smokeRounds, 2
	}
	if !o.trace {
		// Extra boots give the set-up median more samples than epochs do.
		for i := 0; i < setupRuns-1; i++ {
			d, err := b.boot()
			if err != nil {
				return nil, err
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(o.seconds)
		res, err := b.pass(rounds, nil, func(r, measured int) bool {
			return time.Now().After(deadline) && measured >= minMeasured
		})
		if err != nil {
			return nil, err
		}
		return b.endToEnd(res)
	}

	deadline := time.Now().Add(o.seconds / 2)
	plain, err := b.pass(rounds, nil, func(r, measured int) bool {
		return time.Now().After(deadline) && measured >= minMeasured/2
	})
	if err != nil {
		return nil, err
	}
	cfg := experiments.DefaultConfig()
	link, cal, err := experiments.Calibrate(cfg)
	if err != nil {
		return nil, err
	}
	rp := &replayer{d: &layerProbe{tr: newTracer(), link: link}, cal: cal}
	traced, err := b.pass(rounds, rp, func(r, _ int) bool { return r >= plain.rounds })
	if err != nil {
		return nil, err
	}
	if err := rp.d.tr.write(spanFile(o)); err != nil {
		return nil, err
	}
	return b.perLayer(plain, traced, rp.divergent)
}

func (b *serviceBench) boot() (*daemon, error) {
	b.daemons++
	store := filepath.Join(b.o.scratch, fmt.Sprintf("daemon-%d.jsonl", b.daemons))
	d, setup, err := startDaemon(store)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, seconds(setup))
	return d, nil
}

// pass runs the stream from round 0 until stop(round, measured rounds)
// says to end, one daemon per epoch. With rp set it is the traced pass:
// every job gets a span, and each measured round's run and analyze jobs
// are then replayed through the layer probe, outside the round's time.
func (b *serviceBench) pass(rounds int, rp *replayer, stop func(r, measured int) bool) (*passResult, error) {
	res := &passResult{layers: newLayerFold()}
	for !stop(res.rounds, len(res.walls)) {
		d, err := b.boot()
		if err != nil {
			return nil, err
		}
		var before *obs.PromExposition
		for k := 0; k <= rounds && !stop(res.rounds, len(res.walls)); k++ {
			if k == 1 {
				if before, err = d.scrape(); err != nil {
					d.stop()
					return nil, err
				}
			}
			jobs := roundJobs(b.o.seed, res.rounds)
			res.rounds++
			var mark int
			if rp != nil {
				mark = rp.d.tr.mark()
			}
			alloc0 := totalAlloc()
			t0 := time.Now()
			outs := d.round(jobs)
			wall := time.Since(t0)
			alloc := totalAlloc() - alloc0
			b.check(outs)
			if k == 0 {
				continue // warm-up round
			}
			res.walls = append(res.walls, seconds(wall))
			res.allocs = append(res.allocs, float64(alloc)/mib)
			for _, o := range outs {
				res.jobs = append(res.jobs, o.sample(rp != nil))
			}
			if rp != nil {
				rp.replay(b, outs)
				res.layers.add(wall, rp.d.tr.selfTimes(mark), rp.d.counts)
			}
		}
		if before != nil {
			after, err := d.scrape()
			if err != nil {
				d.stop()
				return nil, err
			}
			res.server.add(before, after)
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check counts each job: a transport error, a non-2xx reply or a job
// that did not succeed fails it, and so does a reply to a fixed request
// whose result bytes differ from the first reply to it.
func (b *serviceBench) check(outs []jobOutcome) {
	for _, o := range outs {
		b.rep.Attempted++
		err := o.err
		if err == nil && o.spec.class == classHit {
			if ref, ok := b.hitRef[o.spec.slot]; !ok {
				b.hitRef[o.spec.slot] = o.job.Result
			} else if !bytes.Equal(ref, o.job.Result) {
				err = fmt.Errorf("job %s: result differs from the first reply to the same request", o.job.ID)
			}
		}
		b.fail(err)
	}
}

func (b *serviceBench) fail(err error) {
	if err == nil {
		return
	}
	if b.rep.Failed < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: service-mix: %v\n", err)
	}
	b.rep.Failed++
}

// replay drives a traced round's run jobs through the layer probe —
// checking outputs against the CPU reference — and its analyze jobs
// through the model, and compares each record with the daemon's.
func (rp *replayer) replay(b *serviceBench, outs []jobOutcome) {
	rp.d.counts = layerCounts{}
	for _, o := range outs {
		rp.d.tr.record("service.job", o.job.ID+" "+classNames[o.spec.class], o.lane, o.start, o.end)
	}
	for _, o := range outs {
		if o.err != nil || (o.spec.class != classMiss && o.spec.class != classAnalyze) {
			continue
		}
		req := o.spec.req
		cfg := experiments.DefaultConfig()
		cfg.Seed = req.Seed
		cfg.Workers = 1
		switch req.Workload {
		case "vecadd":
			cfg.SizesVecAdd = []int{req.N}
		case "reduce":
			cfg.SizesReduce = []int{req.N}
		case "matmul":
			cfg.SizesMatMul = []int{req.N}
		}
		r, err := experiments.NewRunnerCalibrated(cfg, rp.d.link, rp.cal)
		if err != nil {
			b.fail(err)
			continue
		}
		var rec results.Record
		if o.spec.class == classMiss {
			rec, err = rp.d.point(r, "run", req.Workload, req.N, 0)
		} else {
			var pt experiments.WorkloadPoint
			id := fmt.Sprintf("%s n=%d", req.Workload, req.N)
			pt, err = rp.d.predict(r, req.Workload, req.N, id)
			rec = r.Record("analyze", req.Workload, pt)
		}
		b.rep.Attempted++
		if err != nil {
			b.fail(fmt.Errorf("replay of job %s: %w", o.job.ID, err))
			continue
		}
		var doc service.Result
		if err := json.Unmarshal(o.job.Result, &doc); err != nil || len(doc.Records) != 1 || !sameRecord(rec, doc.Records[0]) {
			rp.divergent++
		}
	}
}

// endToEnd reports the untraced pass.
func (b *serviceBench) endToEnd(res *passResult) (*report, error) {
	rep := b.rep
	gap, err := b.modelGap()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var lats []float64
	ok := 0
	for _, j := range res.jobs {
		lats = append(lats, millis(j.rt))
		if j.ok {
			ok++
		}
	}
	rep.set("wall_s", median(res.walls), len(res.walls))
	rep.set("alloc_mb", median(res.allocs), len(res.allocs))
	rep.set("peak_rss_mb", rss, 1)
	rep.set("model_gap_pct", gap, len(b.hitRef))
	rep.set("jobs_per_s", float64(ok)/sum(res.walls), len(lats))
	rep.set("job_p50_ms", quantile(lats, 0.50), len(lats))
	rep.set("job_p99_ms", quantile(lats, 0.99), len(lats))
	rep.set("setup_s", median(b.setups), len(b.setups))
	return rep, nil
}

// modelGap is 100 × mean |Δ_T − Δ_E| over the fixed run requests: the
// paper's transfer-share gap between the model and this simulator.
func (b *serviceBench) modelGap() (float64, error) {
	total := 0.0
	for slot := range classTemplates[classHit] {
		raw, ok := b.hitRef[slot]
		if !ok {
			return 0, fmt.Errorf("fixed request %d never succeeded", slot)
		}
		var doc service.Result
		if err := json.Unmarshal(raw, &doc); err != nil {
			return 0, err
		}
		if len(doc.Records) != 1 || doc.Records[0].Predicted == nil || doc.Records[0].Observed == nil {
			return 0, fmt.Errorf("fixed request %d: result has no predicted and observed record", slot)
		}
		rec := doc.Records[0]
		total += math.Abs(rec.Predicted.Delta - rec.Observed.Delta)
	}
	return 100 * total / float64(len(b.hitRef)), nil
}

// perLayer reports the traced pass against the untraced one.
func (b *serviceBench) perLayer(plain, traced *passResult, divergent int) (*report, error) {
	rep := b.rep
	traced.layers.report(rep, plain.walls, false)
	rep.Failed += traced.layers.varied
	n := len(traced.jobs)

	var rts []float64
	byKind := map[string][]float64{}
	records := 0
	for _, j := range traced.jobs {
		if !j.ok {
			continue
		}
		rt := millis(j.rt)
		rts = append(rts, rt)
		byKind[j.kind] = append(byKind[j.kind], rt)
		records += j.records
	}
	sd := traced.server
	queue := frac(sd.queueSumNs, sd.queueCount) / 1e6
	exec := frac(sd.execSumNs, sd.execCount) / 1e6
	rep.set("service.queue_wait_ms", queue, int(sd.queueCount))
	rep.set("service.exec_ms", exec, int(sd.execCount))
	rep.set("service.overhead_ms", frac(sum(rts), float64(len(rts)))-queue-exec, len(rts))
	rep.set("service.cache_hit_frac", frac(sd.hits, sd.hits+sd.misses), int(sd.hits+sd.misses))
	rep.set("service.rejected", sd.rejected, n)
	for _, k := range []string{"run_miss", "run_hit", "analyze", "lint"} {
		rep.set("service."+k+"_p50_ms", median(byKind[k]), len(byKind[k]))
	}
	rounds := len(traced.walls)
	rep.set("results.records", frac(float64(records), float64(rounds)), rounds)
	rep.set("trace.divergent", float64(divergent), rounds)
	rep.set("failed_frac", frac(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	return rep, nil
}
