package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"atgpu/internal/experiments"
	"atgpu/internal/results"
	"atgpu/internal/transfer"
)

// sweepKind is one sweep workload: which runner sweep an op makes and the
// sizes its smoke variant uses.
type sweepKind struct {
	workload string
	run      func(*experiments.Runner) (*experiments.WorkloadData, error)
	smoke    func(*experiments.Config)
}

var (
	vecAddSweep = sweepKind{"vecadd", (*experiments.Runner).RunVecAdd,
		func(c *experiments.Config) { c.SizesVecAdd = []int{4096, 8192} }}
	matMulSweep = sweepKind{"matmul", (*experiments.Runner).RunMatMul,
		func(c *experiments.Config) { c.SizesMatMul = []int{32, 64} }}
)

const (
	// setupRuns is how many times an end-to-end run sets up, to take the
	// median set-up time.
	setupRuns = 25
	// minOps is the fewest measured ops a run makes, however short.
	minOps = 3
)

// pointClock times each sweep point from outside the runner, through
// the scheduler's observer hook.
type pointClock struct {
	mu    sync.Mutex
	start map[int]time.Time
	lat   []time.Duration
}

func (c *pointClock) JobStart(index, worker int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start[index] = time.Now()
}

func (c *pointClock) JobDone(index, worker int, err error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.start[index]; ok && worker >= 0 {
		c.lat = append(c.lat, now.Sub(t))
	}
}

// take returns and clears the latencies recorded so far.
func (c *pointClock) take() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	lat := c.lat
	c.lat = nil
	return lat
}

// sweepBench holds one sweep workload's runner and the reference records
// every repeat must reproduce.
type sweepBench struct {
	o      options
	kind   sweepKind
	runner *experiments.Runner
	clock  *pointClock
	seq    int
	// want holds the warm-up op's records, the reference for every
	// repeat and for the traced pass.
	want     []results.Record
	wantJSON []byte
}

// sweepOp is one untraced op: the sweep, Summarise and the store append.
type sweepOp struct {
	wall   time.Duration
	alloc  uint64
	points []time.Duration
	gap    float64
	failed bool
}

// tracedSweepOp is one traced op over the same points.
type tracedSweepOp struct {
	wall      time.Duration
	self      map[string]time.Duration
	counts    layerCounts
	records   int
	divergent int
	failed    bool
}

func runSweep(o options, k sweepKind) (*report, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Workers = 1
	if o.smoke {
		k.smoke(&cfg)
	}
	b := &sweepBench{o: o, kind: k, clock: &pointClock{start: map[int]time.Time{}}}
	cfg.SchedObserver = b.clock

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		r, err := experiments.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		b.runner = r
	}
	// The warm-up op is discarded; its records become the reference.
	warm := b.untraced()
	if warm.failed || b.want == nil {
		return nil, fmt.Errorf("warm-up sweep failed")
	}
	if o.trace {
		return b.tracedRun()
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	rep := newReport()
	rep.Correct = true
	var ops []sweepOp
	deadline := time.Now().Add(o.seconds)
	for len(ops) < minOps || time.Now().Before(deadline) {
		ops = append(ops, b.untraced())
	}
	// A sweep's points differ in size, so the point-latency percentiles
	// are taken within each sweep and their medians over sweeps reported.
	var walls, allocs, p50s, p99s []float64
	var total time.Duration
	points := 0
	for _, op := range ops {
		rep.Attempted++
		if op.failed || op.gap != warm.gap {
			rep.Failed++
		}
		walls = append(walls, seconds(op.wall))
		allocs = append(allocs, float64(op.alloc)/mib)
		total += op.wall
		var lats []float64
		for _, l := range op.points {
			lats = append(lats, millis(l))
		}
		points += len(lats)
		p50s = append(p50s, quantile(lats, 0.50))
		p99s = append(p99s, quantile(lats, 0.99))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("wall_s", median(walls), len(walls))
	rep.set("alloc_mb", median(allocs), len(allocs))
	rep.set("peak_rss_mb", rss, 1)
	rep.set("model_gap_pct", 100*warm.gap, len(ops))
	rep.set("jobs_per_s", float64(points)/total.Seconds(), points)
	rep.set("job_p50_ms", median(p50s), len(p50s))
	rep.set("job_p99_ms", median(p99s), len(p99s))
	rep.set("setup_s", median(setups), len(setups))
	return rep, nil
}

// untraced makes one op exactly as `atgpu sweep -o` does: the runner's
// sweep, Summarise, and an append of the records into a fresh store.
func (b *sweepBench) untraced() sweepOp {
	b.clock.take()
	before := totalAlloc()
	t0 := time.Now()
	data, err := b.kind.run(b.runner)
	var sum experiments.Summary
	if err == nil {
		sum, err = experiments.Summarise(data)
	}
	if err == nil {
		err = b.appendRecords(data.Records)
	}
	op := sweepOp{wall: time.Since(t0), alloc: totalAlloc() - before, points: b.clock.take()}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s sweep: %v\n", b.kind.workload, err)
		op.failed = true
		return op
	}
	op.gap = sum.MeanDeltaGap
	if n := data.FailedPoints(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s sweep: %d points failed\n", b.kind.workload, n)
		op.failed = true
	}
	js, err := json.Marshal(data.Records)
	switch {
	case err != nil:
		op.failed = true
	case b.wantJSON == nil:
		b.want, b.wantJSON = data.Records, js
	case !bytes.Equal(js, b.wantJSON):
		fmt.Fprintf(os.Stderr, "perfbench: %s sweep: records differ from the first repeat\n", b.kind.workload)
		op.failed = true
	}
	return op
}

// appendRecords writes one op's records to a fresh store, stamped the way
// `atgpu sweep -o` stamps them, and removes the store afterwards.
func (b *sweepBench) appendRecords(recs []results.Record) error {
	b.seq++
	path := filepath.Join(b.o.scratch, fmt.Sprintf("records-%d.jsonl", b.seq))
	defer os.Remove(path)
	return appendStore(path, recs)
}

func appendStore(path string, recs []results.Record) error {
	s, err := results.Open(path)
	if err != nil {
		return err
	}
	env := &results.Env{SavedUnix: time.Now().Unix(), Note: "perfbench"}
	for _, rec := range recs {
		rec.Run = "perfbench"
		rec.Workers = 1
		if err := s.Append(rec, env); err != nil {
			s.Close()
			return err
		}
	}
	return s.Close()
}

// traced drives the same points through the layer probe, then folds and
// appends the records, each step in a span. The op's wall time leaves out
// the output checks and the record comparison, which the runner does not
// make, so that it differs from an untraced op only by the tracing.
func (b *sweepBench) traced(d *layerProbe) tracedSweepOp {
	wl := b.kind.workload
	d.counts = layerCounts{}
	d.checking = 0
	mark := d.tr.mark()
	var op tracedSweepOp
	t0 := time.Now()
	sizes, err := b.runner.Config().SweepSizes(wl)
	if err != nil {
		op.failed = true
		return op
	}
	recs := make([]results.Record, 0, len(sizes))
	for idx, n := range sizes {
		rec, err := d.point(b.runner, "sweep", wl, n, idx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", wl, err)
			op.failed = true
			continue
		}
		recs = append(recs, rec)
		d.check(func() error {
			if !sameRecord(rec, b.want[idx]) {
				op.divergent++
			}
			return nil
		})
	}
	s := d.tr.begin("results.fold", wl)
	_, err = experiments.Summarise(&experiments.WorkloadData{Workload: wl, Records: recs})
	d.tr.end(s)
	if err == nil {
		s = d.tr.begin("results.append", wl)
		err = b.appendRecords(recs)
		d.tr.end(s)
	}
	op.wall = time.Since(t0) - d.checking
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", wl, err)
		op.failed = true
	}
	op.self = d.tr.selfTimes(mark)
	op.counts = d.counts
	op.records = len(recs)
	return op
}

func sameRecord(a, b results.Record) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// tracedRun alternates untraced and traced ops until the time is up and
// reports the per-layer breakdown.
func (b *sweepBench) tracedRun() (*report, error) {
	d := &layerProbe{tr: newTracer(), link: transfer.PCIeGen3x8Link()}
	var plain []sweepOp
	var traced []tracedSweepOp
	deadline := time.Now().Add(b.o.seconds)
	for len(traced) < minOps || time.Now().Before(deadline) {
		plain = append(plain, b.untraced())
		traced = append(traced, b.traced(d))
	}

	rep := newReport()
	rep.Correct = true
	var untracedWalls []float64
	for _, op := range plain {
		rep.Attempted++
		if op.failed {
			rep.Failed++
		}
		untracedWalls = append(untracedWalls, seconds(op.wall))
	}
	l := newLayerFold()
	divergent := 0
	for _, op := range traced {
		rep.Attempted++
		if op.failed || op.records != traced[0].records {
			rep.Failed++
		}
		divergent += op.divergent
		l.add(op.wall, op.self, op.counts)
	}
	l.report(rep, untracedWalls, true)
	rep.Failed += l.varied
	rep.set("results.records", float64(traced[0].records), len(traced))
	rep.set("trace.divergent", float64(divergent), len(traced))
	for _, m := range serviceMetrics {
		rep.set(m, 0, 0)
	}
	rep.set("failed_frac", frac(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	if err := d.tr.write(spanFile(b.o)); err != nil {
		return nil, err
	}
	return rep, nil
}

// serviceMetrics are the per-layer metrics only service-mix measures.
var serviceMetrics = []string{
	"service.queue_wait_ms", "service.exec_ms", "service.overhead_ms",
	"service.cache_hit_frac", "service.rejected", "service.run_miss_p50_ms",
	"service.run_hit_p50_ms", "service.analyze_p50_ms", "service.lint_p50_ms",
}

// layerSpans are the span names whose self times make up a traced op's
// layer sum, and the metric each one reports as.
var layerSpans = []struct{ span, metric string }{
	{"mem.alloc", "mem.alloc_s"},
	{"simgpu.host", "simgpu.host_s"},
	{"transfer.in", "transfer.in_s"},
	{"transfer.out", "transfer.out_s"},
	{"kernel.decode", "kernel.decode_s"},
	{"analyze.certify", "analyze.certify_s"},
	{"simgpu.launch", "simgpu.launch_s"},
	{"core.predict", "core.predict_s"},
	{"results.fold", "results.fold_s"},
	{"results.append", "results.append_s"},
}

// layerFold gathers traced ops' self times and counts into medians.
type layerFold struct {
	walls  []float64
	sums   []float64
	self   map[string][]float64
	counts layerCounts
	allocs []float64
	// varied counts ops whose exact work counts differ from the first
	// op's; a deterministic simulator makes none.
	varied int
}

func newLayerFold() *layerFold { return &layerFold{self: map[string][]float64{}} }

func (l *layerFold) add(wall time.Duration, self map[string]time.Duration, c layerCounts) {
	l.walls = append(l.walls, seconds(wall))
	total := 0.0
	for _, ls := range layerSpans {
		v := seconds(self[ls.span])
		l.self[ls.metric] = append(l.self[ls.metric], v)
		total += v
	}
	l.sums = append(l.sums, total)
	l.allocs = append(l.allocs, float64(c.allocBytes)/mib)
	if len(l.walls) > 1 && c.exact() != l.counts.exact() {
		fmt.Fprintf(os.Stderr, "perfbench: work counts %+v differ from %+v\n", c.exact(), l.counts.exact())
		l.varied++
	}
	l.counts = c
}

// report sets every layer metric. untraced holds the untraced ops' wall
// times. sameOp says whether a traced op is an untraced op with spans added:
// then the difference of their walls is the tracing overhead, and the
// untraced op minus the layer sum is the experiments layer's residual.
// On service-mix the layers are replayed outside the timed rounds, so
// both report 0.
func (l *layerFold) report(rep *report, untraced []float64, sameOp bool) {
	n := len(l.walls)
	med := map[string]float64{}
	for _, ls := range layerSpans {
		med[ls.metric] = median(l.self[ls.metric])
		rep.set(ls.metric, med[ls.metric], n)
	}
	c := l.counts
	launchS := med["simgpu.launch_s"]
	moved := float64(c.words) * 8 / mib
	rep.set("mem.alloc_mb", median(l.allocs), n)
	rep.set("transfer.words", float64(c.words), n)
	rep.set("transfer.mb_per_s", frac(moved, med["transfer.in_s"]+med["transfer.out_s"]), n)
	rep.set("analyze.certified_frac", frac(float64(c.certified), float64(c.launches)), n)
	rep.set("simgpu.launches", float64(c.launches), n)
	rep.set("simgpu.warp_instrs", float64(c.warpInstrs), n)
	rep.set("simgpu.cycles", float64(c.cycles), n)
	rep.set("simgpu.warp_instr_per_s", frac(float64(c.warpInstrs), launchS), n)
	rep.set("simgpu.memo_frac", frac(float64(c.memoSkips), float64(c.launches)), n)

	overhead, residual, flagged := 0.0, 0.0, 0.0
	if sameOp {
		wall := median(untraced)
		overhead = frac(median(l.walls), wall) - 1
		layers := median(l.sums)
		residual = wall - layers
		// The probe's layer calls stand for part of the runner's op. Where
		// they are nearly all of it, as on matmul-sweep, the two medians
		// differ by timing noise alone, so the allowance is the slowest
		// untraced op: a layer sum above it means the probe did work the
		// runner did not, for example on a larger device.
		if slowest := quantile(untraced, 1); layers > slowest {
			flagged = 1
			fmt.Fprintf(os.Stderr, "perfbench: traced layer sum %.4fs exceeds the slowest untraced op %.4fs\n",
				layers, slowest)
		}
	}
	rep.set("trace.overhead_frac", overhead, n)
	rep.set("experiments.residual_s", residual, n)
	rep.set("trace.residual_flagged", flagged, n)
}
