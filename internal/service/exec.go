package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"atgpu/internal/analyze"
	"atgpu/internal/calibrate"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/sched"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// Request is a job submission: which capability to run (run, sweep,
// pipeline, analyze, lint), on what workload and sizes, on which
// simulated machine, under what fault plan. The zero values of the
// optional fields mean "the default"; Normalize resolves them, so the
// request stored in the manifest — and hashed into the cache key — is
// always explicit.
type Request struct {
	// Kind selects the capability: "run" (one observed point), "sweep"
	// (observed sweep over Sizes), "pipeline" (sequential-vs-overlapped
	// sweep), "analyze" (model-only prediction, no simulation), or
	// "lint" (static kernel analysis, no simulation).
	Kind string `json:"kind"`
	// Workload names an entry of the experiments workload registry:
	// vecadd, reduce, matmul, scan, histogram, histogram-priv, compact,
	// topk or montecarlo ("pipeline" takes vecadd, reduce and matmul, the
	// entries with a pipelined variant).
	Workload string `json:"workload"`
	// N is the input size for run/analyze/lint kinds.
	N int `json:"n,omitempty"`
	// Sizes are the sweep sizes for sweep/pipeline kinds (default: the
	// config's standard sweep for the workload).
	Sizes []int `json:"sizes,omitempty"`
	// Device is the simulated GPU preset: gtx650 (default), gtx1080,
	// k40 or tiny.
	Device string `json:"device,omitempty"`
	// Scheme is the transfer scheme: pageable (default), pinned or
	// mapped.
	Scheme string `json:"scheme,omitempty"`
	// SyncCostUs is σ in microseconds (default 50, the EXPERIMENTS.md
	// setup; -1 means zero sync cost).
	SyncCostUs int64 `json:"sync_cost_us,omitempty"`
	// Seed drives the input generators.
	Seed int64 `json:"seed,omitempty"`
	// Chunks is the pipeline chunk/band count (pipeline kind only).
	Chunks int `json:"chunks,omitempty"`

	// FaultRate enables fault injection when > 0 (probability per
	// transfer/launch decision); FaultSeed, MaxRetries and WatchdogUs
	// shape the plan exactly as the CLI flags do.
	FaultRate  float64 `json:"fault_rate,omitempty"`
	FaultSeed  int64   `json:"fault_seed,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
	WatchdogUs int64   `json:"watchdog_us,omitempty"`

	// Trace retains the job's simulated-time Perfetto trace, served at
	// GET /v1/jobs/{id}/trace. Metrics retains the job's simulated-time
	// obs snapshot (Prometheus text), served at GET /v1/jobs/{id}/metrics.
	// Both are byte-identical to a standalone run of the same request and
	// both participate in the cache key: they change the artifact set
	// (and Metrics embeds obs snapshots in the result records).
	Trace   bool `json:"trace,omitempty"`
	Metrics bool `json:"metrics,omitempty"`

	// TimeoutMs bounds the job's execution (0 = server default). Not
	// part of the cache key: it is execution policy, not content.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this job — it neither reads
	// nor writes an entry. The fresh-versus-cached identity tests are
	// built on this.
	NoCache bool `json:"no_cache,omitempty"`
	// Wait makes the submission synchronous: the HTTP response arrives
	// after the job reaches a terminal state.
	Wait bool `json:"wait,omitempty"`
}

// Submission guard rails: a request may be wrong, but it must not be
// able to wedge the daemon.
const (
	maxSweepSizes  = 64
	maxRequestSize = 1 << 26
)

// schemeByName resolves a transfer scheme name.
func schemeByName(name string) (transfer.Scheme, error) {
	switch name {
	case "pageable":
		return transfer.Pageable, nil
	case "pinned":
		return transfer.Pinned, nil
	case "mapped":
		return transfer.Mapped, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want pageable, pinned or mapped)", name)
}

// Normalize validates the request and fills every defaultable field
// explicitly (device, scheme, sync cost, sweep sizes), so equal
// requests normalize to equal values and the cache key sees no
// ambiguity. It returns the explicit request.
func (r Request) Normalize() (Request, error) {
	if r.Device == "" {
		r.Device = "gtx650"
	}
	if r.Scheme == "" {
		r.Scheme = "pageable"
	}
	if r.SyncCostUs == 0 {
		r.SyncCostUs = 50
	} else if r.SyncCostUs == -1 {
		r.SyncCostUs = 0
	} else if r.SyncCostUs < 0 {
		return r, fmt.Errorf("sync_cost_us %d invalid (use -1 for zero)", r.SyncCostUs)
	}
	if _, err := simgpu.Preset(r.Device); err != nil {
		return r, err
	}
	if _, err := schemeByName(r.Scheme); err != nil {
		return r, err
	}
	if r.FaultRate < 0 || r.FaultRate > 1 {
		return r, fmt.Errorf("fault_rate %v outside [0,1]", r.FaultRate)
	}
	if r.MaxRetries < 0 || r.WatchdogUs < 0 || r.TimeoutMs < 0 || r.Chunks < 0 {
		return r, fmt.Errorf("negative max_retries, watchdog_us, timeout_ms or chunks")
	}

	w, err := experiments.Lookup(r.Workload)
	if err != nil {
		return r, fmt.Errorf("kind %q: %w", r.Kind, err)
	}
	if r.Kind == "pipeline" && !w.Pipelined() {
		return r, fmt.Errorf("kind %q: workload %q has no pipelined variant", r.Kind, r.Workload)
	}

	switch r.Kind {
	case "run", "analyze", "lint":
		if r.N <= 0 || r.N > maxRequestSize {
			return r, fmt.Errorf("kind %q needs n in 1..%d, got %d", r.Kind, maxRequestSize, r.N)
		}
		if len(r.Sizes) > 0 {
			return r, fmt.Errorf("kind %q takes n, not sizes", r.Kind)
		}
		r.Chunks = 0
		if r.Kind == "lint" {
			// A lint simulates nothing and stamps no record, so neither
			// the input seed nor the fault plan can reach its report.
			r.Seed, r.FaultRate, r.FaultSeed, r.MaxRetries, r.WatchdogUs = 0, 0, 0, 0, 0
		}
	case "sweep", "pipeline":
		if r.N != 0 {
			return r, fmt.Errorf("kind %q takes sizes, not n", r.Kind)
		}
		if len(r.Sizes) == 0 {
			cfg := experiments.Config{}
			sizes, err := cfg.SweepSizes(r.Workload)
			if err != nil {
				return r, err
			}
			r.Sizes = sizes
		}
		if len(r.Sizes) > maxSweepSizes {
			return r, fmt.Errorf("%d sizes exceed the %d-size limit", len(r.Sizes), maxSweepSizes)
		}
		for _, n := range r.Sizes {
			if n <= 0 || n > maxRequestSize {
				return r, fmt.Errorf("size %d outside 1..%d", n, maxRequestSize)
			}
		}
		if r.Kind != "pipeline" {
			r.Chunks = 0
		}
	default:
		return r, fmt.Errorf("unknown kind %q (want run, sweep, pipeline, analyze or lint)", r.Kind)
	}
	return r, nil
}

// config builds the experiments configuration for a normalized request.
// Workers is pinned to 1: concurrency lives in the server's worker pool,
// and one goroutine per job keeps point index 0 = request N for "run"
// jobs, which the cache key relies on.
func (r Request) config() (experiments.Config, error) {
	dev, err := simgpu.Preset(r.Device)
	if err != nil {
		return experiments.Config{}, err
	}
	scheme, err := schemeByName(r.Scheme)
	if err != nil {
		return experiments.Config{}, err
	}
	cfg := experiments.Config{
		Device:     dev,
		Scheme:     scheme,
		SyncCost:   time.Duration(r.SyncCostUs) * time.Microsecond,
		Seed:       r.Seed,
		Workers:    1,
		Chunks:     r.Chunks,
		FaultRate:  r.FaultRate,
		FaultSeed:  r.FaultSeed,
		MaxRetries: r.MaxRetries,
		Watchdog:   time.Duration(r.WatchdogUs) * time.Microsecond,
	}
	return cfg, cfg.SetSweepSizes(r.Workload, r.sizes())
}

// sizes is the request's point sizes: Sizes, or the single N.
func (r Request) sizes() []int {
	if len(r.Sizes) == 0 {
		return []int{r.N}
	}
	return r.Sizes
}

// Compiled is a normalized request with its machine resolved and each
// size's kernel built once. Admission compiles every job: the build is
// where a bad size (matmul n not a multiple of the warp width) fails,
// the cache key hashes the built kernels, and a lint job analyses them
// instead of building them again. The queued job owns its Compiled;
// nothing is shared across jobs.
type Compiled struct {
	req     Request
	cfg     experiments.Config
	kernels []builtKernel
}

// builtKernel is the kernel one size launches and its block count.
type builtKernel struct {
	prog   *kernel.Program
	blocks int
}

// buildKernel builds a workload's size-n kernel for a warp width (tests
// swap it to count builds).
var buildKernel = (*experiments.Workload).Kernel

// Compile resolves a normalized request's machine and builds the kernel
// of each of its sizes.
func (r Request) Compile() (*Compiled, error) {
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	w, err := experiments.Lookup(r.Workload)
	if err != nil {
		return nil, err
	}
	c := &Compiled{req: r, cfg: cfg}
	for _, n := range r.sizes() {
		prog, blocks, err := buildKernel(w, n, cfg.Device.WarpWidth)
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", n, err)
		}
		c.kernels = append(c.kernels, builtKernel{prog: prog, blocks: blocks})
	}
	return c, nil
}

// CacheKey compiles the request and returns its cache key (see
// Compiled.Key).
func (r Request) CacheKey() (uint64, error) {
	c, err := r.Compile()
	if err != nil {
		return 0, err
	}
	return c.Key(), nil
}

// Key hashes everything that determines the job's result — FNV-1a over
// the kind, the per-size kernel disassemblies, the full machine
// description, the scheme, σ, the sizes and, for the kinds that
// simulate or stamp records, the seed, chunks and fault plan. Execution
// policy (timeout, no_cache, wait) is excluded. Two jobs with equal keys
// produce byte-identical results; that is the contract the cache
// identity tests enforce.
func (c *Compiled) Key() uint64 {
	r, cfg := c.req, c.cfg
	h := fnv.New64a()
	var buf [8]byte
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str("atgpud-cache-v3")
	str(r.Kind)
	str(r.Workload)
	// The observability flags select which artifacts exist (and Metrics
	// adds obs snapshots to the result records), so they are content.
	num(uint64(boolBit(r.Trace)<<1 | boolBit(r.Metrics)))
	// The machine, in full, field by field, so a preset revision
	// invalidates old entries. TestCacheKeyCoversEveryDeviceField fails
	// when a simgpu.Config field is missing here.
	d := cfg.Device
	str(d.Name)
	for _, v := range [...]int{d.NumSMs, d.WarpWidth, d.SharedWords, d.GlobalWords,
		d.MaxBlocksPerSM, d.GlobalLatencyCycles, d.ExtraTransactionCycles,
		d.SharedLatencyCycles, d.MemServiceCycles} {
		num(uint64(v))
	}
	num(math.Float64bits(d.ClockHz))
	num(boolBit(d.SerialiseBankConflicts) | boolBit(d.BroadcastSharedReads)<<1 | boolBit(d.DisableEventSkip)<<2)
	str(r.Scheme)
	num(uint64(cfg.SyncCost))
	// A lint's report is the static analysis of its kernels priced with
	// the calibrated parameters: Normalize cleared these fields, and the
	// key leaves them out.
	if r.Kind != "lint" {
		num(uint64(r.Seed))
		num(uint64(r.Chunks))
		num(math.Float64bits(r.FaultRate))
		num(uint64(r.FaultSeed))
		num(uint64(r.MaxRetries))
		num(uint64(r.WatchdogUs))
	}
	sizes := r.sizes()
	num(uint64(len(sizes)))
	var text []byte
	for i, n := range sizes {
		num(uint64(n))
		// The kernel component: the disassembly of the kernel this size
		// launches, streamed as str would hash it. Pipelined kernels are
		// chunked variants of the same bodies; kind+chunks above keep
		// their keys apart.
		k := c.kernels[i]
		num(uint64(k.blocks))
		text = append(k.prog.AppendDisassembly(text[:0]), 0)
		h.Write(text)
	}
	return h.Sum64()
}

// boolBit maps a flag into the cache-key hash input.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Result is a job's deterministic output document. Exactly one of the
// payload fields is set, per Kind; the surrounding metadata repeats the
// resolved machine so a result is self-describing.
type Result struct {
	Kind       string          `json:"kind"`
	Workload   string          `json:"workload"`
	Device     string          `json:"device"`
	Scheme     string          `json:"scheme"`
	CostParams core.CostParams `json:"cost_params"`

	// Point is the run/analyze payload.
	Point *experiments.WorkloadPoint `json:"point,omitempty"`
	// Points is the sweep payload.
	Points []experiments.WorkloadPoint `json:"points,omitempty"`
	// Pipeline is the pipeline payload.
	Pipeline []experiments.PipelinePoint `json:"pipeline,omitempty"`
	// Lint is the lint payload.
	Lint *analyze.Report `json:"lint,omitempty"`

	// Records carries the same payload in the canonical result-record
	// shape, one per point, stamped with the request's machine identity
	// (but no git or worker stamp — the result must stay deterministic
	// for the cache). The daemon appends these to its result store.
	Records []results.Record `json:"records,omitempty"`

	// FailedPoints counts points that exhausted fault recovery (a
	// deterministic outcome of the fault plan, so still cacheable).
	FailedPoints int `json:"failed_points,omitempty"`
}

// Executor runs jobs. It holds the warmed-system pool: calibrations are
// cached by (device, scheme, σ) — the only inputs calibration depends
// on — so each job builds its isolated runner without re-simulating the
// calibration microkernels. The executor is safe for concurrent use.
type Executor struct {
	mu   sync.Mutex
	cals map[calKey]*calEntry

	// Sched, when non-nil, observes every sweep-point dispatch inside
	// jobs this executor runs (one scheduler job per point). Purely
	// operational — the telemetry plane counts live points through it —
	// and never changes results. Set before first use.
	Sched sched.Observer
}

type calKey struct {
	device string
	scheme string
	sync   time.Duration
}

// calEntry computes one calibration at most once, even under
// concurrent first requests.
type calEntry struct {
	once sync.Once
	link *transfer.Link
	cal  calibrate.Result
	err  error
}

// NewExecutor returns an executor with an empty calibration pool.
func NewExecutor() *Executor {
	return &Executor{cals: make(map[calKey]*calEntry)}
}

// Warm pre-calibrates the named device presets (pageable scheme, the
// default σ) so the first jobs do not pay the calibration. Unknown
// names error; calibration failures surface immediately rather than on
// a request.
func (x *Executor) Warm(devices ...string) error {
	for _, d := range devices {
		req := Request{Kind: "analyze", Workload: "vecadd", N: 1, Device: d}
		req, err := req.Normalize()
		if err != nil {
			return err
		}
		cfg, err := req.config()
		if err != nil {
			return err
		}
		if _, _, err := x.calibration(req, cfg); err != nil {
			return fmt.Errorf("warm %s: %w", d, err)
		}
	}
	return nil
}

// CalibrationsWarmed counts distinct cached calibrations.
func (x *Executor) CalibrationsWarmed() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.cals)
}

// calibration returns the cached calibration for the request's machine,
// computing it once on first use.
func (x *Executor) calibration(req Request, cfg experiments.Config) (*transfer.Link, calibrate.Result, error) {
	k := calKey{device: req.Device, scheme: req.Scheme, sync: cfg.SyncCost}
	x.mu.Lock()
	e, ok := x.cals[k]
	if !ok {
		e = &calEntry{}
		x.cals[k] = e
	}
	x.mu.Unlock()
	e.once.Do(func() {
		e.link, e.cal, e.err = experiments.Calibrate(cfg)
	})
	return e.link, e.cal, e.err
}

// Artifacts is everything a job execution produces: the result document
// plus the optional simulated-time observability artifacts selected by
// Request.Trace and Request.Metrics. All three byte slices, and Records,
// are immutable once built — the cache hands the same *Artifacts to
// every hit, so a cached trace is byte-identical to the fresh run's by
// construction.
type Artifacts struct {
	// Result is the deterministic result document (canonical JSON).
	Result []byte
	// Records are the result document's records (Result.Records), kept
	// decoded so the daemon appends them to its result store without
	// parsing Result back. Readers copy a record before stamping it.
	Records []results.Record
	// Trace is the Perfetto trace JSON (nil unless Request.Trace).
	Trace []byte
	// Metrics is the Prometheus text exposition of the job's
	// simulated-time obs snapshot (nil unless Request.Metrics).
	Metrics []byte
}

// Execute compiles one normalized request, as admission does, runs it
// to completion under ctx and returns its artifacts; the result document
// is canonical JSON — the bytes the cache stores, so a hit is
// byte-identical by construction.
// Cancellation surfaces as experiments.ErrCancelled (the worker maps it
// to the timeout or cancelled state); any other error fails the job.
func (x *Executor) Execute(ctx context.Context, req Request) (*Artifacts, error) {
	c, err := req.Compile()
	if err != nil {
		return nil, err
	}
	return x.execute(ctx, c)
}

// execute runs a compiled job (see Execute).
func (x *Executor) execute(ctx context.Context, c *Compiled) (*Artifacts, error) {
	req, cfg := c.req, c.cfg
	link, cal, err := x.calibration(req, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	cfg.Obs = obs.Options{Trace: req.Trace, Metrics: req.Metrics}
	cfg.SchedObserver = x.Sched
	runner, err := experiments.NewRunnerCalibrated(cfg, link, cal)
	if err != nil {
		return nil, err
	}
	doc := Result{
		Kind:       req.Kind,
		Workload:   req.Workload,
		Device:     req.Device,
		Scheme:     req.Scheme,
		CostParams: runner.CostParams(),
	}

	// rep is the job's folded simulated-time obs report; analyze and
	// lint do not simulate, so their requested artifacts are the valid
	// empty trace / empty exposition.
	var rep *obs.Report

	switch req.Kind {
	case "analyze":
		pt, err := runner.PredictPoint(req.Workload, req.N)
		if err != nil {
			return nil, err
		}
		doc.Point = &pt
		doc.Records = []results.Record{runner.Record("analyze", req.Workload, pt)}
	case "lint":
		k := c.kernels[0]
		if doc.Lint, err = experiments.LintKernel(k.prog, k.blocks, cfg.Device, runner.CostParams()); err != nil {
			return nil, err
		}
	case "run", "sweep":
		data, err := runner.Sweep(req.Workload)
		if err != nil {
			return nil, err
		}
		rep = data.Obs
		doc.FailedPoints = data.FailedPoints()
		doc.Records = data.Records
		if req.Kind == "run" {
			doc.Point = &data.Points[0]
			// The sweep machinery stamped kind "sweep"; a one-point run
			// is its own kind in the store.
			doc.Records[0].Kind = "run"
		} else {
			doc.Points = data.Points
		}
	case "pipeline":
		data, err := runner.SweepPipelined(req.Workload)
		if err != nil {
			return nil, err
		}
		rep = data.Obs
		doc.FailedPoints = data.FailedPoints()
		doc.Pipeline = data.Points
		doc.Records = data.Records
	default:
		return nil, fmt.Errorf("unknown kind %q", req.Kind)
	}

	result, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	art := &Artifacts{Result: result, Records: doc.Records}
	if req.Trace {
		var buf bytes.Buffer
		var tr *obs.Recorder
		if rep != nil {
			tr = rep.Trace
		}
		// A nil recorder writes the valid empty trace, so analyze/lint
		// jobs that asked for a trace still serve well-formed JSON.
		if err := tr.WriteTrace(&buf); err != nil {
			return nil, err
		}
		art.Trace = buf.Bytes()
	}
	if req.Metrics {
		var buf bytes.Buffer
		if err := rep.Snapshot().WritePrometheus(&buf); err != nil {
			return nil, err
		}
		art.Metrics = buf.Bytes()
	}
	return art, nil
}
