// Package experiments reproduces the paper's evaluation (Section IV): the
// predicted-versus-observed study of vector addition, reduction and matrix
// multiplication on the ATGPU model, regenerating the data behind
// Figures 3–6, Table I and the Section IV-D summary statistics.
//
// Methodology, following the paper: for each workload and input size we
// compute the ATGPU GPU-cost (Expression 2) and the SWGPU cost ("the GPU
// cost function of our model minus the data transfer"), then execute the
// same workload on the simulated GTX 650 observing kernel time and total
// time. Cost parameters are calibrated once per device by the calibrate
// package. Figures compare growth trends; Figure 6 compares the predicted
// transfer proportion Δ_T against the observed Δ_E.
//
// Input sizes default to a scaled-down sweep so the full suite runs in
// seconds; Full mode uses the paper's exact sizes (n up to 10⁷ elements,
// 2²⁶ reduction inputs, 1024² matrices), which take minutes under the
// cycle-level simulator.
//
// Sweeps execute their points on Config.Workers goroutines. Every point is
// fully isolated — its own Host/Device/Engine per the simgpu concurrency
// contract — and draws its inputs and fault seeds from (Seed, workload, N,
// point index) alone, so sweep output is byte-identical for any worker
// count.
package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/calibrate"
	"atgpu/internal/core"
	"atgpu/internal/faults"
	"atgpu/internal/models"
	"atgpu/internal/obs"
	"atgpu/internal/results"
	"atgpu/internal/sched"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// ErrCancelled is returned (alongside the partial data) when a sweep's
// Config.Context is cancelled mid-run: every point that completed before
// the cancellation is present, the rest are recorded as Failed with a
// cancellation message, and the caller decides whether to flush the
// partial results (the CLIs do, before exiting nonzero).
var ErrCancelled = errors.New("experiments: sweep cancelled")

// Config selects the device, transfer scheme and sweep scale.
type Config struct {
	// Device is the simulated GPU preset.
	Device simgpu.Config
	// Scheme selects the host↔device transfer technique.
	Scheme transfer.Scheme
	// SyncCost is σ, the fixed per-round synchronisation charge.
	SyncCost time.Duration
	// Full switches to the paper's exact input sizes.
	Full bool
	// Seed drives the random input generators.
	Seed int64
	// SizesVecAdd, SizesReduce and SizesMatMul override the sweep sizes
	// when non-nil (used by tests and custom studies); Full is then
	// ignored for that workload. Scan reads SizesReduce.
	SizesVecAdd []int
	SizesReduce []int
	SizesMatMul []int
	// SizesHistogram, SizesCompact, SizesTopK and SizesMonteCarlo override
	// the atomic-workload sweep sizes the same way.
	SizesHistogram  []int
	SizesCompact    []int
	SizesTopK       []int
	SizesMonteCarlo []int

	// Workers is the number of goroutines a sweep dispatches its points
	// to. 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the points
	// sequentially on the calling goroutine. Output is byte-identical for
	// any worker count: points derive all randomness from (Seed, workload,
	// N, point index), never from execution order.
	Workers int

	// Context, when non-nil, cancels the sweep between points: points
	// already dispatched run to completion, the rest are recorded as
	// Failed ("cancelled before start") and the sweep returns the partial
	// data with ErrCancelled. Nil means never cancelled.
	Context context.Context

	// Chunks is the chunk (or matmul band) count of the pipelined sweeps
	// and runs (SweepPipelined, RunPipelined). 0 uses defaultChunks.
	Chunks int

	// FaultRate enables fault injection when > 0: the per-decision
	// probability, in [0,1], of a transfer or launch fault. At 0 (the
	// default) no injector is attached and every output is identical to a
	// build without the fault machinery.
	FaultRate float64
	// FaultSeed drives the injector and retry jitter; the same seed and
	// rate replay the same faults, retries and timeline.
	FaultSeed int64
	// MaxRetries overrides the transfer retry budget when > 0.
	MaxRetries int
	// Watchdog overrides the kernel watchdog timeout when > 0.
	Watchdog time.Duration

	// Obs selects unified tracing/metrics collection for sweep points.
	// Each point records into its own sinks (the per-point hosts are
	// concurrent); the sweep folds them in point order — tagged
	// "<workload> n=<N>" — so the merged report is byte-identical for
	// any worker count. With Obs.Trace set, points also run with a
	// device Tracer attached, embedding per-block spans in the trace.
	Obs obs.Options

	// SchedObserver, when non-nil, receives sched.Observer callbacks for
	// every sweep point dispatched (one scheduler job per point). It is
	// an operational hook — the atgpud telemetry plane counts live
	// points through it — and never affects results: observed and
	// unobserved sweeps are byte-identical.
	SchedObserver sched.Observer

	// Lint arms a static-analysis pre-flight on every point's kernel
	// launches: ModeWarn reports findings to LintWriter, ModeError also
	// refuses launches with error-severity findings. Off by default.
	Lint analyze.Mode
	// LintWriter receives textual lint reports for kernels with findings
	// (nil discards them). Under Workers > 1, reports from different
	// points may interleave, so keep this off stdout when diffing sweeps.
	LintWriter io.Writer
}

// Validate rejects configurations that would otherwise surface as opaque
// failures deep inside a sweep.
func (c Config) Validate() error {
	if c.Device == (simgpu.Config{}) {
		return fmt.Errorf("experiments: zero-value Device config; use a preset such as simgpu.GTX650()")
	}
	if err := c.Device.Validate(); err != nil {
		return fmt.Errorf("experiments: device: %w", err)
	}
	if c.SyncCost < 0 {
		return fmt.Errorf("experiments: negative SyncCost %v", c.SyncCost)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: negative Workers %d", c.Workers)
	}
	if c.Chunks < 0 {
		return fmt.Errorf("experiments: negative Chunks %d", c.Chunks)
	}
	for _, s := range []struct {
		name  string
		sizes []int
	}{
		{"SizesVecAdd", c.SizesVecAdd},
		{"SizesReduce", c.SizesReduce},
		{"SizesMatMul", c.SizesMatMul},
		{"SizesHistogram", c.SizesHistogram},
		{"SizesCompact", c.SizesCompact},
		{"SizesTopK", c.SizesTopK},
		{"SizesMonteCarlo", c.SizesMonteCarlo},
	} {
		for _, n := range s.sizes {
			if n <= 0 {
				return fmt.Errorf("experiments: %s contains non-positive size %d", s.name, n)
			}
		}
	}
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return fmt.Errorf("experiments: FaultRate %v outside [0,1]", c.FaultRate)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("experiments: negative MaxRetries %d", c.MaxRetries)
	}
	if c.Watchdog < 0 {
		return fmt.Errorf("experiments: negative Watchdog %v", c.Watchdog)
	}
	return nil
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctx resolves the cancellation context (nil = never cancelled).
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// DefaultConfig returns the GTX650-like setup used throughout
// EXPERIMENTS.md: pageable transfers (the cudaMemcpy default, which
// reproduces the paper's ~84% vecadd transfer share), σ = 50 µs,
// scaled-down sweeps.
func DefaultConfig() Config {
	return Config{
		Device:   simgpu.GTX650(),
		Scheme:   transfer.Pageable,
		SyncCost: 50 * time.Microsecond,
		Seed:     1,
	}
}

// Runner executes workload sweeps with calibrated cost parameters. A
// Runner is safe for concurrent use: sweeps spawn their own hosts, all
// shared state (link, calibrated parameters, config) is read-only after
// construction, and each running point holds its own scratch buffer.
type Runner struct {
	cfg    Config
	link   *transfer.Link
	params core.CostParams
	calib  calibrate.Result
	// scratch holds the idle point scratch buffers (see pointScratch).
	scratch scratchPool
	// shapes, when set, is the shape memo of this runner's devices in
	// place of the process's (sharedShapes); tests and benches that must
	// see first-sight launches give a runner its own.
	shapes *simgpu.ShapeMemo
}

// sharedShapes is the shape memo (simgpu.ShapeMemo) of every device the
// package builds: sweep points and calibration alike, in every Runner of
// the process, so a shape that comes back in a later sweep, a later
// atgpud job or a later calibration is timed once. Its prover is
// analyze.UniformProver.
var sharedShapes = simgpu.NewShapeMemo(analyze.UniformProver)

// shapeMemo returns the shape memo of the runner's devices.
func (r *Runner) shapeMemo() *simgpu.ShapeMemo {
	if r.shapes != nil {
		return r.shapes
	}
	return sharedShapes
}

// NewRunner calibrates cost parameters on a throwaway device and returns a
// ready runner. Calibration always runs fault-free: cost parameters
// describe the healthy machine.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	link, cal, err := Calibrate(cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, link: link, params: cal.Params, calib: cal}, nil
}

// Calibrate runs the fault-free cost-parameter calibration for a config's
// device, scheme and σ, returning the link the runner should transfer
// over and the calibration result. Calibration depends only on (Device,
// Scheme, SyncCost), so callers serving many configurations — the atgpud
// service — cache the result by that key and build runners with
// NewRunnerCalibrated instead of paying a calibration per request.
func Calibrate(cfg Config) (*transfer.Link, calibrate.Result, error) {
	link := transfer.PCIeGen3x8Link()

	calCfg := cfg.Device
	// The memory microkernel halves its launch to fit at most 1<<22
	// words, and the device holds exactly the words it then reads.
	if calCfg.GlobalWords > 1<<22 {
		calCfg.GlobalWords = 1 << 22
	}
	_, words, err := calibrate.MemoryFootprint(calCfg)
	if err != nil {
		return nil, calibrate.Result{}, err
	}
	calCfg.GlobalWords = words
	dev, err := simgpu.New(calCfg)
	if err != nil {
		return nil, calibrate.Result{}, err
	}
	dev.SetShapeMemo(sharedShapes)
	eng, err := transfer.NewEngine(link, cfg.Scheme)
	if err != nil {
		return nil, calibrate.Result{}, err
	}
	cal, err := calibrate.Run(dev, eng, cfg.SyncCost)
	if err != nil {
		return nil, calibrate.Result{}, err
	}
	return link, cal, nil
}

// NewRunnerCalibrated builds a runner from an existing calibration —
// obtained from Calibrate (or another runner's Calibration) for the same
// Device, Scheme and SyncCost. It validates the config but runs no
// simulation, so it is cheap enough to build per request.
func NewRunnerCalibrated(cfg Config, link *transfer.Link, cal calibrate.Result) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, fmt.Errorf("experiments: nil link")
	}
	return &Runner{cfg: cfg, link: link, params: cal.Params, calib: cal}, nil
}

// CostParams exposes the calibrated parameters.
func (r *Runner) CostParams() core.CostParams { return r.params }

// Calibration exposes the full calibration result.
func (r *Runner) Calibration() calibrate.Result { return r.calib }

// Config returns the runner configuration.
func (r *Runner) Config() Config { return r.cfg }

// modelParams builds the abstract machine instance for a launch of
// blocks thread blocks: the perfect GPU has one multiprocessor per block;
// M and G follow the concrete device so feasibility checks bind.
func modelParams(dev simgpu.Config, blocks int) core.Params {
	return core.ForProblem(blocks, dev.WarpWidth, dev.SharedWords, dev.GlobalWords)
}

// derivedSeed hashes (base, domain, workload, n, idx) into a deterministic
// non-negative rand.Source seed. Points seeded this way are independent of
// execution order, which is what makes parallel sweeps byte-identical to
// sequential ones; the domain tag keeps input streams and fault streams
// apart even when Seed == FaultSeed.
func derivedSeed(base int64, domain, workload string, n, idx int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(domain))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(idx))
	h.Write(buf[:])
	return int64(h.Sum64() & (1<<63 - 1))
}

// inputSeed is the rand.Source seed of one sweep point's inputs.
func (r *Runner) inputSeed(workload string, n, idx int) int64 {
	return derivedSeed(r.cfg.Seed, "input", workload, n, idx)
}

// alignSlack is the words newHost adds to a footprint for alignment.
func alignSlack(warp int) int { return 4 * warp }

// newHost builds a device+host pair whose global memory holds footprint
// words (plus alignment slack), so sweeps over large n do not allocate the
// preset's full G per point. A footprint the preset cannot hold fails here,
// naming the workload and size, rather than as an opaque Malloc error
// mid-sweep.
//
// With FaultRate > 0, the pair is armed with a fresh seeded injector
// shared between the transfer engine and the host, so one fault log covers
// the whole point; the injector seed derives from (FaultSeed, workload, n,
// idx) so sweeps replay exactly at any worker count.
func (r *Runner) newHost(footprint int, workload string, n, idx int) (*simgpu.Host, error) {
	return r.newHostIn(new(pointScratch), footprint, workload, n, idx)
}

// newHostIn is newHost with the device's global memory in s's array.
func (r *Runner) newHostIn(s *pointScratch, footprint int, workload string, n, idx int) (*simgpu.Host, error) {
	devCfg := r.cfg.Device
	slack := alignSlack(devCfg.WarpWidth)
	need := footprint + slack
	if need > devCfg.GlobalWords {
		return nil, fmt.Errorf("experiments: %s n=%d: footprint %d words (+%d alignment slack) exceeds device %s global memory G=%d",
			workload, n, footprint, slack, devCfg.Name, devCfg.GlobalWords)
	}
	devCfg.GlobalWords = need
	dev, err := s.device(devCfg)
	if err != nil {
		return nil, err
	}
	dev.SetShapeMemo(r.shapeMemo())
	eng, err := transfer.NewEngine(r.link, r.cfg.Scheme)
	if err != nil {
		return nil, err
	}
	h, err := simgpu.NewHost(dev, eng, r.cfg.SyncCost)
	if err != nil {
		return nil, err
	}
	if r.cfg.FaultRate > 0 {
		seed := derivedSeed(r.cfg.FaultSeed, "fault", workload, n, idx)
		inj, err := faults.NewRate(faults.RateConfig{
			Seed:         seed,
			TransferRate: r.cfg.FaultRate,
			KernelRate:   r.cfg.FaultRate,
		})
		if err != nil {
			return nil, err
		}
		policy := transfer.DefaultRetryPolicy()
		if r.cfg.MaxRetries > 0 {
			policy.MaxRetries = r.cfg.MaxRetries
		}
		policy.Seed = seed + 1
		if err := eng.SetFaults(inj, policy); err != nil {
			return nil, err
		}
		if err := h.SetFaults(inj, r.cfg.Watchdog, 0); err != nil {
			return nil, err
		}
	}
	if r.cfg.Obs.Enabled() {
		h.SetObs(r.cfg.Obs.New())
		if r.cfg.Obs.Trace {
			h.SetTracer(&simgpu.Tracer{MaxEvents: r.cfg.Obs.TraceMaxEvents})
		}
	}
	if r.cfg.Lint != analyze.ModeOff {
		// Analyse against the footprint-sized device the point actually
		// launches on, so bounds findings match its traps.
		cp := r.params
		h.SetPreLaunch(analyze.Gate(analyze.FromConfig(devCfg), &cp,
			r.cfg.Lint, r.cfg.LintWriter))
	}
	return h, nil
}

// WorkloadPoint is one input size's predicted and observed outcome.
type WorkloadPoint struct {
	// N is the input size (vector length or matrix side).
	N int
	// ATGPUCost and SWGPUCost are the predicted costs in seconds.
	ATGPUCost, SWGPUCost float64
	// TotalTime and KernelTime are the observed simulated times in
	// seconds; TransferTime and SyncTime complete the decomposition.
	TotalTime, KernelTime, TransferTime, SyncTime float64
	// DeltaPredicted is Δ_T, the predicted transfer share of cost.
	DeltaPredicted float64
	// DeltaObserved is Δ_E, the observed transfer share of total time.
	DeltaObserved float64

	// Failed marks a point whose observed run died despite the recovery
	// machinery (retry or relaunch budget exhausted). The sweep records
	// it — timings partial, Err and FaultLog filled — and continues.
	Failed bool
	// Err is the failure message when Failed.
	Err string
	// Transfers carries the point's full transfer-engine totals,
	// including the retry/corruption/drop/stall resilience counters.
	Transfers transfer.Stats
	// Resilience carries the host's fault-recovery counters (watchdog
	// fires, relaunches, degraded launches, failed SMs).
	Resilience simgpu.ResilienceStats
	// FaultLog holds the injector's event log for the point.
	FaultLog []string
	// Obs is the point's observability report (nil unless Config.Obs
	// enables collection).
	Obs *obs.Report

	// Rounds and Stats are the observed run's round count and kernel
	// counters, for `atgpu run` to print. They stay out of the records
	// and of atgpud's result JSON, so record hashes and cached results
	// do not move.
	Rounds int                `json:"-"`
	Stats  simgpu.KernelStats `json:"-"`
	// MemoElided is how many blocks the point's launches skipped the
	// timing of by block memoization (simgpu.Device.MemoElided), for the
	// benchmarks to report; like Stats it stays out of the records.
	MemoElided int64 `json:"-"`
	// Launches is how many kernel launches the point made
	// (simgpu.Host.Launches), for the benchmarks to report; it stays out
	// of the records too.
	Launches int `json:"-"`
}

// Degraded reports whether the point needed any fault recovery.
func (p WorkloadPoint) Degraded() bool {
	return p.Failed || p.Transfers.Faulted() || p.Resilience.Degraded()
}

// WorkloadData is one workload's full sweep.
type WorkloadData struct {
	// Workload names the algorithm ("vecadd", "reduce", "matmul").
	Workload string
	// Points holds one entry per input size, ascending; under fault
	// injection some may be Failed. Figures and summaries use Successful.
	Points []WorkloadPoint
	// Records holds the canonical result records, one per point in
	// point order, stamped with the run identity (machine, seed,
	// workers, fault plan). Summaries, figures and every persistence
	// path render from these.
	Records []results.Record
	// Transfers and Resilience aggregate every point's engine and host
	// totals — failed points included — folded in point order with the
	// stats Merge methods (via results.Fold over Records).
	Transfers  transfer.Stats
	Resilience simgpu.ResilienceStats
	// Obs folds every point's report in point order, each tagged
	// "<workload> n=<N>" (nil unless Config.Obs enables collection).
	Obs *obs.Report
}

// Successful returns the non-failed points, preserving order.
func (w *WorkloadData) Successful() []WorkloadPoint {
	ok := make([]WorkloadPoint, 0, len(w.Points))
	for _, p := range w.Points {
		if !p.Failed {
			ok = append(ok, p)
		}
	}
	return ok
}

// FailedPoints counts the points that exhausted recovery.
func (w *WorkloadData) FailedPoints() int {
	return countFailed(w.Points, func(p WorkloadPoint) bool { return p.Failed })
}

// countFailed counts the points failed reports.
func countFailed[P any](points []P, failed func(P) bool) int {
	n := 0
	for _, p := range points {
		if failed(p) {
			n++
		}
	}
	return n
}

// Sizes returns the x vector over successful points.
func (w *WorkloadData) Sizes() []float64 { return results.Sizes(w.records()) }

// records returns the canonical records, deriving bare ones (payload
// only, no run identity) when the sweep was assembled by hand — test
// fixtures and partial data — rather than by a runner.
func (w *WorkloadData) records() []results.Record {
	if w.Records != nil {
		return w.Records
	}
	recs := make([]results.Record, len(w.Points))
	for i, p := range w.Points {
		recs[i] = PointRecord("sweep", w.Workload, p)
	}
	return recs
}

// PointRecord converts one sweep point into the canonical record
// shape: payload only — predicted/observed costs, engine and recovery
// counters, metrics snapshot — with no run identity stamped. Runner
// sweeps stamp identity on top (see WorkloadData.Records); callers
// assembling records outside a runner get the bare conversion.
func PointRecord(kind, workload string, pt WorkloadPoint) results.Record {
	rec := results.Record{
		Kind:     kind,
		Workload: workload,
		N:        pt.N,
		Failed:   pt.Failed,
		Err:      pt.Err,
	}
	if pt.ATGPUCost != 0 || pt.SWGPUCost != 0 || pt.DeltaPredicted != 0 {
		rec.Predicted = &results.Predicted{
			ATGPUCost: pt.ATGPUCost,
			SWGPUCost: pt.SWGPUCost,
			Delta:     pt.DeltaPredicted,
		}
	}
	if pt.TotalTime > 0 || pt.Failed {
		rec.Observed = &results.Observed{
			TotalS:    pt.TotalTime,
			KernelS:   pt.KernelTime,
			TransferS: pt.TransferTime,
			SyncS:     pt.SyncTime,
			Delta:     pt.DeltaObserved,
		}
	}
	setCounters(&rec, pt.Transfers, pt.Resilience)
	if snap := pt.Obs.Snapshot(); !snap.Empty() {
		rec.Obs = &snap
	}
	return rec
}

// setCounters attaches the non-zero transfer and recovery counters to
// rec. The copies are taken inside the branches so that zero counters
// cost no allocation.
func setCounters(rec *results.Record, tf transfer.Stats, rs simgpu.ResilienceStats) {
	if tf != (transfer.Stats{}) {
		t := tf
		rec.Transfers = &t
	}
	if rs != (simgpu.ResilienceStats{}) {
		r := rs
		rec.Resilience = &r
	}
}

// withFailure, record and report make WorkloadPoint a sweepPoint.
func (p WorkloadPoint) withFailure(f WorkloadPoint) WorkloadPoint { return f }

func (p WorkloadPoint) record(workload string) results.Record {
	return PointRecord("sweep", workload, p)
}

func (p WorkloadPoint) report() (*obs.Report, int) { return p.Obs, p.N }

// Record converts one point into the canonical record stamped with
// this runner's full run identity: the machine (device, scheme, σ),
// the input seed and the fault plan.
func (r *Runner) Record(kind, workload string, pt WorkloadPoint) results.Record {
	rec := PointRecord(kind, workload, pt)
	r.stampIdentity(&rec)
	return rec
}

// stampIdentity fills a record's run-identity fields from the config.
// The git stamp and worker count are deliberately not set here: sweep
// data must be byte-identical for any worker count and across commits
// that don't change behaviour, so the CLIs stamp both on the records
// they persist.
func (r *Runner) stampIdentity(rec *results.Record) {
	rec.Seed = r.cfg.Seed
	rec.Machine = &results.Machine{
		Device:     r.cfg.Device,
		Scheme:     r.cfg.Scheme.String(),
		SyncCostUs: r.cfg.SyncCost.Microseconds(),
	}
	if r.cfg.FaultRate > 0 {
		rec.Faults = &results.FaultPlan{
			Rate:       r.cfg.FaultRate,
			Seed:       r.cfg.FaultSeed,
			MaxRetries: r.cfg.MaxRetries,
			WatchdogUs: r.cfg.Watchdog.Microseconds(),
		}
	}
}

// sweepPoint is a point type runSweep assembles: WorkloadPoint for plain
// sweeps, PipelinePoint for pipelined ones.
type sweepPoint[P any] interface {
	// withFailure returns the point that stands in for one that panicked
	// or was cancelled: f carries the size, Failed, Err and fault log.
	withFailure(f WorkloadPoint) P
	// record converts the point into its canonical record, payload only.
	record(workload string) results.Record
	// report returns the point's obs report and size.
	report() (*obs.Report, int)
}

// runSweep executes one point per size through point, dispatching to the
// configured worker count via the shared scheduler, and returns the
// points in size order with their identity-stamped records and the
// folded obs report. Each point call must be self-contained (its own
// host, its own derived seeds) so the assembly is byte-identical for any
// worker count. On error the sweep reports the lowest-index failure — the
// same error a sequential run would have stopped on, since every earlier
// point succeeded. A panicking point does not crash the sweep (or the
// process hosting it): it is recorded as a Failed point with the stack in
// its fault log. Cancellation via Config.Context records undispatched
// points as Failed and returns the partial data with ErrCancelled.
func runSweep[P sweepPoint[P]](r *Runner, workload string, sizes []int, point func(idx, n int) (P, error)) ([]P, []results.Record, *obs.Report, error) {
	points := make([]P, len(sizes))
	errs := sched.RunOpts(r.cfg.ctx(), len(sizes),
		sched.Options{Workers: r.cfg.workers(), Observer: r.cfg.SchedObserver},
		func(i int) error {
			pt, err := point(i, sizes[i])
			if err != nil {
				return err
			}
			points[i] = pt
			return nil
		})
	cancelled, err := absorbSweepErrs(errs, func(i int, failed WorkloadPoint) {
		failed.N = sizes[i]
		points[i] = points[i].withFailure(failed)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	recs := make([]results.Record, len(points))
	for i := range points {
		recs[i] = points[i].record(workload)
		r.stampIdentity(&recs[i])
	}
	rep := r.foldObs(workload, len(points), func(i int) (*obs.Report, int) { return points[i].report() })
	if cancelled {
		err = ErrCancelled
	}
	return points, recs, rep, err
}

// absorbSweepErrs folds a scheduler error slice into per-point outcomes:
// panics and cancellations become Failed points (delivered through
// record), any other error — a genuine configuration or programming
// failure — aborts the sweep with the lowest-index occurrence, exactly as
// before the scheduler extraction. The returned flag reports whether any
// point was cancelled.
func absorbSweepErrs(errs []error, record func(i int, failed WorkloadPoint)) (cancelled bool, err error) {
	for i, e := range errs {
		var pe *sched.PanicError
		switch {
		case e == nil:
		case errors.As(e, &pe):
			record(i, WorkloadPoint{
				Failed:   true,
				Err:      pe.Error(),
				FaultLog: []string{"panic stack:\n" + string(pe.Stack)},
			})
		case errors.Is(e, sched.ErrCancelled):
			record(i, WorkloadPoint{Failed: true, Err: e.Error()})
			cancelled = true
		default:
			return false, e
		}
	}
	return cancelled, nil
}

// foldObs merges count per-point reports in point order, each tagged
// "<workload> n=<N>" (nil with observability off), so the merged report
// is byte-identical for any worker count.
func (r *Runner) foldObs(workload string, count int, point func(i int) (*obs.Report, int)) *obs.Report {
	if !r.cfg.Obs.Enabled() {
		return nil
	}
	rep := r.newSweepReport()
	for i := 0; i < count; i++ {
		pr, n := point(i)
		rep.Merge(pr, fmt.Sprintf("%s n=%d", workload, n))
	}
	return rep
}

// newSweepReport builds the empty fold target for per-point reports,
// with a recorder attached when tracing is on so MergeTagged has a
// destination.
func (r *Runner) newSweepReport() *obs.Report {
	rep := &obs.Report{}
	if r.cfg.Obs.Trace {
		rep.Trace = obs.NewRecorder(r.cfg.Obs.TraceMaxEvents)
	}
	return rep
}

// Sweep runs the named workload's predicted-versus-observed sweep over
// Config.SweepSizes: every point prices Expression (2) and SWGPU on the
// workload's analysis, then runs and verifies it on a fresh host sized to
// its footprint (paper §IV).
func (r *Runner) Sweep(workload string) (*WorkloadData, error) {
	w, err := Lookup(workload)
	if err != nil {
		return nil, err
	}
	return r.sweep(w, w.sweepSizes(r.cfg))
}

// Run runs the named workload's size-n point as a one-point Sweep: the
// point atgpud's run job returns for the same configuration. A point
// whose run died of injected faults comes back Failed, as in a sweep.
func (r *Runner) Run(workload string, n int) (WorkloadPoint, error) {
	w, err := Lookup(workload)
	if err != nil {
		return WorkloadPoint{}, err
	}
	data, err := r.sweep(w, []int{n})
	if err != nil {
		return WorkloadPoint{}, err
	}
	return data.Points[0], nil
}

// sweep runs w's points over sizes.
func (r *Runner) sweep(w *Workload, sizes []int) (*WorkloadData, error) {
	globalWords := r.sweepGlobalWords(sizes, func(n int) int { return w.footprint(n, r.cfg.Device.WarpWidth) })
	inputWords := w.sweepInputWords(sizes)
	points, recs, rep, err := runSweep(r, w.Name, sizes, func(idx, n int) (WorkloadPoint, error) {
		s := r.scratch.get(globalWords, inputWords)
		defer r.scratch.put(s)
		return r.sweepPoint(w, s, idx, n)
	})
	if err != nil && !errors.Is(err, ErrCancelled) {
		return nil, err
	}
	agg := results.Fold(recs)
	return &WorkloadData{Workload: w.Name, Points: points, Records: recs,
		Transfers: agg.Transfers, Resilience: agg.Resilience, Obs: rep}, err
}

// sweepGlobalWords is the global memory of the largest device a sweep
// over sizes builds: the largest footprint(n) plus alignment slack,
// capped at the preset's G, past which newHostIn fails the point before
// building a device.
func (r *Runner) sweepGlobalWords(sizes []int, footprint func(n int) int) int {
	words := 0
	for _, n := range sizes {
		words = max(words, footprint(n)+alignSlack(r.cfg.Device.WarpWidth))
	}
	return min(words, r.cfg.Device.GlobalWords)
}

// RunVecAdd sweeps vector addition (paper §IV-A).
func (r *Runner) RunVecAdd() (*WorkloadData, error) { return r.Sweep("vecadd") }

// RunMatMul sweeps matrix multiplication (paper §IV-C).
func (r *Runner) RunMatMul() (*WorkloadData, error) { return r.Sweep("matmul") }

// sweepPoint is one sweep point of w: analyse, predict, then observe
// inside observePoint so fault casualties are recorded, not fatal. The
// observed run's device memory and inputs live in s.
func (r *Runner) sweepPoint(w *Workload, s *pointScratch, idx, n int) (WorkloadPoint, error) {
	analysis, err := w.Analyze(n, r.cfg.Device)
	if err != nil {
		return WorkloadPoint{}, fmt.Errorf("%s n=%d: analyze: %w", w.Name, n, err)
	}
	pt, err := r.predict(analysis, n)
	if err != nil {
		return WorkloadPoint{}, fmt.Errorf("%s n=%d: predict: %w", w.Name, n, err)
	}

	err = r.observePoint(&pt, func() (*simgpu.Host, error) {
		h, err := r.newHostIn(s, w.footprint(n, r.cfg.Device.WarpWidth), w.Name, n, idx)
		if err != nil {
			return nil, err
		}
		s.rng.seed(r.inputSeed(w.Name, n, idx))
		if err := w.observe(h, n, s); err != nil {
			return h, fmt.Errorf("%s n=%d: %w", w.Name, n, err)
		}
		return h, nil
	})
	return pt, err
}

// PredictPoint prices one workload size on the abstract model without
// running the simulator: a WorkloadPoint with only the model-side fields
// (ATGPUCost, SWGPUCost, DeltaPredicted) and N filled — the "analyze"
// half of a sweep point. atgpud serves its analyze jobs through this.
func (r *Runner) PredictPoint(workload string, n int) (WorkloadPoint, error) {
	w, err := Lookup(workload)
	if err != nil {
		return WorkloadPoint{}, err
	}
	a, err := w.Analyze(n, r.cfg.Device)
	if err != nil {
		return WorkloadPoint{}, err
	}
	return r.predict(a, n)
}

// predict fills the model-side fields of a size-n point from its
// analysis.
func (r *Runner) predict(a *core.Analysis, n int) (WorkloadPoint, error) {
	pt := WorkloadPoint{N: n}
	bd, err := core.GPUCostBreakdown(a, r.params)
	if err != nil {
		return pt, err
	}
	pt.ATGPUCost = bd.Total()
	pt.DeltaPredicted = bd.TransferFraction()
	sw, err := models.SWGPUCost(a, r.params)
	if err != nil {
		return pt, err
	}
	pt.SWGPUCost = sw
	return pt, nil
}

// faultInduced reports whether err is a genuine recovery-exhaustion
// outcome of injected faults — the only failures a faulted sweep may
// absorb into a point. Anything else (allocation failures, invalid
// launches, programming errors) must surface to the caller.
func faultInduced(err error) bool {
	return errors.Is(err, transfer.ErrRetriesExhausted) ||
		errors.Is(err, simgpu.ErrWatchdogExhausted) ||
		errors.Is(err, algorithms.ErrVerifyFail)
}

// observePoint runs one sweep point's observed simulation with per-point
// fault isolation: under injection (FaultRate > 0) a recovery-exhaustion
// failure is recorded on the point — partial timings, Err, retry counts
// and the fault log — and the sweep continues. Non-fault errors, and every
// error of a fault-free run, propagate unchanged, so configuration and
// programming mistakes are never mistaken for fault casualties. body
// returns the host it ran on (possibly non-nil alongside an error, for
// post-mortem accounting).
func (r *Runner) observePoint(pt *WorkloadPoint, body func() (*simgpu.Host, error)) error {
	h, err := body()
	if err != nil {
		if r.cfg.FaultRate == 0 || !faultInduced(err) {
			return err
		}
		pt.Failed = true
		pt.Err = err.Error()
	}
	if h != nil {
		pt.observe(h)
	}
	return nil
}

// observe fills the simulator-side fields from the host the point ran
// on: its report, fault log (empty without an injector) and obs snapshot.
func (pt *WorkloadPoint) observe(h *simgpu.Host) {
	rep := h.Report()
	pt.TotalTime = rep.Total.Seconds()
	pt.KernelTime = rep.Kernel.Seconds()
	pt.TransferTime = rep.Transfer.Seconds()
	pt.SyncTime = rep.Sync.Seconds()
	pt.DeltaObserved = rep.TransferFraction()

	pt.Rounds = rep.Rounds
	pt.Stats = rep.Stats
	pt.MemoElided = h.Device().MemoElided()
	pt.Launches = h.Launches()
	pt.Transfers = rep.Transfers
	pt.Resilience = rep.Resilience
	for _, ev := range h.FaultEvents() {
		pt.FaultLog = append(pt.FaultLog, ev.String())
	}
	pt.Obs = h.SnapshotObs()
}
