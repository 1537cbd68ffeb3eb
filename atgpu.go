package atgpu

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/calibrate"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/faults"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/obs"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// Word is the model's machine word (64-bit signed integer).
type Word = int64

// LintMode selects the static-analysis pre-flight applied to every kernel
// launch (see internal/analyze).
type LintMode = analyze.Mode

const (
	// LintOff disables the pre-flight; launches are untouched.
	LintOff = analyze.ModeOff
	// LintWarn analyses every launched kernel and reports findings to
	// LintWriter, but never refuses a launch.
	LintWarn = analyze.ModeWarn
	// LintError additionally refuses launches whose kernels carry
	// error-severity findings (races, divergent barriers, definite traps),
	// wrapping ErrLintRefused.
	LintError = analyze.ModeError
)

// ErrLintRefused is wrapped by launch errors when LintError pre-flight finds
// an error-severity problem in a kernel about to launch.
var ErrLintRefused = analyze.ErrRefused

// ParseLintMode reads a LintMode from its flag spelling ("off"/"", "warn",
// "error").
func ParseLintMode(s string) (LintMode, error) { return analyze.ParseMode(s) }

// Options configures a System.
type Options struct {
	// Device selects the simulated GPU; DefaultOptions uses the GTX650
	// preset of the paper's testbed.
	Device simgpu.Config
	// Scheme selects the host↔device transfer technique.
	Scheme transfer.Scheme
	// SyncCost is σ, the fixed synchronisation cost per round.
	SyncCost time.Duration

	// Workers is the goroutine count experiment sweeps built from these
	// options dispatch their points to (see ExperimentConfig). 0 uses
	// runtime.GOMAXPROCS(0); 1 is sequential. Sweep output is identical
	// for any worker count.
	Workers int

	// Chunks is the chunk (or matmul band) count the pipelined runs and
	// sweeps split their inputs into. 0 uses the experiments default (4).
	Chunks int

	// FaultRate enables deterministic fault injection when > 0: the
	// probability, in [0,1], of each transfer or launch drawing a fault.
	// At 0 no injector is attached and behaviour is identical to a build
	// without the fault machinery.
	FaultRate float64
	// FaultSeed drives the injector; the same seed replays the same
	// faults, retries and simulated timeline.
	FaultSeed int64
	// MaxRetries overrides the transfer retry budget when > 0.
	MaxRetries int
	// Watchdog overrides the kernel watchdog timeout when > 0.
	Watchdog time.Duration

	// Trace records every run onto a unified Perfetto timeline: host
	// resource occupancy, per-stream spans, embedded device block spans
	// and transfer/retry/fault events, all in simulated time. Off by
	// default; the uninstrumented path stays allocation-free.
	Trace bool
	// Metrics collects deterministic counters/gauges/histograms across
	// all layers, exposable as JSON or Prometheus text.
	Metrics bool
	// TraceMaxEvents caps the trace recorder (0 = obs.DefaultMaxEvents).
	TraceMaxEvents int

	// Lint arms a static-analysis pre-flight on every kernel launch:
	// LintWarn reports findings, LintError also refuses launches with
	// error-severity findings. Off by default; the unlinted path is
	// untouched.
	Lint LintMode
	// LintWriter receives the textual lint report for kernels with
	// findings (nil discards it; refusal errors carry the worst finding
	// regardless).
	LintWriter io.Writer
}

// ObsOptions translates the observability selection for internal layers.
func (o Options) ObsOptions() obs.Options {
	return obs.Options{Trace: o.Trace, Metrics: o.Metrics, TraceMaxEvents: o.TraceMaxEvents}
}

// DefaultOptions matches the paper's evaluation setup: GTX650-like device,
// pageable transfers (the cudaMemcpy default, which reproduces the paper's
// ~84% vecadd transfer share), σ = 50 µs.
func DefaultOptions() Options {
	return Options{
		Device:   simgpu.GTX650(),
		Scheme:   transfer.Pageable,
		SyncCost: 50 * time.Microsecond,
	}
}

// ExperimentConfig translates the options into a sweep configuration for
// the experiments runner (cmd/atgpu `sweep`, cmd/atgpu-figures), threading
// through the device, transfer scheme, σ, worker count and fault wiring.
func (o Options) ExperimentConfig() experiments.Config {
	return experiments.Config{
		Device:     o.Device,
		Scheme:     o.Scheme,
		SyncCost:   o.SyncCost,
		Seed:       1,
		Workers:    o.Workers,
		Chunks:     o.Chunks,
		FaultRate:  o.FaultRate,
		FaultSeed:  o.FaultSeed,
		MaxRetries: o.MaxRetries,
		Watchdog:   o.Watchdog,
		Obs:        o.ObsOptions(),
		Lint:       o.Lint,
		LintWriter: o.LintWriter,
	}
}

// System bundles a simulated device, a transfer link and calibrated cost
// parameters — everything needed to both predict (on the abstract model)
// and observe (on the simulator) an algorithm's running time.
type System struct {
	opts   Options
	link   *transfer.Link
	params core.CostParams
	// hostSeq numbers the hosts built, giving each run a fresh
	// deterministically seeded fault injector. Atomic so a System shared
	// across goroutines stays race-free (though the sequence each run
	// draws then depends on scheduling; single-goroutine use replays
	// exactly).
	hostSeq atomic.Int64
}

// NewSystem validates the options and calibrates cost parameters for the
// device, which takes a few milliseconds of simulation. Calibration always
// runs fault-free: cost parameters describe the healthy machine.
func NewSystem(opts Options) (*System, error) {
	if err := opts.Device.Validate(); err != nil {
		return nil, err
	}
	if opts.SyncCost < 0 {
		return nil, fmt.Errorf("atgpu: negative sync cost %v", opts.SyncCost)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("atgpu: negative workers %d", opts.Workers)
	}
	if opts.Chunks < 0 {
		return nil, fmt.Errorf("atgpu: negative chunks %d", opts.Chunks)
	}
	if opts.FaultRate < 0 || opts.FaultRate > 1 {
		return nil, fmt.Errorf("atgpu: fault rate %v outside [0,1]", opts.FaultRate)
	}
	if opts.MaxRetries < 0 {
		return nil, fmt.Errorf("atgpu: negative max retries %d", opts.MaxRetries)
	}
	if opts.Watchdog < 0 {
		return nil, fmt.Errorf("atgpu: negative watchdog %v", opts.Watchdog)
	}
	link := transfer.PCIeGen3x8Link()

	calCfg := opts.Device
	if calCfg.GlobalWords > 1<<22 {
		calCfg.GlobalWords = 1 << 22
	}
	dev, err := simgpu.New(calCfg)
	if err != nil {
		return nil, err
	}
	dev.SetUniformProver(analyze.UniformProver)
	eng, err := transfer.NewEngine(link, opts.Scheme)
	if err != nil {
		return nil, err
	}
	cal, err := calibrate.Run(dev, eng, opts.SyncCost)
	if err != nil {
		return nil, err
	}
	return &System{opts: opts, link: link, params: cal.Params}, nil
}

// CostParams returns the calibrated γ, λ, σ, α, β, k', H.
func (s *System) CostParams() core.CostParams { return s.params }

// Options returns the system options.
func (s *System) Options() Options { return s.opts }

// ModelParams returns the perfect-GPU machine instance for a launch of
// blocks thread blocks on this system's device geometry.
func (s *System) ModelParams(blocks int) core.Params {
	return core.ForProblem(blocks, s.opts.Device.WarpWidth,
		s.opts.Device.SharedWords, s.opts.Device.GlobalWords)
}

// Prediction is the model-side account of an algorithm: the per-round
// analysis plus both cost-function evaluations and the SWGPU baseline.
type Prediction struct {
	// Analysis is the per-round ATGPU account.
	Analysis *core.Analysis
	// PerfectCost is Expression (1) in seconds.
	PerfectCost float64
	// GPUCost is Expression (2) in seconds.
	GPUCost float64
	// SWGPUCost is the GPU-cost with transfer removed (the baseline).
	SWGPUCost float64
	// TransferFraction is Δ_T, the predicted transfer share of GPUCost.
	TransferFraction float64
}

func (s *System) predict(a *core.Analysis) (*Prediction, error) {
	perfect, err := core.PerfectCost(a, s.params)
	if err != nil {
		return nil, err
	}
	bd, err := core.GPUCostBreakdown(a, s.params)
	if err != nil {
		return nil, err
	}
	sw, err := models.SWGPUCost(a, s.params)
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Analysis:         a,
		PerfectCost:      perfect,
		GPUCost:          bd.Total(),
		SWGPUCost:        sw,
		TransferFraction: bd.TransferFraction(),
	}, nil
}

// AnalyzeWorkload predicts a registered workload (any name
// experiments.Names lists) at size n, with the launch geometry its
// observed runs use.
func (s *System) AnalyzeWorkload(name string, n int) (*Prediction, error) {
	w, err := experiments.Lookup(name)
	if err != nil {
		return nil, err
	}
	a, err := w.Analyze(n, s.opts.Device)
	if err != nil {
		return nil, err
	}
	return s.predict(a)
}

// AnalyzeVecAdd predicts vector addition of length n (paper §IV-A).
func (s *System) AnalyzeVecAdd(n int) (*Prediction, error) { return s.AnalyzeWorkload("vecadd", n) }

// AnalyzeReduce predicts reduction of length n (paper §IV-B).
func (s *System) AnalyzeReduce(n int) (*Prediction, error) { return s.AnalyzeWorkload("reduce", n) }

// AnalyzeMatMul predicts n×n matrix multiplication (paper §IV-C).
func (s *System) AnalyzeMatMul(n int) (*Prediction, error) { return s.AnalyzeWorkload("matmul", n) }

// Analyze prices a caller-supplied analysis, for algorithms designed
// directly against the model.
func (s *System) Analyze(a *core.Analysis) (*Prediction, error) { return s.predict(a) }

// Observation is the simulator-side account of one run.
type Observation struct {
	// Total, Kernel, Transfer and Sync decompose the simulated wall time.
	Total, Kernel, Transfer, Sync time.Duration
	// Rounds is the number of model rounds executed.
	Rounds int
	// Stats aggregates kernel-side counters (transactions, conflicts…).
	Stats simgpu.KernelStats
	// TransferFraction is Δ_E, the observed transfer share.
	TransferFraction float64
	// Transfers carries the engine totals, including retry and corruption
	// counters under fault injection.
	Transfers transfer.Stats
	// Resilience counts the host's fault-recovery work (all zero without
	// an injector).
	Resilience simgpu.ResilienceStats
	// FaultLog is the injector's event log (nil without an injector).
	FaultLog []string
	// Report carries the run's unified trace and metrics snapshot (nil
	// unless Options.Trace or Options.Metrics is set).
	Report *obs.Report
}

func observation(h *simgpu.Host) Observation {
	rep := h.Report()
	o := Observation{
		Total:            rep.Total,
		Kernel:           rep.Kernel,
		Transfer:         rep.Transfer,
		Sync:             rep.Sync,
		Rounds:           rep.Rounds,
		Stats:            rep.Stats,
		TransferFraction: rep.TransferFraction(),
		Transfers:        rep.Transfers,
		Resilience:       rep.Resilience,
		Report:           h.SnapshotObs(),
	}
	for _, ev := range h.FaultEvents() {
		o.FaultLog = append(o.FaultLog, ev.String())
	}
	return o
}

// newHost builds a fresh device+host pair sized for footprint words. A
// footprint the device preset cannot hold fails here, naming the sizes,
// rather than as an opaque Malloc error mid-run. With FaultRate > 0 the
// pair is armed with a per-run seeded injector shared between the transfer
// engine and the host.
func (s *System) newHost(footprint int) (*simgpu.Host, error) {
	devCfg := s.opts.Device
	slack := 4 * devCfg.WarpWidth
	need := footprint + slack
	if need > devCfg.GlobalWords {
		return nil, fmt.Errorf("atgpu: footprint %d words (+%d alignment slack) exceeds device %s global memory G=%d",
			footprint, slack, devCfg.Name, devCfg.GlobalWords)
	}
	devCfg.GlobalWords = need
	dev, err := simgpu.New(devCfg)
	if err != nil {
		return nil, err
	}
	dev.SetUniformProver(analyze.UniformProver)
	eng, err := transfer.NewEngine(s.link, s.opts.Scheme)
	if err != nil {
		return nil, err
	}
	h, err := simgpu.NewHost(dev, eng, s.opts.SyncCost)
	if err != nil {
		return nil, err
	}
	if s.opts.FaultRate > 0 {
		seq := s.hostSeq.Add(1) - 1
		inj, err := faults.NewRate(faults.RateConfig{
			Seed:         s.opts.FaultSeed + 1_000_003*seq,
			TransferRate: s.opts.FaultRate,
			KernelRate:   s.opts.FaultRate,
		})
		if err != nil {
			return nil, err
		}
		policy := transfer.DefaultRetryPolicy()
		if s.opts.MaxRetries > 0 {
			policy.MaxRetries = s.opts.MaxRetries
		}
		policy.Seed = s.opts.FaultSeed + 1_000_003*seq + 1
		if err := eng.SetFaults(inj, policy); err != nil {
			return nil, err
		}
		if err := h.SetFaults(inj, s.opts.Watchdog, 0); err != nil {
			return nil, err
		}
	}
	if o := s.opts.ObsOptions(); o.Enabled() {
		h.SetObs(o.New())
		if o.Trace {
			// A device tracer embeds per-block spans in the trace.
			h.SetTracer(&simgpu.Tracer{MaxEvents: o.TraceMaxEvents})
		}
	}
	if s.opts.Lint != LintOff {
		// Analyse against the machine the launch actually targets (the
		// footprint-sized device), so bounds findings match its traps.
		cp := s.params
		h.SetPreLaunch(analyze.Gate(analyze.FromConfig(devCfg), &cp,
			s.opts.Lint, s.opts.LintWriter))
	}
	return h, nil
}

// Lint statically analyses a kernel for a launch of the given block count on
// this system's device, without running anything: shared-memory races,
// barrier divergence, out-of-bounds accesses, memory-performance hazards and
// an Expression (1)/(2) cost estimate using the calibrated parameters.
func (s *System) Lint(prog *kernel.Program, blocks int) (*analyze.Report, error) {
	cp := s.params
	return analyze.Program(prog, analyze.Options{
		Machine: analyze.FromConfig(s.opts.Device),
		Blocks:  blocks,
		Cost:    &cp,
	})
}

// RunVecAdd executes A+B on the simulated device and returns the result
// with its observation.
func (s *System) RunVecAdd(a, b []Word) ([]Word, Observation, error) {
	alg := algorithms.VecAdd{N: len(a)}
	h, err := s.newHost(alg.GlobalWords())
	if err != nil {
		return nil, Observation{}, err
	}
	c, err := alg.Run(h, a, b)
	if err != nil {
		return nil, Observation{}, err
	}
	return c, observation(h), nil
}

// RunReduce executes the sum reduction on the simulated device.
func (s *System) RunReduce(input []Word) (Word, Observation, error) {
	alg := algorithms.Reduce{N: len(input)}
	h, err := s.newHost(alg.GlobalWords(s.opts.Device.WarpWidth))
	if err != nil {
		return 0, Observation{}, err
	}
	sum, err := alg.Run(h, input)
	if err != nil {
		return 0, Observation{}, err
	}
	return sum, observation(h), nil
}

// RunMatMul executes C = A×B (row-major n×n) on the simulated device.
func (s *System) RunMatMul(a, b []Word, n int) ([]Word, Observation, error) {
	alg := algorithms.MatMul{N: n}
	h, err := s.newHost(alg.GlobalWords())
	if err != nil {
		return nil, Observation{}, err
	}
	c, err := alg.Run(h, a, b)
	if err != nil {
		return nil, Observation{}, err
	}
	return c, observation(h), nil
}

// RunOutOfCoreReduce executes the partitioned reduction (future work §V),
// comparing serial and overlapped host-communication schedules.
func (s *System) RunOutOfCoreReduce(input []Word, chunkWords int) (algorithms.OutOfCoreResult, error) {
	alg := algorithms.OutOfCoreReduce{N: len(input), ChunkWords: chunkWords}
	b := s.opts.Device.WarpWidth
	footprint := 2*chunkWords + (chunkWords+b-1)/b
	h, err := s.newHost(footprint)
	if err != nil {
		return algorithms.OutOfCoreResult{}, err
	}
	return alg.Run(h, input)
}

// pipelineStreams is the stream count of the facade's overlapped runs:
// classic double buffering, matching the experiments sweeps.
const pipelineStreams = 2

// chunks resolves the effective chunk count of the pipelined runs.
func (o Options) chunks() int {
	if o.Chunks > 0 {
		return o.Chunks
	}
	return 4
}

// analyzePipelined prices a registered workload's chunked variant with
// the overlapped-cost model (Expression 2 with per-round pipelining).
func (s *System) analyzePipelined(name string, n int) (core.PipelinedCost, error) {
	w, err := experiments.Lookup(name)
	if err != nil {
		return core.PipelinedCost{}, err
	}
	a, err := w.AnalyzePipelined(n, s.opts.chunks(), s.opts.Device)
	if err != nil {
		return core.PipelinedCost{}, err
	}
	return core.GPUCostPipelined(a, s.params)
}

// AnalyzeVecAddPipelined prices chunked vector addition with the
// overlapped-cost model.
func (s *System) AnalyzeVecAddPipelined(n int) (core.PipelinedCost, error) {
	return s.analyzePipelined("vecadd", n)
}

// AnalyzeReducePipelined prices the chunked reduction with the
// overlapped-cost model.
func (s *System) AnalyzeReducePipelined(n int) (core.PipelinedCost, error) {
	return s.analyzePipelined("reduce", n)
}

// AnalyzeMatMulPipelined prices row-banded matrix multiplication with the
// overlapped-cost model.
func (s *System) AnalyzeMatMulPipelined(n int) (core.PipelinedCost, error) {
	return s.analyzePipelined("matmul", n)
}

// PipelineRun compares one workload's sequential-chunked schedule against
// the overlapped multi-stream schedule on identical inputs.
type PipelineRun struct {
	// Chunks and Streams describe the overlapped schedule; the sequential
	// baseline runs the same chunks on a single stream.
	Chunks, Streams int
	// Sequential and Pipelined are the two runs' observations.
	Sequential, Pipelined Observation
	// Saving is Sequential.Total − Pipelined.Total.
	Saving time.Duration
	// Report folds both runs' observability reports onto one timeline —
	// the sequential schedule's spans tagged "seq/...", the overlapped
	// schedule's "pipe/..." — so the H2D/compute/D2H overlap is visible
	// next to the baseline in one Perfetto view (nil unless
	// Options.Trace or Options.Metrics is set).
	Report *obs.Report
}

// SavingFraction is the saving over the sequential total (0 when
// degenerate).
func (p PipelineRun) SavingFraction() float64 {
	if p.Sequential.Total <= 0 {
		return 0
	}
	return float64(p.Saving) / float64(p.Sequential.Total)
}

// runPipelined executes both schedules; footprint and run see the stream
// count (1 for the baseline, Streams for the overlapped schedule).
func (s *System) runPipelined(chunks int,
	footprint func(streams int) (int, error),
	run func(h *simgpu.Host, streams int) error) (PipelineRun, error) {
	pr := PipelineRun{Chunks: chunks, Streams: pipelineStreams}
	observe := func(streams int) (Observation, error) {
		words, err := footprint(streams)
		if err != nil {
			return Observation{}, err
		}
		h, err := s.newHost(words)
		if err != nil {
			return Observation{}, err
		}
		if err := run(h, streams); err != nil {
			return Observation{}, err
		}
		return observation(h), nil
	}
	var err error
	if pr.Sequential, err = observe(1); err != nil {
		return pr, err
	}
	if pr.Pipelined, err = observe(pr.Streams); err != nil {
		return pr, err
	}
	pr.Saving = pr.Sequential.Total - pr.Pipelined.Total
	if o := s.opts.ObsOptions(); o.Enabled() {
		pr.Report = &obs.Report{}
		if o.Trace {
			pr.Report.Trace = obs.NewRecorder(o.TraceMaxEvents)
		}
		pr.Report.Merge(pr.Sequential.Report, "seq")
		pr.Report.Merge(pr.Pipelined.Report, "pipe")
	}
	return pr, nil
}

// RunVecAddPipelined executes A+B with the chunked pipeline, returning the
// result of the overlapped run and the schedule comparison.
func (s *System) RunVecAddPipelined(a, b []Word) ([]Word, PipelineRun, error) {
	chunks := s.opts.chunks()
	width := s.opts.Device.WarpWidth
	var out []Word
	pr, err := s.runPipelined(chunks,
		func(streams int) (int, error) {
			return algorithms.PipelinedVecAdd{N: len(a), Chunks: chunks, Streams: streams}.GlobalWords(width)
		},
		func(h *simgpu.Host, streams int) error {
			c, err := algorithms.PipelinedVecAdd{N: len(a), Chunks: chunks, Streams: streams}.Run(h, a, b)
			if err != nil {
				return err
			}
			out = c
			return nil
		})
	return out, pr, err
}

// RunReducePipelined executes the chunked sum reduction with per-chunk
// partials combined on the host.
func (s *System) RunReducePipelined(input []Word) (Word, PipelineRun, error) {
	chunks := s.opts.chunks()
	width := s.opts.Device.WarpWidth
	var sum Word
	pr, err := s.runPipelined(chunks,
		func(streams int) (int, error) {
			return algorithms.PipelinedReduce{N: len(input), Chunks: chunks, Streams: streams}.GlobalWords(width)
		},
		func(h *simgpu.Host, streams int) error {
			got, err := algorithms.PipelinedReduce{N: len(input), Chunks: chunks, Streams: streams}.Run(h, input)
			if err != nil {
				return err
			}
			sum = got
			return nil
		})
	return sum, pr, err
}

// RunMatMulPipelined executes C = A×B by row bands with B resident.
func (s *System) RunMatMulPipelined(a, b []Word, n int) ([]Word, PipelineRun, error) {
	chunks := s.opts.chunks()
	width := s.opts.Device.WarpWidth
	var out []Word
	pr, err := s.runPipelined(chunks,
		func(streams int) (int, error) {
			return algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}.GlobalWords(width)
		},
		func(h *simgpu.Host, streams int) error {
			c, err := algorithms.PipelinedMatMul{N: n, Chunks: chunks, Streams: streams}.Run(h, a, b)
			if err != nil {
				return err
			}
			out = c
			return nil
		})
	return out, pr, err
}

// TableI returns the paper's model feature comparison.
func TableI() string { return models.TableI() }
