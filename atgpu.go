package atgpu

import (
	"atgpu/internal/analyze"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
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

// Options configures a System: the experiments runner configuration it
// wraps — device, transfer scheme, σ, input seed, sweep workers, chunk
// count, fault plan, observability (Obs.Trace, Obs.Metrics) and lint
// pre-flight.
type Options = experiments.Config

// DefaultOptions matches the paper's evaluation setup: GTX650-like device,
// pageable transfers (the cudaMemcpy default, which reproduces the paper's
// ~84% vecadd transfer share), σ = 50 µs.
func DefaultOptions() Options { return experiments.DefaultConfig() }

// System bundles a simulated device, a transfer link and calibrated cost
// parameters — everything needed to both predict (on the abstract model)
// and observe (on the simulator) a workload's running time. It is a thin
// wrapper over an experiments.Runner: every run is a one-point registry
// sweep, the same point `atgpu sweep` and atgpud produce.
type System struct {
	opts   Options
	runner *experiments.Runner
}

// NewSystem validates the options and calibrates cost parameters for the
// device, which takes a few milliseconds of simulation. Calibration always
// runs fault-free: cost parameters describe the healthy machine.
func NewSystem(opts Options) (*System, error) {
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	return &System{opts: opts, runner: r}, nil
}

// CostParams returns the calibrated γ, λ, σ, α, β, k', H.
func (s *System) CostParams() core.CostParams { return s.runner.CostParams() }

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

// Analyze prices a caller-supplied analysis, for algorithms designed
// directly against the model.
func (s *System) Analyze(a *core.Analysis) (*Prediction, error) {
	cp := s.CostParams()
	perfect, err := core.PerfectCost(a, cp)
	if err != nil {
		return nil, err
	}
	bd, err := core.GPUCostBreakdown(a, cp)
	if err != nil {
		return nil, err
	}
	sw, err := models.SWGPUCost(a, cp)
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
	return s.Analyze(a)
}

// AnalyzePipelined prices a registered workload's chunked variant with
// the overlapped-cost model (Expression 2 with per-round pipelining).
func (s *System) AnalyzePipelined(name string, n int) (core.PipelinedCost, error) {
	return s.runner.PredictPipelined(name, n)
}

// Run prices and runs a registered workload at size n on the simulated
// device, verifying its result: the point a one-point `atgpu sweep`, or
// an atgpud run job, of the same configuration returns. Inputs and fault
// seeds derive from (seed, workload, n), as in a sweep. A run that died
// of injected faults comes back Failed rather than as an error.
func (s *System) Run(name string, n int) (experiments.WorkloadPoint, error) {
	return s.runner.Run(name, n)
}

// RunPipelined runs a registered workload's chunked variant at size n
// twice on the same inputs — sequentially on one stream, then overlapped
// on two — and returns both observations next to the overlapped-cost
// model's prediction.
func (s *System) RunPipelined(name string, n int) (experiments.PipelinePoint, error) {
	return s.runner.RunPipelined(name, n)
}

// RunOutOfCoreReduce runs the out-of-core reduction of n words in chunks
// of at most chunkWords (future work §V): the reduce split in ⌈n/chunk⌉
// chunks, serially on one stream and overlapped on two, next to the
// overlapped-cost model's prediction of both.
func (s *System) RunOutOfCoreReduce(n, chunkWords int) (experiments.PipelinePoint, error) {
	points, err := s.runner.RunOutOfCore(n, []int{chunkWords})
	if err != nil {
		return experiments.PipelinePoint{}, err
	}
	return points[0], nil
}

// Lint statically analyses a kernel for a launch of the given block count on
// this system's device, without running anything: shared-memory races,
// barrier divergence, out-of-bounds accesses, memory-performance hazards and
// an Expression (1)/(2) cost estimate using the calibrated parameters.
func (s *System) Lint(prog *kernel.Program, blocks int) (*analyze.Report, error) {
	cp := s.CostParams()
	return analyze.Program(prog, analyze.Options{
		Machine: analyze.FromConfig(s.opts.Device),
		Blocks:  blocks,
		Cost:    &cp,
	})
}

// TableI returns the paper's model feature comparison.
func TableI() string { return models.TableI() }
