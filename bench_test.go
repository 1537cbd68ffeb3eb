package atgpu

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each figure bench regenerates that figure's data at
// a reduced input size so `go test -bench=.` completes in minutes; the
// full-size sweeps (the paper's exact axes) are produced by
// `go run ./cmd/atgpu-figures -full`.
//
// Figure benches report model-fidelity metrics via b.ReportMetric:
// delta_obs (ΔE), delta_pred (ΔT), and the share of observed total time
// each model's cost explains.

import (
	"fmt"
	"testing"

	"atgpu/internal/algorithms"
	"atgpu/internal/calibrate"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/kernel"
	"atgpu/internal/models"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// benchSystem caches one calibrated system across benchmarks.
var benchSystem *System

func getSystem(b *testing.B) *System {
	b.Helper()
	if benchSystem == nil {
		sys, err := NewSystem(DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchSystem = sys
	}
	return benchSystem
}

// --- Table I -----------------------------------------------------------------

// BenchmarkTable1FeatureMatrix regenerates the paper's Table I.
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := models.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 3: vector addition -------------------------------------------------

// BenchmarkFig3aVecAddPredicted evaluates the predicted ATGPU and SWGPU
// cost curves of Figure 3a.
func BenchmarkFig3aVecAddPredicted(b *testing.B) {
	sys := getSystem(b)
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1 << 18, 1 << 19, 1 << 20} {
			p, err := sys.AnalyzeWorkload("vecadd", n)
			if err != nil {
				b.Fatal(err)
			}
			if p.SWGPUCost >= p.GPUCost {
				b.Fatal("SWGPU should be below ATGPU")
			}
		}
	}
}

// BenchmarkFig3bVecAddObserved runs the observed side of Figure 3b: one
// full simulated round (transfer in, kernel, transfer out) at n = 2^18.
func BenchmarkFig3bVecAddObserved(b *testing.B) {
	benchRun(b, "vecadd", 1<<18)
}

// BenchmarkFig3cVecAddNormalised produces the normalised four-series panel
// over a reduced sweep.
func BenchmarkFig3cVecAddNormalised(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SizesVecAdd = []int{1 << 14, 1 << 15, 1 << 16}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		data, err := runner.RunVecAdd()
		if err != nil {
			b.Fatal(err)
		}
		fig := experiments.NormalisedFigure("fig3c", data)
		if len(fig.Series) != 4 {
			b.Fatal("normalised panel needs 4 series")
		}
	}
}

// --- Figure 4: reduction -------------------------------------------------------

// BenchmarkFig4aReductionPredicted evaluates Figure 4a's cost curves.
func BenchmarkFig4aReductionPredicted(b *testing.B) {
	sys := getSystem(b)
	for i := 0; i < b.N; i++ {
		for e := 16; e <= 20; e++ {
			p, err := sys.AnalyzeWorkload("reduce", 1<<e)
			if err != nil {
				b.Fatal(err)
			}
			if p.Analysis.R() < 2 {
				b.Fatal("reduction should be multi-round")
			}
		}
	}
}

// BenchmarkFig4bReductionObserved runs the observed side at n = 2^17:
// the full multi-round ping-pong reduction on the simulated device.
func BenchmarkFig4bReductionObserved(b *testing.B) {
	benchRun(b, "reduce", 1<<17)
}

// --- Figure 5: matrix multiplication -------------------------------------------

// BenchmarkFig5aMatMulPredicted evaluates Figure 5a's cost curves.
func BenchmarkFig5aMatMulPredicted(b *testing.B) {
	sys := getSystem(b)
	for i := 0; i < b.N; i++ {
		for _, n := range []int{32, 64, 128, 256} {
			if _, err := sys.AnalyzeWorkload("matmul", n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5bMatMulObserved runs the observed side at n = 64.
func BenchmarkFig5bMatMulObserved(b *testing.B) {
	benchRun(b, "matmul", 64)
}

// benchRun runs one observed point of a workload per iteration and
// reports its ΔE.
func benchRun(b *testing.B, name string, n int) {
	sys := getSystem(b)
	var pt experiments.WorkloadPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pt, err = sys.Run(name, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*pt.DeltaObserved, "ΔE_%")
}

// --- Figure 6: transfer proportions --------------------------------------------

// BenchmarkFig6TransferProportions computes ΔT vs ΔE for all three
// workloads and reports the mean absolute gap, the paper's Figure 6
// accuracy metric (≤1.5% vecadd, 5.49% reduction, 0.76% matmul on their
// hardware).
func BenchmarkFig6TransferProportions(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SizesVecAdd = []int{1 << 14, 1 << 16}
	cfg.SizesReduce = []int{1 << 14, 1 << 16}
	cfg.SizesMatMul = []int{32, 64}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var gapSum float64
	for i := 0; i < b.N; i++ {
		gapSum = 0
		for _, w := range []string{"vecadd", "reduce", "matmul"} {
			data, err := runner.Sweep(w)
			if err != nil {
				b.Fatal(err)
			}
			s, err := experiments.Summarise(data)
			if err != nil {
				b.Fatal(err)
			}
			gapSum += s.MeanDeltaGap
		}
	}
	b.ReportMetric(100*gapSum/3, "mean|ΔT-ΔE|_%")
}

// BenchmarkSummaryStatistics regenerates the §IV-D summary (mean transfer
// shares, SWGPU captured share, slope ratios) on a reduced vecadd sweep.
func BenchmarkSummaryStatistics(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SizesVecAdd = []int{1 << 14, 1 << 15, 1 << 16}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var s experiments.Summary
	for i := 0; i < b.N; i++ {
		data, err := runner.RunVecAdd()
		if err != nil {
			b.Fatal(err)
		}
		if s, err = experiments.Summarise(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*s.MeanDeltaObserved, "ΔE_%")
	b.ReportMetric(100*s.SWGPUCaptured, "SWGPU_captured_%")
	b.ReportMetric(s.ATGPUSlopeRatio, "ATGPU_slope_ratio")
}

// --- Future-work extensions (§V) -------------------------------------------------

// BenchmarkExtScanObserved runs the prefix-sum verification workload (the
// paper's "further experiments on other computational problems").
func BenchmarkExtScanObserved(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SizesReduce = []int{1 << 14}
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		data, err := runner.Sweep("scan")
		if err != nil {
			b.Fatal(err)
		}
		s, err := experiments.Summarise(data)
		if err != nil {
			b.Fatal(err)
		}
		gap = s.MeanDeltaGap
	}
	b.ReportMetric(100*gap, "|ΔT-ΔE|_%")
}

// BenchmarkExtTransposeContrast runs the coalescing study: the model's q
// metric must order the naive and tiled variants as the device does.
func BenchmarkExtTransposeContrast(b *testing.B) {
	cfg := experiments.DefaultConfig()
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.TransposeContrast
	for i := 0; i < b.N; i++ {
		if res, err = runner.RunTransposeContrast(128); err != nil {
			b.Fatal(err)
		}
		if !res.ModelOrdersCorrectly {
			b.Fatal("model ordering mismatch")
		}
	}
	b.ReportMetric(res.NaiveQ/res.TiledQ, "q_ratio_naive/tiled")
	b.ReportMetric(float64(res.NaiveCycles)/float64(res.TiledCycles), "cycles_ratio_naive/tiled")
}

// BenchmarkExtDeviceSweep verifies the model across the device preset zoo
// ("verify the model using other GPUs").
func BenchmarkExtDeviceSweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunDeviceSweep(1<<16, transfer.Pageable)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range points {
			gap := p.DeltaPredicted - p.DeltaObserved
			if gap < 0 {
				gap = -gap
			}
			if gap > worst {
				worst = gap
			}
		}
	}
	b.ReportMetric(100*worst, "worst|ΔT-ΔE|_%")
}

// BenchmarkExtReduceStrategies runs the reduction-strategy study ("further
// investigation of reduction algorithms on the ATGPU"), reporting how well
// the model's kernel-side cost orders the four designs against the device.
func BenchmarkExtReduceStrategies(b *testing.B) {
	cfg := experiments.DefaultConfig()
	runner, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var agree float64
	for i := 0; i < b.N; i++ {
		points, err := runner.RunReduceStrategies(1 << 16)
		if err != nil {
			b.Fatal(err)
		}
		agree = experiments.StrategyOrderingAgreement(points)
	}
	b.ReportMetric(100*agree, "pairwise_agreement_%")
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblationClockSkip compares event-driven clock skipping against
// naive per-cycle stepping: identical results, very different simulation
// speed, justifying the scheduler design.
func BenchmarkAblationClockSkip(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		cfg := simgpu.GTX650()
		cfg.GlobalWords = 1 << 20
		cfg.DisableEventSkip = disable
		dev, err := simgpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := transfer.NewEngine(transfer.PCIeGen3x8Link(), transfer.Pageable)
		if err != nil {
			b.Fatal(err)
		}
		h, err := simgpu.NewHost(dev, eng, 0)
		if err != nil {
			b.Fatal(err)
		}
		base, err := h.Malloc(3 * (1 << 14))
		if err != nil {
			b.Fatal(err)
		}
		_ = base
		alg := algorithms.VecAdd{N: 1 << 13}
		prog, err := alg.Kernel(cfg.WarpWidth, 0, 1<<13, 1<<14)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Launch(prog, alg.Blocks(cfg.WarpWidth)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("event-skip", func(b *testing.B) { run(b, false) })
	b.Run("per-cycle", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationOccupancy compares Expression (1) (perfect GPU) against
// Expression (2) (occupancy-adjusted GPU-cost): the ⌈k/(k'ℓ)⌉ factor is
// what lets the model price a real k'-multiprocessor machine.
func BenchmarkAblationOccupancy(b *testing.B) {
	sys := getSystem(b)
	p, err := sys.AnalyzeWorkload("matmul", 256)
	if err != nil {
		b.Fatal(err)
	}
	cp := sys.CostParams()
	var perfect, gpu float64
	for i := 0; i < b.N; i++ {
		if perfect, err = core.PerfectCost(p.Analysis, cp); err != nil {
			b.Fatal(err)
		}
		if gpu, err = core.GPUCost(p.Analysis, cp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gpu/perfect, "gpu/perfect_cost_ratio")
}

// BenchmarkAblationCoalescing runs the same volume of global loads with
// coalesced vs b-strided addressing, showing the l-transactions rule's
// cost impact.
func BenchmarkAblationCoalescing(b *testing.B) {
	run := func(b *testing.B, stride int64) {
		cfg := simgpu.GTX650()
		cfg.GlobalWords = 1 << 22
		dev, err := simgpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prog := buildStrideLoads("abl-coalesce", 64, stride)
		var res simgpu.KernelResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = dev.Launch(prog, 64); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.GlobalTransactions), "transactions")
		b.ReportMetric(float64(res.Stats.Cycles), "device_cycles")
	}
	b.Run("coalesced", func(b *testing.B) { run(b, 1) })
	b.Run("strided", func(b *testing.B) { run(b, 32) })
}

// BenchmarkAblationBankConflicts measures the serialisation cost of b-way
// shared-memory bank conflicts against the conflict-free layout the model
// assumes.
func BenchmarkAblationBankConflicts(b *testing.B) {
	run := func(b *testing.B, stride int64) {
		cfg := simgpu.GTX650()
		cfg.GlobalWords = 1 << 16
		dev, err := simgpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		prog := buildStrideShared("abl-bank", 64, stride)
		var res simgpu.KernelResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = dev.Launch(prog, 32); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.Cycles), "device_cycles")
		b.ReportMetric(float64(res.Stats.BankConflicts), "conflicts")
	}
	b.Run("conflict-free", func(b *testing.B) { run(b, 1) })
	b.Run("b-way-conflict", func(b *testing.B) { run(b, 32) })
}

// BenchmarkAblationOverlap compares the serial and double-buffered
// out-of-core schedules over identical work (future work §V).
func BenchmarkAblationOverlap(b *testing.B) {
	sys := getSystem(b)
	var res experiments.PipelinePoint
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = sys.RunOutOfCoreReduce(1<<16, 1<<13); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Sequential.TotalTime/res.Pipelined.TotalTime, "overlap_speedup_x")
}

// BenchmarkAblationCalibration compares the prediction accuracy of
// calibrated cost parameters against raw datasheet parameters (γ from the
// clock, λ from the architectural latency): the datasheet instantiation
// ignores latency hiding and overshoots, which is why the paper's "set γ
// for a particular GPU" step matters.
func BenchmarkAblationCalibration(b *testing.B) {
	sys := getSystem(b)
	const n = 1 << 16
	obs, err := sys.Run("vecadd", n)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := sys.AnalyzeWorkload("vecadd", n)
	if err != nil {
		b.Fatal(err)
	}
	link := transfer.PCIeGen3x8Link()
	m, err := link.Model(transfer.Pageable)
	if err != nil {
		b.Fatal(err)
	}
	sheet := calibrate.Datasheet(sys.Options().Device, m, sys.Options().SyncCost)
	var calibratedErr, datasheetErr float64
	for i := 0; i < b.N; i++ {
		sheetCost, err := core.GPUCost(pred.Analysis, sheet)
		if err != nil {
			b.Fatal(err)
		}
		calibratedErr = relErr(pred.GPUCost, obs.TotalTime)
		datasheetErr = relErr(sheetCost, obs.TotalTime)
	}
	b.ReportMetric(100*calibratedErr, "calibrated_err_%")
	b.ReportMetric(100*datasheetErr, "datasheet_err_%")
}

func relErr(pred, obs float64) float64 {
	if obs == 0 {
		return 0
	}
	d := pred - obs
	if d < 0 {
		d = -d
	}
	return d / obs
}

// --- kernel builders for ablations ---------------------------------------------

func buildStrideLoads(name string, loads int, stride int64) *kernel.Program {
	return buildStrideKernel(name, loads, stride, false)
}

func buildStrideShared(name string, accesses int, stride int64) *kernel.Program {
	return buildStrideKernel(name, accesses, stride, true)
}

func buildStrideKernel(name string, count int, stride int64, shared bool) *kernel.Program {
	sharedWords := 0
	if shared {
		sharedWords = 32 * 32
	}
	kb := kernel.NewBuilder(fmt.Sprintf("%s-s%d", name, stride), sharedWords)
	j := kb.Reg()
	addr := kb.Reg()
	v := kb.Reg()
	kb.LaneID(j)
	kb.Mul(addr, j, kernel.Imm(stride))
	kb.Const(v, 1)
	for i := 0; i < count; i++ {
		if shared {
			kb.StShared(addr, v)
		} else {
			kb.LdGlobal(v, addr)
		}
	}
	return kb.MustBuild()
}

// --- Observability overhead -------------------------------------------------

// benchObsRun drives one full pipelined vecadd per iteration with the
// given options; BenchmarkObsOff versus BenchmarkObsOn is the measured
// cost of the unified tracing and metrics layer. The Off variant is the
// instrumented build with nil sinks — the acceptance requirement is
// that this disabled path stays within noise (≤2%) of the pre-obs
// hot path, which it meets by paying only nil checks (and zero
// allocations, see obs.TestDisabledPathAllocatesNothing).
func benchObsRun(b *testing.B, opts Options) {
	b.Helper()
	opts.Device = simgpu.Tiny()
	sys, err := NewSystem(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunPipelined("vecadd", 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOff measures the instrumented build with observability
// disabled (the default): the baseline for the overhead comparison.
func BenchmarkObsOff(b *testing.B) {
	benchObsRun(b, DefaultOptions())
}

// BenchmarkObsOn measures the same run with tracing and metrics fully
// enabled, bounding the cost of turning observability on.
func BenchmarkObsOn(b *testing.B) {
	opts := DefaultOptions()
	opts.Obs.Trace = true
	opts.Obs.Metrics = true
	benchObsRun(b, opts)
}
