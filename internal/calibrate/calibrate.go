// Package calibrate instantiates the ATGPU cost parameters for a concrete
// device, mirroring how the paper's Section III fixes γ ("can be set to a
// value corresponding to a particular GPU"), λ, σ, α and β for its GTX 650.
//
// Transfer parameters are fitted the way Boyer et al. fit real links:
// measure transfers of increasing size and regress time on words — the
// slope is β̂, the intercept α̂.
//
// Kernel-side parameters are fitted from two microkernels run on the
// simulated device:
//
//   - a compute-bound kernel (straight-line arithmetic, no memory): the
//     regression of observed time on the model's occupancy-adjusted
//     operation count ⌈k/(k'ℓ)⌉·t yields 1/γ̂;
//   - a memory-bound kernel (coalesced global loads): the regression of
//     the residual time on the transaction count q yields λ̂/γ̂, hence λ̂.
//
// Fitting effective values rather than copying raw datasheet numbers is
// what lets the abstract cost function absorb latency hiding: a resident
// set of ℓ warps services global transactions far faster than one λ per
// transaction serially, and the paper's single-number λ must stand for the
// achieved, not architectural, latency.
package calibrate

import (
	"errors"
	"fmt"
	"math"
	"time"

	"atgpu/internal/core"
	"atgpu/internal/kernel"
	"atgpu/internal/simgpu"
	"atgpu/internal/stats"
	"atgpu/internal/transfer"
)

// Result carries the fitted cost parameters and fit diagnostics.
type Result struct {
	// Params is ready for core.PerfectCost / core.GPUCost.
	Params core.CostParams
	// TransferFit is the regression behind α̂ and β̂.
	TransferFit stats.LinearFit
	// ComputeFit is the regression behind γ̂ (seconds per adjusted op).
	ComputeFit stats.LinearFit
	// MemoryFit is the regression behind λ̂ (seconds per transaction).
	MemoryFit stats.LinearFit
}

// ErrCalibration reports an unusable fit.
var ErrCalibration = errors.New("calibrate: fit failed")

// Run calibrates cost parameters for the device/engine pair. syncCost
// passes through as σ. The device's global memory must hold at least
// 64·b·warpWidth words (a few KiB on any realistic preset).
func Run(dev *simgpu.Device, eng *transfer.Engine, syncCost time.Duration) (Result, error) {
	if dev == nil || eng == nil {
		return Result{}, fmt.Errorf("%w: nil device or engine", ErrCalibration)
	}
	cfg := dev.Config()

	tf, alpha, beta, err := fitTransfer(eng)
	if err != nil {
		return Result{}, err
	}
	cf, gamma, err := fitCompute(dev)
	if err != nil {
		return Result{}, err
	}
	mf, lambdaSec, err := fitMemory(dev)
	if err != nil {
		return Result{}, err
	}

	p := core.CostParams{
		Gamma:  gamma,
		Lambda: lambdaSec * gamma, // λ in "cycles" of the fitted γ
		Sigma:  syncCost.Seconds(),
		Alpha:  alpha,
		Beta:   beta,
		KPrime: cfg.NumSMs,
		H:      cfg.MaxBlocksPerSM,
	}
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrCalibration, err)
	}
	return Result{Params: p, TransferFit: tf, ComputeFit: cf, MemoryFit: mf}, nil
}

// fitTransfer regresses engine cost on words moved. The engine's cost
// model is exactly affine, so the fit recovers α and β to rounding.
func fitTransfer(eng *transfer.Engine) (stats.LinearFit, float64, float64, error) {
	m := eng.Model()
	var xs, ys []float64
	for _, words := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		xs = append(xs, float64(words))
		ys = append(ys, m.Cost(1, words))
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return fit, 0, 0, fmt.Errorf("%w: transfer: %v", ErrCalibration, err)
	}
	alpha := fit.Intercept
	if alpha < 0 {
		alpha = 0
	}
	beta := fit.Slope
	if beta < 0 || math.IsNaN(beta) {
		return fit, 0, 0, fmt.Errorf("%w: transfer slope %g", ErrCalibration, beta)
	}
	return fit, alpha, beta, nil
}

// computeKernel emits ops dependent adds with no memory traffic.
func computeKernel(ops int) *kernel.Program {
	kb := kernel.NewBuilder(fmt.Sprintf("cal-compute-%d", ops), 0)
	r := kb.Reg("acc")
	kb.Const(r, 1)
	for i := 0; i < ops; i++ {
		kb.Add(r, r, kernel.Imm(1))
	}
	return kb.MustBuild()
}

// fitCompute launches compute kernels with varying per-block op counts at a
// fixed block count, regressing time on the occupancy-adjusted operation
// count ⌈k/(k'ℓ)⌉·t; the slope is 1/γ̂.
func fitCompute(dev *simgpu.Device) (stats.LinearFit, float64, error) {
	cfg := dev.Config()
	blocks := cfg.NumSMs * cfg.MaxBlocksPerSM * 8
	occ := cfg.Occupancy(0)
	factor := math.Ceil(float64(blocks) / float64(cfg.NumSMs*occ))

	var xs, ys []float64
	for _, ops := range []int{32, 64, 128, 256, 512} {
		prog := computeKernel(ops)
		res, err := dev.Launch(prog, blocks)
		if err != nil {
			return stats.LinearFit{}, 0, fmt.Errorf("%w: compute kernel: %v", ErrCalibration, err)
		}
		adjusted := factor * float64(prog.Len())
		xs = append(xs, adjusted)
		ys = append(ys, res.Time.Seconds())
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return fit, 0, fmt.Errorf("%w: compute: %v", ErrCalibration, err)
	}
	if fit.Slope <= 0 {
		return fit, 0, fmt.Errorf("%w: compute slope %g", ErrCalibration, fit.Slope)
	}
	return fit, 1 / fit.Slope, nil
}

// memoryKernel emits loads coalesced global reads of distinct blocks.
func memoryKernel(loads, b int) *kernel.Program {
	kb := kernel.NewBuilder(fmt.Sprintf("cal-memory-%d", loads), 0)
	j := kb.Reg("lane")
	blk := kb.Reg("block")
	addr := kb.Reg("addr")
	val := kb.Reg("val")
	kb.LaneID(j)
	kb.BlockID(blk)
	// Each iteration reads one distinct b-word memory block: block i of
	// the launch reads global blocks i·loads … i·loads+loads-1.
	kb.Mul(addr, blk, kernel.Imm(int64(loads*b)))
	kb.Add(addr, addr, kernel.R(j))
	for i := 0; i < loads; i++ {
		kb.LdGlobal(val, addr)
		kb.Add(addr, addr, kernel.Imm(int64(b)))
	}
	return kb.MustBuild()
}

// maxLoads is the memory kernel's largest per-block load count.
const maxLoads = 64

// MemoryFootprint returns the launch the memory calibration makes on a
// device described by cfg — blocks thread blocks — and the global words
// it reads, blocks·maxLoads·b. blocks starts at eight waves of the
// device (k'·H·8) and halves while the footprint exceeds G and more
// blocks than SMs remain; it errors when even that does not fit. The
// memory kernel is the only calibration kernel that touches global
// memory, so a device of exactly words global words calibrates as any
// larger one with the same halving does.
func MemoryFootprint(cfg simgpu.Config) (blocks, words int, err error) {
	blocks = cfg.NumSMs * cfg.MaxBlocksPerSM * 8
	for blocks*maxLoads*cfg.WarpWidth > cfg.GlobalWords && blocks > cfg.NumSMs {
		blocks /= 2
	}
	words = blocks * maxLoads * cfg.WarpWidth
	if words > cfg.GlobalWords {
		return 0, 0, fmt.Errorf("%w: device global memory too small", ErrCalibration)
	}
	return blocks, words, nil
}

// fitMemory launches memory kernels with varying per-block load counts,
// regressing the time remaining after the fitted compute share on the
// total transaction count q; the slope is λ̂ in seconds per transaction.
func fitMemory(dev *simgpu.Device) (stats.LinearFit, float64, error) {
	cfg := dev.Config()
	blocks, _, err := MemoryFootprint(cfg)
	if err != nil {
		return stats.LinearFit{}, 0, err
	}

	var xs, ys []float64
	for _, loads := range []int{4, 8, 16, 32, maxLoads} {
		prog := memoryKernel(loads, cfg.WarpWidth)
		res, err := dev.Launch(prog, blocks)
		if err != nil {
			return stats.LinearFit{}, 0, fmt.Errorf("%w: memory kernel: %v", ErrCalibration, err)
		}
		q := float64(res.Stats.GlobalTransactions)
		xs = append(xs, q)
		ys = append(ys, res.Time.Seconds())
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return fit, 0, fmt.Errorf("%w: memory: %v", ErrCalibration, err)
	}
	if fit.Slope <= 0 {
		return fit, 0, fmt.Errorf("%w: memory slope %g", ErrCalibration, fit.Slope)
	}
	return fit, fit.Slope, nil
}

// Datasheet returns uncalibrated cost parameters read directly off the
// device configuration and transfer model — γ from the clock, λ from the
// architectural latency. Used by the calibration ablation to show why the
// paper's "set to a particular GPU" instantiation needs fitted effective
// values once latency hiding exists.
func Datasheet(cfg simgpu.Config, m transfer.CostModel, syncCost time.Duration) core.CostParams {
	return core.CostParams{
		Gamma:  cfg.ClockHz,
		Lambda: float64(cfg.GlobalLatencyCycles),
		Sigma:  syncCost.Seconds(),
		Alpha:  m.Alpha,
		Beta:   m.Beta,
		KPrime: cfg.NumSMs,
		H:      cfg.MaxBlocksPerSM,
	}
}
