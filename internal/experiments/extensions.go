package experiments

import (
	"fmt"

	"atgpu/internal/algorithms"
	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// This file implements the paper's future-work experiments (§V):
//
//   - the "scan" registry entry (workloads.go): "further experiments on
//     other computational problems to verify our model" — the prefix-sum
//     sweep, same predicted-vs-observed methodology as §IV.
//   - RunTransposeContrast: the coalescing study; the model's qᵢ metric
//     must order the naive and tiled variants the way the device does.
//   - RunOutOfCore (pipeline.go): "approaches where the data does not fit
//     on the global memory" — the reduce split, serial vs overlapped.
//   - RunDeviceSweep: "verify the model using other GPUs" — the same
//     workload calibrated and checked on several device presets.

// TransposeContrast reports the coalescing study at one size.
type TransposeContrast struct {
	N int
	// Predicted q (block transactions) per variant, from the analyses.
	NaiveQ, TiledQ float64
	// Observed device cycles and kernel seconds per variant.
	NaiveCycles, TiledCycles int64
	NaiveKernel, TiledKernel float64
	// ModelOrdersCorrectly is true when the variant the model says is
	// cheaper is the variant the device runs faster.
	ModelOrdersCorrectly bool
}

// RunTransposeContrast runs both transpose variants at size n.
func (r *Runner) RunTransposeContrast(n int) (*TransposeContrast, error) {
	out := &TransposeContrast{N: n}
	b := r.cfg.Device.WarpWidth

	for _, tiled := range []bool{false, true} {
		alg := algorithms.Transpose{N: n, Tiled: tiled}
		analysis, err := alg.Analyze(modelParams(r.cfg.Device, alg.Blocks(b)))
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", alg.Name(), err)
		}
		h, err := r.newHost(alg.GlobalWords(), alg.Name(), n, 0)
		if err != nil {
			return nil, err
		}
		in := make([]algorithms.Word, n*n)
		for i := range in {
			in[i] = algorithms.Word(i)
		}
		got, err := alg.Run(h, in)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", alg.Name(), err)
		}
		want, err := algorithms.TransposeReference(in, n)
		if err != nil {
			return nil, err
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("%s: %w at %d", alg.Name(), algorithms.ErrVerifyFail, i)
			}
		}
		ks := h.KernelStats()
		if tiled {
			out.TiledQ = analysis.TotalIO()
			out.TiledCycles = ks.Cycles
			out.TiledKernel = h.KernelTime().Seconds()
		} else {
			out.NaiveQ = analysis.TotalIO()
			out.NaiveCycles = ks.Cycles
			out.NaiveKernel = h.KernelTime().Seconds()
		}
	}
	out.ModelOrdersCorrectly = (out.NaiveQ > out.TiledQ) == (out.NaiveCycles > out.TiledCycles)
	return out, nil
}

// DevicePoint is one preset's verification outcome.
type DevicePoint struct {
	Device string
	// DeltaPredicted/DeltaObserved are ΔT/ΔE for the probe workload.
	DeltaPredicted, DeltaObserved float64
	// CostCoverage is predicted GPU-cost over observed total.
	CostCoverage float64
}

// RunDeviceSweep calibrates each preset and verifies the model against a
// vecadd probe on it — the cross-GPU validation of the paper's future
// work. Each device gets its own calibration, exactly as a practitioner
// would instantiate γ, λ, α, β per machine.
func RunDeviceSweep(n int, scheme transfer.Scheme) ([]DevicePoint, error) {
	vecadd, err := Lookup("vecadd")
	if err != nil {
		return nil, err
	}
	var out []DevicePoint
	for _, preset := range simgpu.Presets() {
		r, err := NewRunner(Config{Device: preset, Scheme: scheme, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", preset.Name, err)
		}
		pt, err := r.sweepPoint(vecadd, new(pointScratch), 0, n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", preset.Name, err)
		}
		out = append(out, DevicePoint{
			Device:         preset.Name,
			DeltaPredicted: pt.DeltaPredicted,
			DeltaObserved:  pt.DeltaObserved,
			CostCoverage:   pt.ATGPUCost / pt.TotalTime,
		})
	}
	return out, nil
}
