package experiments

import (
	"fmt"

	"atgpu/internal/algorithms"
	"atgpu/internal/models"
)

// StrategyPoint is one reduction strategy's predicted and observed outcome
// at a fixed input size — the "further investigation of reduction
// algorithms on the ATGPU" of the paper's future work.
type StrategyPoint struct {
	Strategy string
	// Rounds is R; Blocks the total blocks launched.
	Rounds int
	Blocks int64
	// PredictedKernel is the SWGPU-style kernel-side cost (seconds) —
	// transfer is identical across strategies, so the kernel side is
	// where the model must discriminate.
	PredictedKernel float64
	// ObservedKernel and ObservedTotal are simulated seconds.
	ObservedKernel float64
	ObservedTotal  float64
}

// RunReduceStrategies compares all reduction strategies at size n. The
// returned slice follows algorithms.ReduceStrategies() order.
func (r *Runner) RunReduceStrategies(n int) ([]StrategyPoint, error) {
	var out []StrategyPoint
	b := r.cfg.Device.WarpWidth
	in := make([]algorithms.Word, n)
	for i := range in {
		in[i] = algorithms.Word(i%5 - 2)
	}
	want := algorithms.ReduceReference(in)

	for _, strat := range algorithms.ReduceStrategies() {
		alg := algorithms.ReduceVariant{N: n, Strategy: strat}
		analysis, err := alg.Analyze(modelParams(r.cfg.Device, (n+b-1)/b))
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", strat, err)
		}
		kernelCost, err := models.SWGPUCost(analysis, r.params)
		if err != nil {
			return nil, err
		}

		h, err := r.newHost(alg.GlobalWords(b), "reduce-strategies", n, int(strat))
		if err != nil {
			return nil, err
		}
		got, err := alg.Run(h, in)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", strat, err)
		}
		if got != want {
			return nil, fmt.Errorf("%s: %w: got %d want %d", strat, algorithms.ErrVerifyFail, got, want)
		}
		rep := h.Report()
		out = append(out, StrategyPoint{
			Strategy:        strat.String(),
			Rounds:          rep.Rounds,
			Blocks:          rep.Stats.BlocksExecuted,
			PredictedKernel: kernelCost,
			ObservedKernel:  rep.Kernel.Seconds(),
			ObservedTotal:   rep.Total.Seconds(),
		})
	}
	return out, nil
}

// StrategyOrderingAgreement reports how many strategy pairs the model
// orders the same way the device does (by kernel time), out of all pairs.
// A perfect model scores 1.0.
func StrategyOrderingAgreement(points []StrategyPoint) float64 {
	pairs, agree := 0, 0
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			pi, pj := points[i], points[j]
			if pi.PredictedKernel == pj.PredictedKernel || pi.ObservedKernel == pj.ObservedKernel {
				continue
			}
			pairs++
			if (pi.PredictedKernel < pj.PredictedKernel) == (pi.ObservedKernel < pj.ObservedKernel) {
				agree++
			}
		}
	}
	if pairs == 0 {
		return 1
	}
	return float64(agree) / float64(pairs)
}
