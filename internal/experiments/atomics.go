package experiments

import (
	"fmt"
	"math/rand"

	"atgpu/internal/algorithms"
	"atgpu/internal/analyze"
	"atgpu/internal/mem"
)

// ContentionPoint is one skew level's predicted-versus-observed contention
// outcome for the histogram study.
type ContentionPoint struct {
	// Skew is the fraction of inputs forced into bin 0; the rest are
	// uniform over the bins. 1 is the analyzer's worst case realised.
	Skew float64 `json:"skew"`
	// PredictedFactor is the static contention factor 1 + Ser/Acc from
	// the analyzer's counters — input-agnostic, so constant across skews:
	// the model's upper bound.
	PredictedFactor float64 `json:"predicted_factor"`
	// ObservedFactor is the simulator's 1 + Ser/Acc for the same launch.
	ObservedFactor float64 `json:"observed_factor"`
	// PredictedSeconds is the static contended-cost estimate
	// (CostEstimate.ContendedSeconds) for the launch.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// ObservedKernelSeconds is the simulated kernel time.
	ObservedKernelSeconds float64 `json:"observed_kernel_seconds"`
	// StaticSerialisations and ObservedSerialisations expose the raw
	// counters behind the factors.
	StaticSerialisations   int64 `json:"static_serialisations"`
	ObservedSerialisations int64 `json:"observed_serialisations"`
	// StaticAccesses and ObservedAccesses likewise.
	StaticAccesses   int64 `json:"static_accesses"`
	ObservedAccesses int64 `json:"observed_accesses"`
	// Precise is the analyzer's exactness flag for the launch.
	Precise bool `json:"precise"`
}

// ContentionStudy is the histogram contention experiment: the same launch
// analysed statically once and simulated across input skews, exposing how
// the observed contention factor approaches the static upper bound as the
// input concentrates onto one bin.
type ContentionStudy struct {
	Workload string            `json:"workload"`
	N        int               `json:"n"`
	Bins     int               `json:"bins"`
	Points   []ContentionPoint `json:"points"`
}

// RunHistogramContention runs the contended-histogram contention study: one
// static analysis of the exact launched kernel, then one simulation per
// skew level. At skew 1 every lane of a full warp hits one bin, the
// analyzer's pessimistic degree is realised, and predicted and observed
// factors must agree (the differential tests hold them within 10%).
func (r *Runner) RunHistogramContention(n int, skews []float64) (*ContentionStudy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: contention study: non-positive n %d", n)
	}
	if len(skews) == 0 {
		skews = []float64{0, 0.5, 0.9, 1}
	}
	alg := algorithms.Histogram{N: n, Bins: HistogramSweepBins}
	study := &ContentionStudy{Workload: alg.Name(), N: n, Bins: HistogramSweepBins}

	for idx, skew := range skews {
		if skew < 0 || skew > 1 {
			return nil, fmt.Errorf("experiments: contention study: skew %v outside [0,1]", skew)
		}
		h, err := r.newHost(alg.GlobalWords(), "histogram-contention", n, idx)
		if err != nil {
			return nil, err
		}
		// Allocate exactly as Histogram.Run does, but build and analyse the
		// kernel here so the static report describes the exact program the
		// device executes, base addresses included.
		baseIn, err := h.Malloc(n)
		if err != nil {
			return nil, err
		}
		baseOut, err := h.Malloc(HistogramSweepBins)
		if err != nil {
			return nil, err
		}
		width := h.Device().Config().WarpWidth
		prog, err := alg.Kernel(width, baseIn, baseOut)
		if err != nil {
			return nil, err
		}

		cp := r.params
		rep, err := analyze.Program(prog, analyze.Options{
			Machine: analyze.FromConfig(h.Device().Config()),
			Blocks:  alg.Blocks(width),
			Cost:    &cp,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: contention study: analyze: %w", err)
		}

		rng := rand.New(rand.NewSource(r.inputSeed("histogram-contention", n, idx)))
		in := make([]mem.Word, n)
		for i := range in {
			if rng.Float64() < skew {
				in[i] = 0 // bin 0
			} else {
				in[i] = mem.Word(rng.Intn(HistogramSweepBins))
			}
		}
		if err := h.TransferIn(baseIn, in); err != nil {
			return nil, err
		}
		if err := h.TransferIn(baseOut, make([]mem.Word, HistogramSweepBins)); err != nil {
			return nil, err
		}
		if _, err := h.Launch(prog, alg.Blocks(width)); err != nil {
			return nil, fmt.Errorf("experiments: contention study skew=%v: %w", skew, err)
		}
		got, err := h.TransferOut(baseOut, HistogramSweepBins)
		if err != nil {
			return nil, err
		}
		h.EndRound()
		want, err := algorithms.HistogramReference(in, HistogramSweepBins)
		if err != nil {
			return nil, err
		}
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("experiments: contention study skew=%v: %w: bin %d got %d want %d",
					skew, algorithms.ErrVerifyFail, i, got[i], want[i])
			}
		}

		st := h.KernelStats()
		pt := ContentionPoint{
			Skew:                   skew,
			StaticSerialisations:   rep.Stats.AtomicSerialisations,
			ObservedSerialisations: st.AtomicSerialisations,
			StaticAccesses:         rep.Stats.AtomicAccesses,
			ObservedAccesses:       st.AtomicAccesses,
			ObservedKernelSeconds:  h.KernelTime().Seconds(),
			Precise:                rep.Precise,
		}
		if rep.Cost != nil {
			pt.PredictedFactor = rep.Cost.ContentionFactor
			pt.PredictedSeconds = rep.Cost.ContendedSeconds
		}
		if st.AtomicAccesses > 0 {
			pt.ObservedFactor = 1 + float64(st.AtomicSerialisations)/float64(st.AtomicAccesses)
		}
		study.Points = append(study.Points, pt)
	}
	return study, nil
}
