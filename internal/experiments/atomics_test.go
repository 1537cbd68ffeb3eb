package experiments

import (
	"math"
	"testing"
)

// atomicsTestConfig shrinks the atomic-workload sweeps so the full
// predicted-vs-observed pipeline runs in seconds.
func atomicsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.SizesHistogram = []int{1 << 8, 1 << 10}
	cfg.SizesCompact = []int{1 << 8, 1 << 10}
	cfg.SizesTopK = []int{1 << 8, 1 << 10}
	cfg.SizesMonteCarlo = []int{1 << 6, 1 << 8}
	return cfg
}

func newAtomicsRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(atomicsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkSweep asserts every point succeeded with positive predictions and
// observations.
func checkSweep(t *testing.T, data *WorkloadData, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s sweep: %v", data.Workload, err)
	}
	if data.FailedPoints() != 0 {
		t.Fatalf("%s sweep: %d failed points", data.Workload, data.FailedPoints())
	}
	for _, p := range data.Points {
		if p.ATGPUCost <= 0 || p.TotalTime <= 0 || p.KernelTime <= 0 {
			t.Errorf("%s n=%d: non-positive outcome: cost=%v total=%v kernel=%v",
				data.Workload, p.N, p.ATGPUCost, p.TotalTime, p.KernelTime)
		}
	}
}

func TestAtomicSweeps(t *testing.T) {
	r := newAtomicsRunner(t)
	for _, run := range []struct {
		name string
		fn   func() (*WorkloadData, error)
	}{
		{"histogram", nil},
		{"histogram-priv", nil},
		{"compact", nil},
		{"topk", nil},
		{"montecarlo", nil},
	} {
		data, err := r.Sweep(run.name)
		checkSweep(t, data, err)
		if data.Workload != run.name {
			t.Errorf("workload name %q, want %q", data.Workload, run.name)
		}
	}
}

func TestAtomicSweepSizeDefaults(t *testing.T) {
	r, err := NewRunner(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSweepSizes(t, r.Config(), "histogram"); got[0] != 1<<10 || got[len(got)-1] != 1<<16 {
		t.Fatalf("default histogram sizes = %v", got)
	}
	if got := mustSweepSizes(t, r.Config(), "montecarlo"); got[0] != 1<<8 {
		t.Fatalf("default montecarlo sizes = %v", got)
	}
	for _, w := range []string{"histogram", "histogram-priv", "compact", "topk", "montecarlo"} {
		if _, err := r.PredictPoint(w, 1<<10); err != nil {
			t.Errorf("PredictPoint(%s): %v", w, err)
		}
	}
}

// TestHistogramContentionStudy is the acceptance check of the contention
// model: at skew 1 the analyzer's pessimistic bound is realised, so the
// predicted contention factor must land within 10% of the observed one,
// and the observed factor must grow with skew.
func TestHistogramContentionStudy(t *testing.T) {
	r := newAtomicsRunner(t)
	const n = 1 << 10
	study, err := r.RunHistogramContention(n, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 3 {
		t.Fatalf("%d points, want 3", len(study.Points))
	}
	for _, p := range study.Points {
		if p.PredictedFactor <= 1 {
			t.Errorf("skew=%v: predicted factor %v not above 1", p.Skew, p.PredictedFactor)
		}
		if p.ObservedFactor <= 0 {
			t.Errorf("skew=%v: observed factor %v not positive", p.Skew, p.ObservedFactor)
		}
		if p.StaticAccesses != p.ObservedAccesses {
			t.Errorf("skew=%v: static accesses %d != observed %d (access counts are input-independent)",
				p.Skew, p.StaticAccesses, p.ObservedAccesses)
		}
		// Static serialisation is the worst case over inputs.
		if p.StaticSerialisations < p.ObservedSerialisations {
			t.Errorf("skew=%v: static serialisations %d below observed %d — the bound is unsound",
				p.Skew, p.StaticSerialisations, p.ObservedSerialisations)
		}
	}
	// Observed contention must be monotone in skew.
	for i := 1; i < len(study.Points); i++ {
		if study.Points[i].ObservedFactor < study.Points[i-1].ObservedFactor {
			t.Errorf("observed factor fell from %v to %v as skew rose %v→%v",
				study.Points[i-1].ObservedFactor, study.Points[i].ObservedFactor,
				study.Points[i-1].Skew, study.Points[i].Skew)
		}
	}
	// The headline acceptance: fully skewed input realises the bound.
	last := study.Points[len(study.Points)-1]
	if last.Skew != 1 {
		t.Fatalf("last point skew = %v, want 1", last.Skew)
	}
	relErr := math.Abs(last.PredictedFactor-last.ObservedFactor) / last.ObservedFactor
	if relErr > 0.10 {
		t.Errorf("skew=1: predicted factor %v vs observed %v: relative error %.3f exceeds 10%%",
			last.PredictedFactor, last.ObservedFactor, relErr)
	}
	if last.PredictedSeconds <= 0 {
		t.Errorf("skew=1: predicted contended seconds %v not positive", last.PredictedSeconds)
	}
}
