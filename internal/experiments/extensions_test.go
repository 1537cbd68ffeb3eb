package experiments

import (
	"testing"

	"atgpu/internal/transfer"
)

func TestRunScanSweep(t *testing.T) {
	cfg := testConfig()
	cfg.SizesReduce = []int{1 << 10, 1 << 12} // scan reuses this override
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Sweep("scan")
	if err != nil {
		t.Fatal(err)
	}
	if data.Workload != "scan" || len(data.Points) != 2 {
		t.Fatalf("scan sweep = %+v", data)
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	// Scan is multi-round like reduction: transfer is significant but the
	// prediction must stay close to observation.
	if s.MeanDeltaGap > 0.12 {
		t.Errorf("scan |ΔT-ΔE| = %.3f", s.MeanDeltaGap)
	}
	for _, p := range data.Points {
		if p.SWGPUCost >= p.ATGPUCost {
			t.Errorf("n=%d: SWGPU %g ≥ ATGPU %g", p.N, p.SWGPUCost, p.ATGPUCost)
		}
	}
}

func TestScanSizesDefaults(t *testing.T) {
	sizes := mustSweepSizes(t, DefaultConfig(), "scan")
	if len(sizes) == 0 || sizes[0] != 1<<14 {
		t.Fatalf("scan sizes = %v", sizes)
	}
}

func TestRunTransposeContrast(t *testing.T) {
	r := newTestRunner(t)
	res, err := r.RunTransposeContrast(128)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveQ <= res.TiledQ {
		t.Fatalf("model: naive q=%g should exceed tiled q=%g", res.NaiveQ, res.TiledQ)
	}
	if !res.ModelOrdersCorrectly {
		t.Fatalf("model ordering mismatch: naive %d cycles vs tiled %d, q %g vs %g",
			res.NaiveCycles, res.TiledCycles, res.NaiveQ, res.TiledQ)
	}
}

func TestRunOutOfCore(t *testing.T) {
	r := newTestRunner(t)
	points, err := r.RunOutOfCore(1<<14, []int{1 << 10, 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Speedup < 1 {
			t.Errorf("chunk %d: overlap speedup %g < 1", p.ChunkWords, p.Speedup)
		}
		if p.Overlapped > p.Serial {
			t.Errorf("chunk %d: overlap slower than serial", p.ChunkWords)
		}
	}
	// Fewer, larger chunks amortise α: serial time must fall with chunk
	// size.
	if points[1].Serial >= points[0].Serial {
		t.Errorf("larger chunks should be faster: %g vs %g", points[1].Serial, points[0].Serial)
	}
}

// TestRunDeviceSweep is the cross-GPU verification: on every preset the
// calibrated model must predict the transfer share within a few points and
// explain most of the total time.
func TestRunDeviceSweep(t *testing.T) {
	points, err := RunDeviceSweep(1<<16, transfer.Pageable, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("device sweep covered %d presets", len(points))
	}
	for _, p := range points {
		if gap := abs(p.DeltaPredicted - p.DeltaObserved); gap > 0.12 {
			t.Errorf("%s: |ΔT-ΔE| = %.3f", p.Device, gap)
		}
		if p.CostCoverage < 0.7 || p.CostCoverage > 1.3 {
			t.Errorf("%s: cost coverage = %.2f, want ≈1", p.Device, p.CostCoverage)
		}
	}
	// Faster devices shift the balance toward transfer: the 1080's ΔE
	// should be at least the 650's.
	if points[1].DeltaObserved < points[0].DeltaObserved {
		t.Errorf("gtx1080 ΔE %.3f < gtx650 ΔE %.3f — faster kernels should raise the transfer share",
			points[1].DeltaObserved, points[0].DeltaObserved)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRunReduceStrategies(t *testing.T) {
	r := newTestRunner(t)
	points, err := r.RunReduceStrategies(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Structure: grid-stride uses the fewest rounds; interleaved matches
	// sequential.
	byName := map[string]StrategyPoint{}
	for _, p := range points {
		byName[p.Strategy] = p
	}
	if byName["grid-stride"].Rounds >= byName["sequential"].Rounds {
		t.Errorf("grid-stride rounds %d should be below sequential %d",
			byName["grid-stride"].Rounds, byName["sequential"].Rounds)
	}
	if byName["interleaved"].Rounds != byName["sequential"].Rounds {
		t.Errorf("interleaved rounds %d ≠ sequential %d",
			byName["interleaved"].Rounds, byName["sequential"].Rounds)
	}
	// The model must order the strategies mostly like the device does.
	if agree := StrategyOrderingAgreement(points); agree < 0.8 {
		t.Errorf("model orders only %.0f%% of strategy pairs correctly", 100*agree)
		for _, p := range points {
			t.Logf("%-12s predicted %.6fs observed %.6fs", p.Strategy, p.PredictedKernel, p.ObservedKernel)
		}
	}
}
