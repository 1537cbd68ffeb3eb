package experiments

import (
	"strings"
	"testing"

	"atgpu/internal/transfer"
)

// testConfig shrinks the sweeps so the full predicted-vs-observed pipeline
// runs in well under a second.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SizesVecAdd = []int{1 << 10, 1 << 11, 1 << 12}
	cfg.SizesReduce = []int{1 << 10, 1 << 12}
	cfg.SizesMatMul = []int{32, 64, 128}
	return cfg
}

func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRunnerValidatesDevice(t *testing.T) {
	cfg := testConfig()
	cfg.Device.NumSMs = 0
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("invalid device accepted")
	}
}

func TestRunnerCostParams(t *testing.T) {
	r := newTestRunner(t)
	if err := r.CostParams().Validate(); err != nil {
		t.Fatalf("calibrated params invalid: %v", err)
	}
	if r.Calibration().TransferFit.R2 < 0.99 {
		t.Fatal("transfer calibration fit poor")
	}
	if r.Config().Device.Name == "" {
		t.Fatal("config lost")
	}
}

func TestSizeDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if got := mustSweepSizes(t, cfg, "vecadd"); len(got) != 10 || got[0] != 100_000 || got[9] != 1_000_000 {
		t.Fatalf("default vecadd sizes = %v", got)
	}
	if got := mustSweepSizes(t, cfg, "reduce"); got[0] != 1<<16 || got[len(got)-1] != 1<<22 {
		t.Fatalf("default reduce sizes = %v", got)
	}
	if got := mustSweepSizes(t, cfg, "matmul"); got[0] != 32 || got[len(got)-1] != 256 {
		t.Fatalf("default matmul sizes = %v", got)
	}

	full := DefaultConfig()
	full.Full = true
	if got := mustSweepSizes(t, full, "vecadd"); got[9] != 10_000_000 {
		t.Fatalf("full vecadd max = %d, want 1e7 (paper)", got[9])
	}
	if got := mustSweepSizes(t, full, "reduce"); got[len(got)-1] != 1<<26 {
		t.Fatalf("full reduce max = %d, want 2^26 (paper)", got[len(got)-1])
	}
	if got := mustSweepSizes(t, full, "matmul"); got[len(got)-1] != 1024 {
		t.Fatalf("full matmul max = %d, want 1024 (paper)", got[len(got)-1])
	}
}

// TestVecAddSweepShape asserts the paper's §IV-A findings on the scaled
// sweep: transfer dominates (ΔE well above 50%), ATGPU's predicted share
// tracks the observed share closely, and the SWGPU cost grows far slower
// than the observed total.
func TestVecAddSweepShape(t *testing.T) {
	r := newTestRunner(t)
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != 3 {
		t.Fatalf("points = %d", len(data.Points))
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanDeltaObserved < 0.5 {
		t.Errorf("vecadd ΔE = %.2f, want transfer-dominated (> 0.5)", s.MeanDeltaObserved)
	}
	if s.MeanDeltaGap > 0.10 {
		t.Errorf("|ΔT-ΔE| = %.3f, want within 10%%", s.MeanDeltaGap)
	}
	if s.ATGPUSlopeRatio < 0.7 || s.ATGPUSlopeRatio > 1.3 {
		t.Errorf("ATGPU slope ratio = %.2f, want ≈1", s.ATGPUSlopeRatio)
	}
	if s.SWGPUSlopeRatio > 0.6*s.ATGPUSlopeRatio {
		t.Errorf("SWGPU slope ratio %.2f not clearly below ATGPU %.2f",
			s.SWGPUSlopeRatio, s.ATGPUSlopeRatio)
	}
	for _, p := range data.Points {
		if p.SWGPUCost >= p.ATGPUCost {
			t.Errorf("n=%d: SWGPU %g ≥ ATGPU %g", p.N, p.SWGPUCost, p.ATGPUCost)
		}
		if p.KernelTime >= p.TotalTime {
			t.Errorf("n=%d: kernel %g ≥ total %g", p.N, p.KernelTime, p.TotalTime)
		}
	}
}

// TestReduceSweepShape asserts §IV-B: multi-round, transfer a significant
// share but below vecadd's, predictions within a few percent.
func TestReduceSweepShape(t *testing.T) {
	r := newTestRunner(t)
	vec, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	red, err := r.Sweep("reduce")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := Summarise(vec)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Summarise(red)
	if err != nil {
		t.Fatal(err)
	}
	if sr.MeanDeltaObserved <= 0.05 || sr.MeanDeltaObserved >= sv.MeanDeltaObserved {
		t.Errorf("reduce ΔE = %.2f, want significant but below vecadd's %.2f",
			sr.MeanDeltaObserved, sv.MeanDeltaObserved)
	}
	if sr.MeanDeltaGap > 0.10 {
		t.Errorf("reduce |ΔT-ΔE| = %.3f", sr.MeanDeltaGap)
	}
}

// TestMatMulSweepShape asserts §IV-C: compute-dominated — "there is little
// difference between the kernel running time and the total running time".
func TestMatMulSweepShape(t *testing.T) {
	r := newTestRunner(t)
	data, err := r.RunMatMul()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanDeltaObserved > 0.45 {
		t.Errorf("matmul ΔE = %.2f, want compute-dominated", s.MeanDeltaObserved)
	}
	// The transfer share falls as n grows (paper Fig 6c's declining Δ):
	// compute is Θ(n³), transfer Θ(n²).
	for i := 1; i < len(data.Points); i++ {
		if data.Points[i].DeltaObserved >= data.Points[i-1].DeltaObserved {
			t.Errorf("ΔE not declining: n=%d %.3f → n=%d %.3f",
				data.Points[i-1].N, data.Points[i-1].DeltaObserved,
				data.Points[i].N, data.Points[i].DeltaObserved)
		}
	}
	// At the largest size the kernel share must dominate.
	last := data.Points[len(data.Points)-1]
	if last.KernelTime/last.TotalTime < 0.6 {
		t.Errorf("matmul largest-n kernel share = %.2f, want > 0.6",
			last.KernelTime/last.TotalTime)
	}
}

func TestFiguresStructure(t *testing.T) {
	r := newTestRunner(t)
	vec, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	figs := Figures(vec)
	ids := make(map[string]Figure)
	for _, f := range figs {
		ids[f.ID] = f
	}
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig6a"} {
		if _, ok := ids[id]; !ok {
			t.Fatalf("vecadd figures missing %s (got %v)", id, figIDs(figs))
		}
	}
	if got := len(ids["fig3c"].Series); got != 4 {
		t.Fatalf("fig3c has %d series, want 4 (ATGPU, SWGPU, Total, Kernel)", got)
	}
	for _, s := range ids["fig3c"].Series {
		min, max := s.MinMaxY()
		if min < 0 || max > 1 {
			t.Fatalf("fig3c series %s not normalised: [%g, %g]", s.Name, min, max)
		}
	}
	if got := len(ids["fig6a"].Series); got != 2 {
		t.Fatalf("fig6a has %d series, want 2 (ΔE, ΔT)", got)
	}
	// Unknown workload yields no figures.
	if Figures(&WorkloadData{Workload: "nope"}) != nil {
		t.Fatal("unknown workload should yield nil figures")
	}
}

func figIDs(figs []Figure) []string {
	ids := make([]string, len(figs))
	for i, f := range figs {
		ids[i] = f.ID
	}
	return ids
}

func TestSummaryString(t *testing.T) {
	r := newTestRunner(t)
	data, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarise(data)
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"vecadd", "ΔE", "ΔT", "SWGPU", "slope ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummariseEmpty(t *testing.T) {
	if _, err := Summarise(&WorkloadData{Workload: "x"}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestSchemeAffectsObservedOnly(t *testing.T) {
	fast := testConfig()
	fast.Scheme = transfer.Pinned
	slow := testConfig()
	slow.Scheme = transfer.Pageable

	rf, err := NewRunner(fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRunner(slow)
	if err != nil {
		t.Fatal(err)
	}
	df, err := rf.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := rs.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	for i := range df.Points {
		if ds.Points[i].TransferTime <= df.Points[i].TransferTime {
			t.Errorf("pageable transfer %g not slower than pinned %g",
				ds.Points[i].TransferTime, df.Points[i].TransferTime)
		}
		if ds.Points[i].KernelTime != df.Points[i].KernelTime {
			t.Errorf("kernel time differs across schemes: %g vs %g",
				ds.Points[i].KernelTime, df.Points[i].KernelTime)
		}
	}
}

// mustSweepSizes resolves a registered workload's sizes under cfg.
func mustSweepSizes(t *testing.T, cfg Config, workload string) []int {
	t.Helper()
	sizes, err := cfg.SweepSizes(workload)
	if err != nil {
		t.Fatal(err)
	}
	return sizes
}
