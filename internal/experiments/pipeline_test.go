package experiments

import (
	"reflect"
	"testing"
)

// runAllPipelined executes the three pipelined sweeps in fixed order.
func runAllPipelined(t *testing.T, cfg Config) []*PipelineData {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*PipelineData
	for _, w := range []string{"vecadd", "reduce", "matmul"} {
		d, err := r.SweepPipelined(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestPipelineSweepSavings: every vecadd point must observe a strictly
// positive overlap saving with the default four chunks — the transfer-bound
// workload of the paper is exactly where streams pay — and the overlapped
// cost model must predict a saving of the same sign.
func TestPipelineSweepSavings(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.SweepPipelined("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != len(cfg.SizesVecAdd) {
		t.Fatalf("points = %d, want %d", len(data.Points), len(cfg.SizesVecAdd))
	}
	for _, pt := range data.Points {
		if pt.Chunks < 4 {
			t.Fatalf("n=%d: chunks = %d, want ≥ 4", pt.N, pt.Chunks)
		}
		if pt.ObservedSaving() <= 0 {
			t.Errorf("n=%d: observed saving %g not positive (seq %g, pipe %g)",
				pt.N, pt.ObservedSaving(), pt.Sequential.TotalTime, pt.Pipelined.TotalTime)
		}
		if pt.PredictedSaving <= 0 {
			t.Errorf("n=%d: predicted saving %g not positive", pt.N, pt.PredictedSaving)
		}
		if f := pt.ObservedSavingFraction(); f <= 0 || f >= 1 {
			t.Errorf("n=%d: observed saving fraction %g outside (0,1)", pt.N, f)
		}
		if f := pt.PredictedSavingFraction(); f <= 0 || f >= 1 {
			t.Errorf("n=%d: predicted saving fraction %g outside (0,1)", pt.N, f)
		}
	}
}

// TestPipelineSweepWorkerIndependent: pipelined sweep output is
// byte-identical for any worker count.
func TestPipelineSweepWorkerIndependent(t *testing.T) {
	base := testConfig()
	base.Workers = 1
	want := runAllPipelined(t, base)

	for _, workers := range []int{2, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		got := runAllPipelined(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

// TestPipelineSweepChunksConfig: Chunks threads through; negative is
// rejected up front.
func TestPipelineSweepChunksConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Chunks = 8
	cfg.SizesVecAdd = []int{1 << 12}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.SweepPipelined("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if data.Points[0].Chunks != 8 {
		t.Fatalf("chunks = %d, want 8", data.Points[0].Chunks)
	}

	cfg.Chunks = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Chunks accepted")
	}
}
