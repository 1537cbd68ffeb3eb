package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atgpu/internal/simgpu"
	"atgpu/internal/transfer"
)

// runAll executes all three §IV sweeps plus scan and returns them in a
// fixed order for whole-suite comparisons.
func runAll(t *testing.T, cfg Config) []*WorkloadData {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*WorkloadData
	for _, w := range []string{"vecadd", "reduce", "matmul", "scan"} {
		d, err := r.Sweep(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestParallelSweepByteIdentical is the tentpole acceptance: every sweep
// produces exactly the same data — points, aggregates, order — for any
// worker count, because all per-point randomness derives from
// (Seed, workload, N, index), never from scheduling.
func TestParallelSweepByteIdentical(t *testing.T) {
	base := testConfig()
	base.Workers = 1
	want := runAll(t, base)

	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		cfg := testConfig()
		cfg.Workers = workers
		got := runAll(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

// TestParallelFaultedSweepByteIdentical repeats the check under fault
// injection, where the per-point injector and retry-jitter seeds must also
// be scheduling-independent.
func TestParallelFaultedSweepByteIdentical(t *testing.T) {
	base := faultedConfig()
	base.Workers = 1
	want := runAll(t, base)

	for _, workers := range []int{2, 4} {
		cfg := faultedConfig()
		cfg.Workers = workers
		got := runAll(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("faulted workers=%d diverged from sequential", workers)
		}
	}
}

// TestSweepAggregates: the sweep-level Transfers/Resilience fields are the
// point-wise Merge of every point, failed points included.
func TestSweepAggregates(t *testing.T) {
	r, err := NewRunner(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.RunVecAdd()
	if err != nil {
		t.Fatal(err)
	}
	var tf transfer.Stats
	for _, p := range d.Points {
		tf.Merge(p.Transfers)
	}
	if d.Transfers != tf {
		t.Fatalf("sweep transfer aggregate %+v != folded points %+v", d.Transfers, tf)
	}
	if d.Transfers.InWords == 0 {
		t.Fatal("aggregate carries no transfer totals")
	}
}

func TestWorkersValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("negative Workers accepted: %v", err)
	}
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("NewRunner accepted negative Workers")
	}
}

// TestObservePointPropagatesNonFaultError: under injection, only genuine
// recovery-exhaustion sentinels may be absorbed into a Failed point; any
// other error (allocation failure, programming error) must surface.
func TestObservePointPropagatesNonFaultError(t *testing.T) {
	r, err := NewRunner(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom: not a fault")
	var pt WorkloadPoint
	got := r.observePoint(&pt, func() (*simgpu.Host, error) { return nil, boom })
	if !errors.Is(got, boom) {
		t.Fatalf("non-fault error swallowed: got %v", got)
	}
	if pt.Failed {
		t.Fatal("non-fault error marked the point as a fault casualty")
	}

	// The sentinels, wrapped arbitrarily deep, are absorbed.
	pt = WorkloadPoint{}
	wrapped := fmt.Errorf("vecadd n=8: run: %w", transfer.ErrRetriesExhausted)
	if err := r.observePoint(&pt, func() (*simgpu.Host, error) { return nil, wrapped }); err != nil {
		t.Fatalf("fault sentinel propagated: %v", err)
	}
	if !pt.Failed || pt.Err == "" {
		t.Fatalf("sentinel did not record a failed point: %+v", pt)
	}
}

// TestNewHostFailsFastOnOversizedFootprint: a footprint the preset cannot
// hold errors at host construction, naming the workload and sizes, instead
// of surfacing later as an opaque Malloc failure.
func TestNewHostFailsFastOnOversizedFootprint(t *testing.T) {
	r := newTestRunner(t)
	g := r.Config().Device.GlobalWords
	_, err := r.newHost(g+1, "vecadd", 123, 0)
	if err == nil {
		t.Fatal("oversized footprint accepted")
	}
	for _, want := range []string{"vecadd", "123", "exceeds", fmt.Sprint(g)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	// A sweep over an impossible size propagates the same error (it is
	// not a fault casualty even under injection). n = G/3 keeps the model
	// analysis feasible (footprint 3n ≤ G) while the alignment slack
	// pushes the concrete host over the limit.
	cfg := faultedConfig()
	cfg.SizesVecAdd = []int{cfg.Device.GlobalWords / 3}
	rr, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.RunVecAdd(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized sweep point did not fail fast: %v", err)
	}
}

// TestSummariseSkipsZeroTotalPoints: points without an observed total must
// not drag SWGPUCaptured down as zeros.
func TestSummariseSkipsZeroTotalPoints(t *testing.T) {
	d := &WorkloadData{Workload: "vecadd", Points: []WorkloadPoint{
		{N: 10, TotalTime: 2, KernelTime: 1, SyncTime: 0},
		{N: 20, TotalTime: 0, KernelTime: 0}, // no observation — skipped
		{N: 30, TotalTime: 4, KernelTime: 2, SyncTime: 0},
	}}
	s, err := Summarise(d)
	if err != nil {
		t.Fatal(err)
	}
	// Both observed points capture exactly half; a zero-filled third entry
	// would have dragged the mean to 1/3.
	if s.SWGPUCaptured != 0.5 {
		t.Fatalf("SWGPUCaptured = %v, want 0.5 (zero-total point skewed the mean)", s.SWGPUCaptured)
	}
}
