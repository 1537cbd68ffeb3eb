package atgpu

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"atgpu/internal/algorithms"
	"atgpu/internal/core"
	"atgpu/internal/experiments"
	"atgpu/internal/service"
	"atgpu/internal/simgpu"
)

// testSystem builds a System over the small Tiny device so unit tests stay
// fast.
func testSystem(t *testing.T) *System {
	t.Helper()
	opts := DefaultOptions()
	opts.Device = simgpu.Tiny()
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Device.NumSMs = 0
	if _, err := NewSystem(opts); err == nil {
		t.Error("invalid device accepted")
	}
	opts = DefaultOptions()
	opts.SyncCost = -time.Second
	if _, err := NewSystem(opts); err == nil {
		t.Error("negative sync cost accepted")
	}
}

func TestSystemPredictions(t *testing.T) {
	sys := testSystem(t)
	for _, tc := range []struct {
		name string
		n    int
	}{{"vecadd", 1000}, {"reduce", 1000}, {"matmul", 16}} {
		p, err := sys.AnalyzeWorkload(tc.name, tc.n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.GPUCost <= 0 || p.PerfectCost <= 0 || p.SWGPUCost <= 0 {
			t.Errorf("%s: non-positive costs: %+v", tc.name, p)
		}
		if p.PerfectCost > p.GPUCost+1e-12 {
			t.Errorf("%s: perfect cost %g exceeds GPU cost %g", tc.name, p.PerfectCost, p.GPUCost)
		}
		if p.SWGPUCost >= p.GPUCost {
			t.Errorf("%s: SWGPU %g not below ATGPU %g", tc.name, p.SWGPUCost, p.GPUCost)
		}
		if p.TransferFraction <= 0 || p.TransferFraction >= 1 {
			t.Errorf("%s: ΔT = %g", tc.name, p.TransferFraction)
		}
		if p.Analysis == nil || p.Analysis.R() < 1 {
			t.Errorf("%s: missing analysis", tc.name)
		}
	}
	if _, err := sys.AnalyzeWorkload("nonsense", 8); err == nil {
		t.Error("unknown workload accepted")
	}
}

// run runs a workload point and fails the test unless it succeeded.
func run(t *testing.T, sys *System, name string, n int) experiments.WorkloadPoint {
	t.Helper()
	pt, err := sys.Run(name, n)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Failed {
		t.Fatalf("%s n=%d failed: %s", name, n, pt.Err)
	}
	return pt
}

func TestSystemRunVecAdd(t *testing.T) {
	pt := run(t, testSystem(t), "vecadd", 100)
	if pt.TotalTime <= 0 || pt.KernelTime <= 0 || pt.TransferTime <= 0 {
		t.Fatalf("observation has zero components: %+v", pt)
	}
	if d := pt.TotalTime - (pt.KernelTime + pt.TransferTime + pt.SyncTime); d > 1e-15 || d < -1e-15 {
		t.Fatal("observation total inconsistent")
	}
	if pt.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", pt.Rounds)
	}
	if pt.Stats.Cycles <= 0 || pt.Stats.GlobalTransactions <= 0 {
		t.Fatalf("kernel stats empty: %+v", pt.Stats)
	}
	if pt.DeltaObserved <= 0 || pt.DeltaObserved >= 1 {
		t.Fatalf("ΔE = %g", pt.DeltaObserved)
	}
}

func TestSystemRunReduce(t *testing.T) {
	if pt := run(t, testSystem(t), "reduce", 333); pt.Rounds < 2 {
		t.Fatalf("rounds = %d, want multi-round", pt.Rounds)
	}
}

func TestSystemRunMatMul(t *testing.T) {
	if pt := run(t, testSystem(t), "matmul", 8); pt.Rounds != 1 || pt.KernelTime <= 0 {
		t.Fatalf("matmul observation: rounds %d kernel %g", pt.Rounds, pt.KernelTime)
	}
	// matmul needs n to be a multiple of the warp width.
	if _, err := testSystem(t).Run("matmul", 6); err == nil {
		t.Fatal("matmul n=6 on 4-lane warps accepted")
	}
}

// TestSystemRunEveryWorkload: the facade runs every registry entry, not
// only the paper's three.
func TestSystemRunEveryWorkload(t *testing.T) {
	// The default device: the privatized histogram's per-block bins do
	// not fit Tiny's shared memory.
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.Names() {
		n := 1024
		if name == "matmul" {
			n = 32
		}
		if pt := run(t, sys, name, n); pt.TotalTime <= 0 {
			t.Errorf("%s: no observed time", name)
		}
	}
}

func TestSystemOutOfCore(t *testing.T) {
	res, err := testSystem(t).RunOutOfCoreReduce(2000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 8 || res.Failed() {
		t.Fatalf("chunks = %d (failed %v), want 8", res.Chunks, res.Failed())
	}
	seq, pipe := res.Sequential, res.Pipelined
	if pipe.TotalTime > seq.TotalTime {
		t.Fatal("overlap slower than serial")
	}
	if seq.TransferTime <= 0 || seq.KernelTime <= 0 || seq.TransferTime+seq.KernelTime > seq.TotalTime {
		t.Fatalf("serial split transfer %g + kernel %g vs serial %g", seq.TransferTime, seq.KernelTime, seq.TotalTime)
	}
	if res.PredictedSequential <= 0 || res.PredictedPipelined > res.PredictedSequential {
		t.Fatalf("predicted serial %g, overlapped %g", res.PredictedSequential, res.PredictedPipelined)
	}
	if _, err := testSystem(t).RunOutOfCoreReduce(0, 4); !errors.Is(err, algorithms.ErrBadSize) {
		t.Fatalf("n=0: %v, want ErrBadSize", err)
	}
}

func TestPredictionTracksObservation(t *testing.T) {
	// The headline property on the default (GTX650) system: the predicted
	// transfer share is within 10 points of the observed share, and the
	// ATGPU cost explains most of the observed total while SWGPU does not
	// (for a transfer-dominated workload).
	sys, err := NewSystem(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pt := run(t, sys, "vecadd", 1<<16)
	dT, dE := pt.DeltaPredicted, pt.DeltaObserved
	if dT < dE-0.10 || dT > dE+0.10 {
		t.Errorf("ΔT = %.3f vs ΔE = %.3f, want within 0.10", dT, dE)
	}
	atgpuShare := pt.ATGPUCost / pt.TotalTime
	swShare := pt.SWGPUCost / pt.TotalTime
	if atgpuShare < 0.7 || atgpuShare > 1.3 {
		t.Errorf("ATGPU explains %.2f of total, want ≈1", atgpuShare)
	}
	if swShare > 0.5 {
		t.Errorf("SWGPU explains %.2f of total, want well below ATGPU", swShare)
	}
}

// TestRunMatchesServiceRun: System.Run and atgpud's run job are one run
// path, so the same request returns the same point — fault draws
// included.
func TestRunMatchesServiceRun(t *testing.T) {
	opts := DefaultOptions()
	opts.Device = simgpu.Tiny()
	opts.FaultRate = 0.3
	opts.FaultSeed = 5
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for _, tc := range []struct {
		name string
		n    int
	}{{"vecadd", 1024}, {"reduce", 2048}, {"matmul", 16}, {"histogram", 1024}} {
		pt, err := sys.Run(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Degraded() {
			faulted++
		}
		req, err := service.Request{Kind: "run", Workload: tc.name, N: tc.n, Device: "tiny",
			Seed: 1, FaultRate: opts.FaultRate, FaultSeed: opts.FaultSeed}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		art, err := service.NewExecutor().Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Point json.RawMessage `json:"point"`
		}
		if err := json.Unmarshal(art.Result, &doc); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, doc.Point) {
			t.Errorf("%s n=%d: System.Run and the service run differ:\n%s\n%s", tc.name, tc.n, got, doc.Point)
		}
	}
	if faulted == 0 {
		t.Error("no point drew a fault; the comparison does not cover fault seeding")
	}
}

func TestTableIFacade(t *testing.T) {
	out := TableI()
	if !strings.Contains(out, "ATGPU") || !strings.Contains(out, "Host/Device Data Transfer") {
		t.Fatalf("TableI output wrong:\n%s", out)
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := testSystem(t)
	if err := sys.CostParams().Validate(); err != nil {
		t.Fatalf("calibrated params invalid: %v", err)
	}
	if sys.Options().Device.Name != simgpu.Tiny().Name {
		t.Fatalf("Options lost the device: %+v", sys.Options())
	}
	p := sys.ModelParams(8)
	if p.K() != 8 || p.B != simgpu.Tiny().WarpWidth {
		t.Fatalf("ModelParams = %+v", p)
	}
}

// customAnalysis hand-builds an analysis the way the kernel-designer
// example's workflow does for a new algorithm.
func customAnalysis(sys *System) *core.Analysis {
	return &core.Analysis{
		Name:   "custom",
		Params: sys.ModelParams(16),
		Rounds: []core.Round{{
			Time: 25, IO: 32, Blocks: 16,
			SharedWords: 8, GlobalWords: 128,
			InWords: 64, InTransactions: 1,
			OutWords: 64, OutTransactions: 1,
		}},
	}
}

func TestSystemAnalyzeCustom(t *testing.T) {
	sys := testSystem(t)
	pred, err := sys.Analyze(customAnalysis(sys))
	if err != nil {
		t.Fatal(err)
	}
	if pred.GPUCost <= 0 || pred.SWGPUCost <= 0 {
		t.Fatalf("prediction degenerate: %+v", pred)
	}
	if pred.TransferFraction <= 0 {
		t.Fatal("custom analysis lost its transfer share")
	}
	// An infeasible analysis must be rejected by the cost functions.
	bad := customAnalysis(sys)
	bad.Rounds[0].SharedWords = sys.Options().Device.SharedWords + 1
	if _, err := sys.Analyze(bad); err == nil {
		t.Fatal("infeasible analysis accepted")
	}
}

func TestSystemRunPipelined(t *testing.T) {
	sys := testSystem(t)
	for _, tc := range []struct {
		name string
		n    int
	}{{"vecadd", 512}, {"reduce", 512}, {"matmul", 16}} {
		pt, err := sys.RunPipelined(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Chunks != 4 || pt.Streams != 2 {
			t.Fatalf("%s: schedule %d chunks / %d streams, want 4/2", tc.name, pt.Chunks, pt.Streams)
		}
		seq, pipe := pt.Sequential, pt.Pipelined
		if seq.TotalTime <= 0 || pipe.TotalTime <= 0 || pt.Failed() || pt.ObservedSaving() != seq.TotalTime-pipe.TotalTime {
			t.Fatalf("%s: observations empty or inconsistent: %+v", tc.name, pt)
		}
		if pipe.TotalTime > seq.TotalTime {
			t.Fatalf("%s: pipelined %v slower than sequential %v", tc.name, pipe.TotalTime, seq.TotalTime)
		}
		if pipe.KernelTime != seq.KernelTime || pipe.TransferTime != seq.TransferTime {
			t.Fatalf("%s: schedules did different work: %+v vs %+v", tc.name, seq, pipe)
		}
		pc, err := sys.AnalyzePipelined(tc.name, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if pc.Sequential != pt.PredictedSequential || pc.Pipelined != pt.PredictedPipelined {
			t.Fatalf("%s: AnalyzePipelined %+v disagrees with the run's prediction %+v", tc.name, pc, pt)
		}
	}
	if pt, err := sys.RunPipelined("vecadd", 512); err != nil || pt.ObservedSavingFraction() <= 0 ||
		pt.ObservedSavingFraction() >= 1 {
		t.Fatalf("pipelined vecadd saved %g (err %v), want in (0,1)", pt.ObservedSavingFraction(), err)
	}
	if _, err := sys.RunPipelined("scan", 512); err == nil {
		t.Error("scan has no pipelined variant, but RunPipelined accepted it")
	}

	bad := DefaultOptions()
	bad.Chunks = -2
	if _, err := NewSystem(bad); err == nil {
		t.Error("negative chunks accepted")
	}
}
